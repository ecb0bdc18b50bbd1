"""The one log-entry record, on the wire and on disk.

:func:`repro.ct.storage.entry_record` / :func:`entry_from_record` are
the only encoder and decoder of an entry.  The pinned digests below
were computed from the encoders that predate the shared codec, so a
change to either the ``get-entries`` bytes or the harvest lines shows
up here.
"""

import hashlib
from datetime import timedelta

import pytest

from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.server import entry_from_wire, entry_to_wire
from repro.ct.storage import dump_log, entry_from_record, entry_record, load_log
from repro.x509.ca import CertificateAuthority, IssuanceRequest

#: sha256 of the 32 ``extra_data`` strings of one get-entries page.
PAGE_EXTRA_DATA_SHA256 = (
    "92a9b129cf8a2da1fa80f2bd8963d3d107f6949b364a85f8554e7614a8c58316"
)
#: sha256 of the first ``dump_log`` line (entry 0).
DUMP_LINE_SHA256 = (
    "a5c461768f385dd89943146094c9a0f6caa9eca59a34f2db5d3c87d4d405ad22"
)
#: The leading keys of that line, in file order.
DUMP_LINE_PREFIX = (
    '{"type":"entry","index":0,"submitted_at":1524052800000,'
    '"entry_type":1,"leaf_input":"'
)


@pytest.fixture()
def log(now):
    log = CTLog(name="Codec Log", operator="T", key=log_key("Codec Log", 256))
    ca = CertificateAuthority("Codec CA", key_bits=256)
    for i in range(32):
        names = (f"host{i}.codec.example",)
        if not i % 3:
            names += (f"www{i}.codec.example",)
        ca.issue(IssuanceRequest(names), [log], now + timedelta(minutes=i))
    return log


def test_get_entries_page_bytes_pinned(log):
    page = [entry_to_wire(entry) for entry in log.entries]
    assert len(page) == 32
    extra = "".join(element["extra_data"] for element in page).encode()
    assert hashlib.sha256(extra).hexdigest() == PAGE_EXTRA_DATA_SHA256


def test_dump_line_pinned_and_loads(log, tmp_path):
    path = tmp_path / "harvest.jsonl"
    dump_log(log, path)
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith(DUMP_LINE_PREFIX)
    assert hashlib.sha256(first.encode()).hexdigest() == DUMP_LINE_SHA256
    restored = CTLog(name=log.name, operator=log.operator, key=log.key)
    assert load_log(path, restored) == 32
    assert restored.entries == log.entries


def test_record_round_trip_is_exact(log):
    for entry in log.entries:
        assert entry_from_record(entry_record(entry)) == entry
        assert entry_from_wire(entry_to_wire(entry)) == entry


def test_decoder_rejects_non_base64_leaf(log):
    record = entry_record(log.entries[0])
    record["leaf_input"] = "not base64!"
    with pytest.raises(ValueError):
        entry_from_record(record)
