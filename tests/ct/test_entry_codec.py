"""The one log-entry record, on the wire and on disk.

:func:`repro.ct.storage.entry_record` / :func:`entry_from_record` are
the only encoder and decoder of an entry.  The pinned digests below
were computed from the encoders that predate the shared codec, so a
change to either the ``get-entries`` bytes or the harvest lines shows
up here.
"""

import base64
import hashlib
import http.client
import json
import sys
import threading
from datetime import timedelta
from functools import partial
from urllib.parse import quote, urlsplit

import pytest

from repro.ct.auditor import make_split_view_log
from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.merkle import leaf_hash
from repro.ct.sct import SctEntryType
from repro.ct.server import LogServer, entry_from_wire, entry_to_wire
from repro.ct.storage import (
    certificate_from_dict,
    certificate_to_dict,
    dump_log,
    entry_from_record,
    entry_record,
    load_log,
)
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


# -- work gates --------------------------------------------------------------

#: Python-level calls allowed per decoded entry: the codec functions,
#: the JSON decoder and one ``__init__`` per dataclass the entry holds.
MAX_DECODE_CALLS_PER_ENTRY = 24


def test_entry_decode_makes_few_python_calls(log):
    page = [entry_to_wire(entry) for entry in log.entries]
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    decoded = []
    sys.setprofile(profile)
    try:
        for element in page:
            decoded.append(entry_from_wire(element))
    finally:
        sys.setprofile(None)
    assert decoded == log.entries
    assert calls <= MAX_DECODE_CALLS_PER_ENTRY * len(page), calls / len(page)


def _raw_get(server, path):
    parts = urlsplit(server.url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        assert response.status == 200
        return response.read()
    finally:
        connection.close()


def test_memo_hit_encodes_nothing(log, now, monkeypatch):
    encodes = []
    encode = json.JSONEncoder.encode

    def counting(self, payload):
        encodes.append(threading.current_thread().name)
        return encode(self, payload)

    monkeypatch.setattr(json.JSONEncoder, "encode", counting)
    digest = base64.b64encode(leaf_hash(log.entries[3].leaf_input)).decode()
    paths = [
        "/ct/v1/get-entries?start=0&end=15",
        f"/ct/v1/get-proof-by-hash?hash={quote(digest, safe='')}&tree_size=32",
    ]
    with LogServer(log, clock=lambda: now) as server:
        for path in paths:
            del encodes[:]
            first = _raw_get(server, path)
            assert encodes, "a memo miss encodes its reply"
            del encodes[:]
            second = _raw_get(server, path)
            assert encodes == []
            assert second == first
    assert json.loads(first)["leaf_index"] == 3


# -- strictness --------------------------------------------------------------


def _base64_setters(record):
    """One setter per base64 field of a record's certificate."""
    cert = record["certificate"]
    setters = [partial(cert.__setitem__, "public_key_id"), partial(cert.__setitem__, "signature")]
    return setters + [partial(ext.__setitem__, 1) for ext in cert["extensions"]]


@pytest.mark.parametrize("bad", ["not base64!", "AAAAéAAA"])
def test_every_base64_field_is_strict(log, bad):
    entry = log.entries[0]
    fields = len(_base64_setters(entry_record(entry)))
    assert fields == 2 + len(entry.certificate.extensions)
    for position in range(fields):
        record = entry_record(entry)
        _base64_setters(record)[position](bad)
        with pytest.raises(ValueError):
            entry_from_record(record)
        with pytest.raises(ValueError):
            certificate_from_dict(record["certificate"])
    for key in ("extra_data", "leaf_input"):
        element = entry_to_wire(entry)
        element[key] = bad
        with pytest.raises(ValueError):
            entry_from_wire(element)


@pytest.mark.parametrize("kind", ["uri", "DNS", 0, None, ["dns"]])
def test_unknown_san_type_is_rejected(log, kind):
    record = entry_record(log.entries[0])
    record["certificate"]["san"][0][0] = kind
    with pytest.raises(ValueError):
        entry_from_record(record)


@pytest.mark.parametrize("kind", [2, -1, "1", None, [1]])
def test_unknown_entry_type_is_rejected(log, kind):
    record = entry_record(log.entries[0])
    record["entry_type"] = kind
    with pytest.raises(ValueError):
        entry_from_record(record)


def _assert_round_trips(entry):
    assert entry_from_record(entry_record(entry)) == entry
    assert entry_from_wire(entry_to_wire(entry)) == entry


def test_x509_entry_with_sct_list_round_trips(now):
    log = CTLog(name="X509 Log", operator="T", key=log_key("X509 Log", 256))
    ca = CertificateAuthority("X509 CA", key_bits=256, log_final_certificates=True)
    ca.issue(IssuanceRequest(("final.codec.example",)), [log], now)
    final = [e for e in log.entries if e.entry_type is SctEntryType.X509_ENTRY]
    assert final and final[0].certificate.has_embedded_scts
    for entry in log.entries:
        _assert_round_trips(entry)


def test_split_view_twin_entry_round_trips(log):
    twin = make_split_view_log(log, fork_at=4, pad_to=8)
    assert twin.entries[4] != log.entries[4]
    for entry in twin.entries:
        _assert_round_trips(entry)


def test_add_pre_chain_with_bad_san_type_is_400(log, now):
    pair = CertificateAuthority("Bad SAN CA", key_bits=256).issue(
        IssuanceRequest(("bad-san.codec.example",)), [], now
    )
    chain = certificate_to_dict(pair.final_certificate)
    chain["san"][0][0] = "uri"
    body = json.dumps({"chain": [chain], "issuer_key_hash": "AAAA"}).encode()
    status, payload, _ = LogServer(log, clock=lambda: now).handle_request(
        "POST", "/ct/v1/add-pre-chain", "", body
    )
    assert status == 400 and payload["code"] == 400
    assert "is not a valid SanType" in payload["error"]
