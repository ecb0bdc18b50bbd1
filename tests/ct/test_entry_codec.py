"""The one log-entry record, on the wire and on disk.

:func:`repro.ct.storage.entry_record` / :func:`entry_from_record` are
the only encoder and decoder of an entry.  The pinned digests below
were computed from the encoders that predate the shared codec, so a
change to either the ``get-entries`` bytes or the harvest lines shows
up here.
"""

import base64
import gc
import hashlib
import http.client
import json
import sys
import threading
from dataclasses import replace
from datetime import timedelta
from functools import partial
from urllib.parse import quote, urlsplit

import pytest

from repro.ct import storage
from repro.ct.auditor import make_split_view_log
from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.merkle import leaf_hash
from repro.ct.sct import SctEntryType
from repro.ct.server import LogServer, entry_from_wire, entry_to_wire
from repro.ct.storage import (
    LogStorageError,
    certificate_from_dict,
    certificate_to_dict,
    dump_log,
    entry_from_record,
    entry_record,
    load_log,
)
from repro.dataset.corpus import CertCorpus
from repro.x509.ca import CertificateAuthority, IssuanceRequest
from repro.x509.certificate import Extension

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
#: the JSON decoder and one ``__init__`` per dataclass the entry holds,
#: but none per repeated extension (8.5 measured on this one-CA page).
#: Python 3.10's strict base64 check is one more frame for each of the
#: four byte fields an entry decodes once its extensions are interned.
MAX_DECODE_CALLS_PER_ENTRY = 10 if sys.version_info >= (3, 11) else 14

#: GC-tracked objects one kept entry holds once its issuer's extensions
#: are interned: the entry, its certificate, its SAN and extension
#: tuples and its SAN names (5.3 measured on this page).  Python 3.10
#: also tracks the attribute dict of the entry, certificate and names,
#: which 3.11 stores inline (8.7 measured there).
MAX_TRACKED_OBJECTS_PER_ENTRY = 6 if sys.version_info >= (3, 11) else 9


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


def test_kept_entries_share_their_issuers_extensions(log):
    page = [entry_to_wire(entry) for entry in log.entries]
    warm = [entry_from_wire(element) for element in page]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = [entry_from_wire(element) for element in page]
        tracked = len(gc.get_objects()) - before - 1  # minus ``kept``
    finally:
        gc.enable()
    assert kept == warm == log.entries
    assert tracked <= MAX_TRACKED_OBJECTS_PER_ENTRY * len(page), tracked / len(page)


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


# -- malformed records -------------------------------------------------------


def _with_certificate(**changes):
    def change(record):
        return {**record, "certificate": {**record["certificate"], **changes}}

    return change


def _with_extension_field(position, value):
    def change(record):
        extensions = [list(ext) for ext in record["certificate"]["extensions"]]
        extensions[0][position] = value
        return _with_certificate(extensions=extensions)(record)

    return change


#: Records that are valid JSON but not an entry record.
MALFORMED_RECORDS = {
    "list": lambda record: [],
    "number": lambda record: 5,
    "index-only": lambda record: {"index": 0},
    "submitted-at-string": lambda record: {**record, "submitted_at": "2018-04-18"},
    "certificate-list": lambda record: {**record, "certificate": []},
    "no-signature": lambda record: {
        **record,
        "certificate": {
            k: v for k, v in record["certificate"].items() if k != "signature"
        },
    },
    "san-not-pairs": _with_certificate(san=[5]),
    "not-after-string": _with_certificate(not_after="later"),
    "not-after-overflow": _with_certificate(not_after=10**30),
    "public-key-id-int": _with_certificate(public_key_id=7),
    "extension-value-int": _with_extension_field(1, 7),
    "extension-value-unhashable": _with_extension_field(1, ["AAAA"]),
    "extension-oid-unhashable": _with_extension_field(0, ["2.5.29.19"]),
    "index-string": lambda record: {**record, "index": "x"},
    "index-negative": lambda record: {**record, "index": -1},
    "index-bool": lambda record: {**record, "index": False},
    "serial-string": _with_certificate(serial="x"),
    "serial-negative": _with_certificate(serial=-1),
    "serial-bool": _with_certificate(serial=True),
    "subject-cn-int": _with_certificate(subject_cn=5),
    "issuer-cn-null": _with_certificate(issuer_cn=None),
    "issuer-org-int": _with_certificate(issuer_org=7),
    "san-value-int": _with_certificate(san=[["dns", 5]]),
    "not-before-negative": _with_certificate(not_before=-1),
    "not-before-bool": _with_certificate(not_before=True),
    "not-after-float": _with_certificate(not_after=1.5e12),
}

#: Chains of one precertificate whose scalar fields have the wrong
#: type or sign; the log must neither sign nor append them.
MALFORMED_CHAIN_FIELDS = {
    "serial-string": {"serial": "x"},
    "serial-negative": {"serial": -1},
    "subject-cn-int": {"subject_cn": 5},
    "issuer-cn-null": {"issuer_cn": None},
    "san-value-int": {"san": [["dns", 5]]},
    "not-before-bool": {"not_before": True},
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_RECORDS))
def test_malformed_record_raises_value_error(log, shape):
    good = entry_record(log.entries[0])
    leaf_input = good.pop("leaf_input")
    bad = MALFORMED_RECORDS[shape](good)
    element = {
        "leaf_input": leaf_input,
        "extra_data": base64.b64encode(json.dumps(bad).encode()).decode(),
    }
    with pytest.raises(ValueError):
        entry_from_wire(element)
    with pytest.raises(ValueError):
        entry_from_record({**bad, "leaf_input": leaf_input} if isinstance(bad, dict) else bad)


@pytest.mark.parametrize("element", [[], 5, {"leaf_input": "AAAA"}, {"extra_data": 5}])
def test_malformed_element_raises_value_error(element):
    with pytest.raises(ValueError):
        entry_from_wire(element)


@pytest.mark.parametrize("shape", sorted(MALFORMED_CHAIN_FIELDS))
def test_add_pre_chain_with_malformed_scalar_is_400(log, now, monkeypatch, shape):
    ca = CertificateAuthority("Scalar CA", key_bits=256)
    scratch = CTLog(name="Scalar Scratch", operator="T", key=log_key("S", 256))
    pair = ca.issue(IssuanceRequest(("scalar.codec.example",)), [scratch], now)
    chain = certificate_to_dict(pair.precertificate)
    chain.update(MALFORMED_CHAIN_FIELDS[shape])
    body = json.dumps(
        {
            "chain": [chain],
            "issuer_key_hash": base64.b64encode(ca.issuer_key_hash).decode(),
        }
    ).encode()
    signed = []
    sign_sct = log.sign_sct
    monkeypatch.setattr(
        log, "sign_sct", lambda *args: signed.append(args) or sign_sct(*args)
    )
    size = log.size
    status, payload, _ = LogServer(log, clock=lambda: now).handle_request(
        "POST", "/ct/v1/add-pre-chain", "", body
    )
    assert (status, payload["code"]) == (400, 400), payload
    assert payload["error"].startswith("malformed chain: ")
    assert signed == [] and log.size == size


def test_malformed_harvest_line_names_the_line(log, tmp_path):
    path = tmp_path / "harvest.jsonl"
    dump_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = '{"type":"entry","index":0}\n'
    path.write_text("".join(lines), encoding="utf-8")
    restored = CTLog(name=log.name, operator=log.operator, key=log.key)
    with pytest.raises(LogStorageError, match="line 3 "):
        load_log(path, restored)
    with pytest.raises(ValueError):
        CertCorpus.from_stored(path)


# -- the extension intern table ----------------------------------------------


def test_decoded_certificate_equals_one_with_fresh_extensions(log):
    cert = log.entries[0].certificate
    fresh = replace(
        cert,
        extensions=tuple(
            Extension(ext.oid, bytes(ext.value), ext.critical)
            for ext in cert.extensions
        ),
    )
    first = certificate_from_dict(certificate_to_dict(cert))
    second = certificate_from_dict(certificate_to_dict(fresh))
    assert first == second == fresh
    assert first.tbs_bytes() == fresh.tbs_bytes()
    assert all(a is b for a, b in zip(first.extensions, second.extensions))


def test_bad_base64_extension_never_enters_the_table(log):
    data = certificate_to_dict(log.entries[0].certificate)
    data["extensions"][0][1] = "not base64!"
    for _ in range(3):
        with pytest.raises(ValueError):
            certificate_from_dict(data)
    assert not any(key[1] == "not base64!" for key in storage._EXTENSIONS)


def test_table_stays_bounded_and_reinterns_issuer_extensions(log):
    data = certificate_to_dict(log.entries[0].certificate)
    one_offs = [
        ["1.2.3.4", base64.b64encode(number.to_bytes(4, "big")).decode(), False]
        for number in range(storage._EXTENSIONS_CAP + 100)
    ]
    certificate_from_dict({**data, "extensions": one_offs})
    assert 0 < len(storage._EXTENSIONS) <= storage._EXTENSIONS_CAP
    first = certificate_from_dict(data)
    second = certificate_from_dict(certificate_to_dict(log.entries[1].certificate))
    assert first.extensions
    assert all(a is b for a, b in zip(first.extensions, second.extensions))
    assert len(storage._EXTENSIONS) <= storage._EXTENSIONS_CAP


def test_threads_decoding_one_page_get_equal_entries(log):
    page = [entry_to_wire(entry) for entry in log.entries]
    storage._EXTENSIONS.clear()
    results = [None] * 4
    barrier = threading.Barrier(len(results))

    def decode(slot):
        barrier.wait()
        results[slot] = [entry_from_wire(element) for element in page]

    threads = [threading.Thread(target=decode, args=(slot,)) for slot in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(result == log.entries for result in results)


@pytest.mark.parametrize("critical", [1, 0, None, "true"])
def test_non_boolean_critical_flag_is_rejected(log, critical):
    data = certificate_to_dict(log.entries[0].certificate)
    certificate_from_dict(data)  # the boolean twin is in the table now
    data["extensions"][0][2] = critical
    with pytest.raises(ValueError, match="not a boolean"):
        certificate_from_dict(data)
