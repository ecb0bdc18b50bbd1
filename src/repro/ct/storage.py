"""Out-of-core persistence for CT log harvests, and the entry codec.

The paper harvested "data of all CT log servers deployed" — hundreds
of millions of entries in reality.  This module serializes log
contents to JSON-lines so harvests survive process restarts and can be
analyzed incrementally, and restores them with the Merkle tree rebuilt
and verified against the stored tree head.

It also owns the one log-entry record, ``{index, submitted_at,
entry_type, leaf_input, certificate}``: :func:`entry_record` and
:func:`entry_from_record` are its only encoder and decoder.  A harvest
line is the record plus ``"type": "entry"``; a ``get-entries`` element
(:func:`repro.ct.server.entry_to_wire`) carries the record's
``leaf_input`` in its RFC 6962 envelope and the rest as ``extra_data``.

The decoder serves every harvested page, stored line and submitted
chain, so it is lean: one strict base64 call per byte field and a
table lookup per enum, with no helper frames between them.  A handful
of CAs issue most logged certificates, and an issuer repeats its
extensions byte for byte, so decoded extensions are interned by their
wire triple ``(oid, base64 value, critical)`` in one bounded table:
a repeated extension costs one dict lookup, and every certificate of
an issuer shares one immutable :class:`Extension` per distinct
extension.  A record the decoder cannot decode (a missing field, a
wrong type, a byte field that is not strict base64, non-ASCII
included, an unknown SAN or entry type) raises :class:`ValueError`.
"""

from __future__ import annotations

import base64
import binascii
import json
import re
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.ct.log import CTLog, LogEntry
from repro.ct.sct import SctEntryType
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.timeutil import timestamp_ms
from repro.x509.certificate import Certificate, Extension, GeneralName, SanType


class LogStorageError(RuntimeError):
    """Raised when a stored harvest fails verification on load."""


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


if sys.version_info >= (3, 11):
    #: ``base64.b64decode(data, validate=True)`` as one C call.
    _a2b = partial(binascii.a2b_base64, strict_mode=True)
else:  # Python 3.10 has no ``strict_mode``: its validate=True, one frame.
    _B64_ALPHABET = re.compile(rb"[A-Za-z0-9+/]*={0,2}")

    def _a2b(data: bytes) -> bytes:
        if _B64_ALPHABET.fullmatch(data) is None:
            raise binascii.Error("Non-base64 digit found")
        return binascii.a2b_base64(data)


def _unb64(text: str) -> bytes:
    return _a2b(text.encode("ascii"))


_SAN_TYPES = {kind.value: kind for kind in SanType}
_ENTRY_TYPES = {kind.value: kind for kind in SctEntryType}

#: Decoded extensions by wire triple ``(oid, base64 value, critical)``.
#: Only strictly decoded extensions enter it.  When full it is cleared,
#: not frozen, so one-off values (SKI, SCT lists) cannot lock an
#: issuer's repeated extensions out.  Threads share it without a lock:
#: each dict operation is atomic, and a race costs one equal duplicate.
_EXTENSIONS: Dict[tuple, Extension] = {}
_EXTENSIONS_CAP = 4096

#: What indexing, unpacking and arithmetic raise on a record of the
#: wrong shape; the decoder re-raises them as :class:`ValueError`.
_SHAPE_ERRORS = (KeyError, TypeError, AttributeError, OverflowError)


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "serial": cert.serial,
        "issuer_cn": cert.issuer_cn,
        "issuer_org": cert.issuer_org,
        "subject_cn": cert.subject_cn,
        "san": [[entry.san_type.value, entry.value] for entry in cert.san],
        "not_before": timestamp_ms(cert.not_before),
        "not_after": timestamp_ms(cert.not_after),
        "public_key_id": _b64(cert.public_key_id),
        "extensions": [
            [ext.oid, _b64(ext.value), ext.critical] for ext in cert.extensions
        ],
        "signature": _b64(cert.signature),
    }


def certificate_from_dict(data: Mapping[str, object]) -> Certificate:
    """Invert :func:`certificate_to_dict`.

    Plain loops, table lookups and one strict base64 call per byte
    field, no helper frames: this runs once per entry of every page,
    harvest line and submitted chain.  A repeated extension is one
    lookup in the intern table; ``critical`` must be a JSON boolean,
    because ``1`` and ``True`` are one dict key.  ``serial`` and the
    validity bounds must be non-negative integers (not booleans), the
    names and SAN values strings, so a chain the log would fail to
    hash or would sign as garbage is rejected here.  Fields are read in
    :class:`Certificate` order, so a malformed dict fails on the same
    field, with the same message, as the ``SanType(kind)`` decoder did;
    any shape error is re-raised as :class:`ValueError`.
    """
    try:
        serial = data["serial"]
        if type(serial) is not int or serial < 0:
            raise ValueError(f"serial {serial!r} is not a non-negative integer")
        issuer_cn = data["issuer_cn"]
        issuer_org = data["issuer_org"]
        subject_cn = data["subject_cn"]
        if (
            type(issuer_cn) is not str
            or type(issuer_org) is not str
            or type(subject_cn) is not str
        ):
            raise ValueError("issuer_cn, issuer_org and subject_cn must be strings")
        san = []
        for kind, value in data["san"]:
            try:
                kind = _SAN_TYPES[kind]
            except (KeyError, TypeError):
                raise ValueError(f"{kind!r} is not a valid SanType") from None
            if type(value) is not str:
                raise ValueError(f"SAN value {value!r} is not a string")
            san.append(GeneralName(kind, value))
        not_before = data["not_before"]
        not_after = data["not_after"]
        if (
            type(not_before) is not int or not_before < 0
            or type(not_after) is not int or not_after < 0
        ):
            raise ValueError("not_before and not_after must be non-negative integers")
        not_before = datetime.fromtimestamp(not_before / 1000.0, timezone.utc)
        not_after = datetime.fromtimestamp(not_after / 1000.0, timezone.utc)
        public_key_id = _a2b(data["public_key_id"].encode("ascii"))
        extensions = []
        for oid, value, critical in data["extensions"]:
            if critical is not True and critical is not False:
                raise ValueError(f"extension critical flag {critical!r} is not a boolean")
            key = (oid, value, critical)
            extension = _EXTENSIONS.get(key)
            if extension is None:
                extension = Extension(oid, _a2b(value.encode("ascii")), critical)
                if len(_EXTENSIONS) >= _EXTENSIONS_CAP:
                    _EXTENSIONS.clear()
                _EXTENSIONS[key] = extension
            extensions.append(extension)
        signature = _a2b(data["signature"].encode("ascii"))
    except _SHAPE_ERRORS as exc:
        raise ValueError(str(exc)) from None
    return Certificate(
        serial,
        issuer_cn,
        issuer_org,
        subject_cn,
        tuple(san),
        not_before,
        not_after,
        public_key_id,
        tuple(extensions),
        signature,
    )


def entry_record(entry: LogEntry) -> Dict[str, object]:
    """The JSON-ready record of one log entry (byte fields base64)."""
    return {
        "index": entry.index,
        "submitted_at": timestamp_ms(entry.submitted_at),
        "entry_type": int(entry.entry_type),
        "leaf_input": _b64(entry.leaf_input),
        "certificate": certificate_to_dict(entry.certificate),
    }


def entry_from_record(record: Mapping[str, object]) -> LogEntry:
    """Invert :func:`entry_record` (extra keys, such as ``type``, are
    ignored).

    Every byte field is strict base64, every enum a known value and
    ``index`` a non-negative integer; anything else, a missing field
    or one of the wrong type included, raises :class:`ValueError`.
    """
    try:
        index = record["index"]
        if type(index) is not int or index < 0:
            raise ValueError(f"index {index!r} is not a non-negative integer")
        submitted_at = datetime.fromtimestamp(
            record["submitted_at"] / 1000.0, timezone.utc
        )
        entry_type = record["entry_type"]
        try:
            entry_type = _ENTRY_TYPES[entry_type]
        except (KeyError, TypeError):
            raise ValueError(f"{entry_type!r} is not a valid SctEntryType") from None
        certificate = certificate_from_dict(record["certificate"])
        leaf_input = _a2b(record["leaf_input"].encode("ascii"))
    except _SHAPE_ERRORS as exc:
        raise ValueError(str(exc)) from None
    return LogEntry(index, submitted_at, entry_type, certificate, leaf_input)


def dump_log(log: CTLog, path: Union[str, Path]) -> int:
    """Write a log's entries plus a trailer with the tree head.

    Returns the number of entries written.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for entry in log.entries:
            record = {"type": "entry", **entry_record(entry)}
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        trailer = {
            "type": "tree-head",
            "name": log.name,
            "operator": log.operator,
            "tree_size": log.tree.size,
            "root_hash": _b64(log.tree.root()),
        }
        handle.write(json.dumps(trailer, separators=(",", ":")) + "\n")
    return len(log.entries)


def iter_stored_entries(
    path: Union[str, Path],
    *,
    on_corrupt: str = "skip",
    metrics: MetricsRegistry = NULL_METRICS,
) -> Iterator[dict]:
    """Stream raw records (entries then the trailer) from a harvest file.

    A harvest interrupted mid-write (crash, full disk, torn copy)
    leaves a truncated or garbled trailing line; with the default
    ``on_corrupt="skip"`` such lines are dropped and counted instead
    of aborting the stream mid-harvest — the Merkle verification in
    :func:`load_log` still rejects the file as a whole if an *entry*
    went missing, while scan-only consumers (tree-head lookup, corpus
    streaming) keep working on the intact prefix.  A checkpointed
    analysis refuses such a harvest instead: its shard partials are
    bound to the tree head, which covers the missing entries.

    ``on_corrupt="raise"`` restores the strict behaviour and raises
    :class:`LogStorageError` on the first undecodable line.  ``metrics``
    counts skipped lines as ``storage.corrupt_lines_skipped``.
    """
    for _, record in _numbered_records(path, on_corrupt, metrics):
        yield record


def _numbered_records(
    path: Union[str, Path], on_corrupt: str, metrics: MetricsRegistry
) -> Iterator[Tuple[int, dict]]:
    """:func:`iter_stored_entries` with each record's line number."""
    if on_corrupt not in ("skip", "raise"):
        raise ValueError(
            f'on_corrupt must be "skip" or "raise", got {on_corrupt!r}'
        )
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if on_corrupt == "raise":
                    raise LogStorageError(
                        f"corrupt harvest line {number} in {path}: {exc}"
                    ) from exc
                metrics.inc("storage.corrupt_lines_skipped")
                continue
            if not isinstance(record, dict):
                if on_corrupt == "raise":
                    raise LogStorageError(
                        f"corrupt harvest line {number} in {path}: "
                        "record is not an object"
                    )
                metrics.inc("storage.corrupt_lines_skipped")
                continue
            yield number, record


class HarvestCheckpoint:
    """Incremental checkpoint for a sharded analysis of one harvest.

    A JSON-lines sidecar next to the harvest file: a header binding
    the checkpoint to one harvest state (tree size + root hash), one
    analysis pass, and one shard size — followed by one line per
    completed shard carrying its JSON-encoded partial result.  A
    resumed run skips the recorded shards and re-runs only the rest.

    Shard records may carry an ``attempts`` count (how many tries a
    retried shard needed — see :mod:`repro.resilience`), and a
    degraded run appends a ``degraded`` record listing the shard
    indices it lost; :meth:`fault_stats` aggregates both.  If a
    resumed run re-records an index that is already present, the
    duplicate is ignored (first record wins) instead of appending a
    conflicting line.

    Any corruption or mismatch (harvest re-harvested, different pass,
    different shard plan, truncated/garbled lines) raises
    :class:`LogStorageError` instead of silently resuming from
    partials that no longer describe the data.

    A :class:`repro.obs.MetricsRegistry` (``metrics=``) counts records
    as they land: ``checkpoint.shards_recorded``,
    ``checkpoint.duplicate_records`` (re-records ignored under the
    first-write-wins rule), and ``checkpoint.degraded_markers``.
    """

    VERSION = 1

    def __init__(
        self,
        path: Union[str, Path],
        *,
        pass_name: str,
        shard_size: int,
        tree_size: int,
        root_hash: str,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.path = Path(path)
        self.pass_name = pass_name
        self.shard_size = shard_size
        self.tree_size = tree_size
        self.root_hash = root_hash
        self.metrics = metrics
        self._recorded: Optional[set] = None

    def _header(self) -> dict:
        return {
            "type": "checkpoint-header",
            "version": self.VERSION,
            "pass": self.pass_name,
            "shard_size": self.shard_size,
            "tree_size": self.tree_size,
            "root_hash": self.root_hash,
        }

    def _iter_records(self) -> Iterator[dict]:
        """Validated non-header records of the sidecar, in file order."""
        if not self.path.exists():
            return
        header_seen = False
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LogStorageError(
                        f"corrupted shard checkpoint {self.path}: {exc}"
                    ) from exc
                if not isinstance(record, dict):
                    raise LogStorageError(
                        f"corrupted shard checkpoint {self.path}: "
                        "record is not an object"
                    )
                if not header_seen:
                    if record != self._header():
                        raise LogStorageError(
                            f"checkpoint {self.path} does not match this "
                            "harvest/pass/shard plan"
                        )
                    header_seen = True
                    continue
                rtype = record.get("type")
                if rtype == "degraded":
                    yield record
                    continue
                if rtype != "shard" or "index" not in record:
                    raise LogStorageError(
                        f"corrupted shard checkpoint {self.path}: "
                        "malformed shard record"
                    )
                index = record["index"]
                if not isinstance(index, int) or index < 0:
                    raise LogStorageError(
                        f"corrupted shard checkpoint {self.path}: "
                        f"bad shard index {index!r}"
                    )
                yield record
        if not header_seen:
            raise LogStorageError(
                f"corrupted shard checkpoint {self.path}: missing header"
            )

    def completed(self) -> Dict[int, object]:
        """Shard index -> recorded payload for every completed shard.

        Duplicate indices (a resumed run that re-recorded a shard)
        resolve to the *first* record, matching :meth:`record`'s
        first-write-wins semantics.
        """
        done: Dict[int, object] = {}
        for record in self._iter_records():
            if record.get("type") == "degraded":
                continue
            if record["index"] not in done:
                done[record["index"]] = record.get("payload")
        return done

    def _append(self, record: dict) -> None:
        new_file = not self.path.exists()
        with self.path.open("a", encoding="utf-8") as handle:
            if new_file:
                handle.write(
                    json.dumps(self._header(), separators=(",", ":")) + "\n"
                )
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            handle.flush()

    def record(self, index: int, payload: object, *, attempts: int = 1) -> None:
        """Append one completed shard's partial result.

        ``attempts`` > 1 marks a shard that needed retries (stored for
        :meth:`fault_stats`).  Re-recording an index that is already in
        the sidecar — e.g. a resumed run racing a stale worker — is a
        no-op rather than a conflicting duplicate record.
        """
        if self._recorded is None:
            self._recorded = set(self.completed()) if self.path.exists() else set()
        if index in self._recorded:
            self.metrics.inc("checkpoint.duplicate_records")
            return
        record: Dict[str, object] = {
            "type": "shard",
            "index": index,
            "payload": payload,
        }
        if attempts > 1:
            record["attempts"] = attempts
        self._append(record)
        self._recorded.add(index)
        self.metrics.inc("checkpoint.shards_recorded")

    def record_degraded(self, report: object) -> None:
        """Append a degraded-run marker (failed shard indices + retries).

        ``report`` is duck-typed against
        :class:`repro.resilience.DegradationReport`.
        """
        self._append(
            {
                "type": "degraded",
                "indices": list(getattr(report, "failed_indices", [])),
                "retries": int(getattr(report, "retries", 0)),
            }
        )
        self.metrics.inc("checkpoint.degraded_markers")

    def fault_stats(self) -> Dict[str, object]:
        """Aggregate retry/degradation accounting out of the sidecar."""
        shards = 0
        retried_shards = 0
        total_attempts = 0
        degraded_runs = 0
        degraded_indices: set = set()
        degraded_retries = 0
        seen: set = set()
        for record in self._iter_records():
            if record.get("type") == "degraded":
                degraded_runs += 1
                degraded_indices.update(record.get("indices", []))
                degraded_retries += record.get("retries", 0)
                continue
            if record["index"] in seen:
                continue
            seen.add(record["index"])
            shards += 1
            attempts = record.get("attempts", 1)
            total_attempts += attempts
            if attempts > 1:
                retried_shards += 1
        return {
            "shards": shards,
            "retried_shards": retried_shards,
            "total_attempts": total_attempts,
            "degraded_runs": degraded_runs,
            "degraded_indices": sorted(degraded_indices),
            "degraded_retries": degraded_retries,
        }

    def clear(self) -> None:
        """Remove the sidecar (e.g. after the analysis completed)."""
        if self.path.exists():
            self.path.unlink()
        self._recorded = None


def load_log(path: Union[str, Path], into: CTLog) -> int:
    """Restore a harvest into an (empty) log object and verify it.

    The Merkle tree is rebuilt from the stored leaf inputs; the rebuilt
    root must match the stored tree head, otherwise the harvest was
    tampered with or truncated and :class:`LogStorageError` is raised.
    """
    if into.entries:
        raise ValueError("load_log requires an empty log object")
    trailer: Optional[dict] = None
    count = 0
    for number, record in _numbered_records(path, "skip", NULL_METRICS):
        if record.get("type") == "tree-head":
            trailer = record
            continue
        try:
            entry = entry_from_record(record)
        except ValueError as exc:
            raise LogStorageError(
                f"undecodable entry on harvest line {number} in {path}: {exc}"
            ) from exc
        into.tree.append(entry.leaf_input)
        into.entries.append(entry)
        count += 1
    if trailer is None:
        raise LogStorageError("harvest file has no tree-head trailer")
    if trailer["tree_size"] != into.tree.size:
        raise LogStorageError(
            f"stored tree size {trailer['tree_size']} != rebuilt {into.tree.size}"
        )
    if _unb64(trailer["root_hash"]) != into.tree.root():
        raise LogStorageError("rebuilt Merkle root does not match stored tree head")
    return count


