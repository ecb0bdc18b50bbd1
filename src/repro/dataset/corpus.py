"""The columnar certificate corpus shared by the section passes.

The paper's section analyses (precert growth, the CA x log matrix,
subdomain leakage) all iterate the same certificate population.  A
:class:`CertCorpus` materializes that population **once**, as parallel
columns (struct-of-arrays) rather than per-certificate dicts:

* categorical columns (issuer, log, day, month) are **interned**: the
  column itself is an ``array('I')`` of 4-byte ids into a per-column
  value table, so a million rows cost 4 MB plus one object per
  *distinct* value — no per-row PyObject headers at all;
* serials live in an ``array('Q')`` with a side table for the rare
  values that overflow 64 bits (RFC 5280 allows up to 20 octets);
* the precert flag is one byte per row in an ``array('B')``;
* a :class:`CorpusView` is a zero-copy ``[start, stop)`` window over
  the columns, so the shard planner can hand workers plain picklable
  payloads that carry *only their slice* of the data.

Corpora are **append-only**: :meth:`CertCorpus.append_batch` folds a
``CertFeed.poll`` batch (or any ``(log_name, entry)`` stream) onto the
end of the columns, reusing the existing interner tables, and returns
a :class:`CorpusDelta` window over exactly the new rows — the unit the
incremental analytics layer (:mod:`repro.dataset.live`) consumes.
Existing rows never move, so open views stay valid across appends.

Corpora are built from in-memory :class:`repro.ct.CTLog` objects
(:meth:`CertCorpus.from_logs`) or streamed from a ``ct.storage``
JSON-lines harvest (:meth:`CertCorpus.from_stored`) without ever
holding per-entry dicts beyond the line being parsed.
"""

from __future__ import annotations

import sys
import time
from array import array
from datetime import date
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
    overload,
)

from repro.ct.log import CTLog, LogEntry
from repro.ct.sct import SctEntryType
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.timeutil import month_key

_T = TypeVar("_T")

#: Largest serial an ``array('Q')`` slot can hold; anything bigger (or
#: negative) is routed through the per-corpus overflow side table.
_SERIAL_SLOT_MAX = 2**64 - 1


class CertRecord(NamedTuple):
    """One row of the corpus, assembled on demand from the columns."""

    issuer_org: str
    serial: int
    day: date
    log_name: str
    month: str
    is_precert: bool
    names: Tuple[str, ...]


_PRECERT = SctEntryType.PRECERT_ENTRY


def entry_row(
    row: Callable[[str, int, date, str, bool, Tuple[str, ...]], _T],
    log_name: str,
    entry: LogEntry,
    with_names: bool,
) -> _T:
    """The one rule for which ``LogEntry`` fields make a corpus row:
    ``row(issuer_org, serial, submission day, log_name, is_precert,
    CN/SAN names or ())``, with no intermediate tuple per entry."""
    cert = entry.certificate
    return row(
        cert.issuer_org,
        cert.serial,
        entry.submitted_at.date(),
        log_name,
        entry.entry_type is _PRECERT,
        tuple(cert.dns_names()) if with_names else (),
    )


#: Submission day -> its ``YYYY-MM`` key, shared by every record
#: built in this process, so a month is one string object.
_MONTHS: Dict[date, str] = {}


def cert_record(
    issuer_org: str,
    serial: int,
    day: date,
    log_name: str,
    is_precert: bool,
    names: Tuple[str, ...],
) -> CertRecord:
    """A :class:`CertRecord` from :func:`entry_row` fields."""
    month = _MONTHS.get(day)
    if month is None:
        month = _MONTHS[day] = month_key(day)
    return CertRecord(issuer_org, serial, day, log_name, month, is_precert, names)


class _Interner:
    """A value table plus reverse index: ``intern`` returns a stable
    dense id, ``values[id]`` decodes it.  Decoding always yields the
    *same* object per distinct value, which is what keeps shared
    strings shared (and :meth:`CertCorpus.approx_bytes` honest)."""

    __slots__ = ("values", "_ids")

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self.values: List[Any] = list(values)
        self._ids: Dict[Any, int] = {
            value: index for index, value in enumerate(self.values)
        }

    def intern(self, value: Any) -> int:
        ident = self._ids.get(value)
        if ident is None:
            ident = self._ids[value] = len(self.values)
            self.values.append(value)
        return ident

    def __len__(self) -> int:
        return len(self.values)


class _SequenceEq:
    """Element-wise ``==`` against any sequence (tuple-column parity)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Sequence, _SequenceEq)):
            return len(self) == len(other) and all(  # type: ignore[arg-type]
                mine == theirs
                for mine, theirs in zip(self, other)  # type: ignore[call-overload]
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class _InternedColumn(_SequenceEq, Sequence[_T]):
    """Read view of one interned column: decodes ids on access.

    Iteration snapshots the id array first (a C-level copy), so the
    column can keep growing underneath live iterators without ever
    exporting a buffer (an exported ``memoryview`` would make
    ``array.append`` raise ``BufferError``).
    """

    __slots__ = ("_ids", "_values")

    def __init__(self, ids: "array[int]", values: List[_T]) -> None:
        self._ids = ids
        self._values = values

    def __len__(self) -> int:
        return len(self._ids)

    @overload
    def __getitem__(self, index: int) -> _T: ...

    @overload
    def __getitem__(self, index: slice) -> Tuple[_T, ...]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[_T, Tuple[_T, ...]]:
        if isinstance(index, slice):
            return tuple(map(self._values.__getitem__, self._ids[index]))
        return self._values[self._ids[index]]

    def __iter__(self) -> Iterator[_T]:
        return map(self._values.__getitem__, self._ids[:])


class _SerialColumn(_SequenceEq, Sequence[int]):
    """Serial numbers: a ``Q`` array plus the >64-bit overflow table."""

    __slots__ = ("_low", "_overflow")

    def __init__(self, low: "array[int]", overflow: Dict[int, int]) -> None:
        self._low = low
        self._overflow = overflow

    def __len__(self) -> int:
        return len(self._low)

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> Tuple[int, ...]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[int, Tuple[int, ...]]:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self._low))
            return tuple(self._decode(i) for i in range(start, stop, step))
        if index < 0:
            index += len(self._low)
        return self._decode(index)

    def _decode(self, index: int) -> int:
        return self._overflow.get(index, self._low[index])

    def __iter__(self) -> Iterator[int]:
        low = self._low[:]
        if not self._overflow:
            return iter(low)
        overflow = self._overflow
        return (overflow.get(i, v) for i, v in enumerate(low))


class _BoolColumn(_SequenceEq, Sequence[bool]):
    """The precert flag: one byte per row, decoded to ``bool``."""

    __slots__ = ("_bits",)

    def __init__(self, bits: "array[int]") -> None:
        self._bits = bits

    def __len__(self) -> int:
        return len(self._bits)

    @overload
    def __getitem__(self, index: int) -> bool: ...

    @overload
    def __getitem__(self, index: slice) -> Tuple[bool, ...]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[bool, Tuple[bool, ...]]:
        if isinstance(index, slice):
            return tuple(map(bool, self._bits[index]))
        return bool(self._bits[index])

    def __iter__(self) -> Iterator[bool]:
        return map(bool, self._bits[:])


class CorpusDelta:
    """The ``[start, stop)`` window appended by one batch.

    Deltas are what the streaming layer folds: they expose the same
    record iteration as a :class:`CorpusView` but remember that they
    are *the new rows* of a specific append, so an incremental
    consumer can assert gapless coverage (``delta.start`` == previous
    ``delta.stop``).
    """

    __slots__ = ("corpus", "start", "stop")

    def __init__(self, corpus: "CertCorpus", start: int, stop: int) -> None:
        self.corpus = corpus
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def view(self) -> "CorpusView":
        return CorpusView(self.corpus, self.start, self.stop)

    def iter_records(self) -> Iterator[CertRecord]:
        return self.view().iter_records()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorpusDelta([{self.start}, {self.stop}))"


class CertCorpus:
    """Columnar, append-only storage for a certificate population.

    The constructor takes decoded column sequences (the classic
    struct-of-arrays shape); use :meth:`from_logs` /
    :meth:`from_stored` / :meth:`empty` + :meth:`append_batch` to
    build one.  All columns have equal length.  ``names`` may be an
    empty tuple per record when the corpus was built with
    ``with_names=False`` (the Section 2 passes never look at CN/SAN
    names, and the names column dominates the corpus footprint).

    Internally every categorical column is an ``array('I')`` of
    interned ids; the public ``issuer_org`` / ``day`` / ``log_name`` /
    ``month`` / ``serial`` / ``is_precert`` attributes are lazy
    decoding views that still support ``len`` / iteration / indexing /
    slicing like the tuples they replaced.

    ``path`` and ``tree_head`` are the harvest file a
    :meth:`from_stored` corpus was read from and its trailer (``None``
    for any other corpus, and after pickling).
    """

    __slots__ = (
        "path",
        "tree_head",
        "_issuers",
        "_logs",
        "_days",
        "_months",
        "_issuer_ids",
        "_log_ids",
        "_day_ids",
        "_month_ids",
        "_serial_low",
        "_serial_overflow",
        "_precert_bits",
        "_names",
        "_month_memo",
    )

    def __init__(
        self,
        issuer_org: Sequence[str],
        serial: Sequence[int],
        day: Sequence[date],
        log_name: Sequence[str],
        month: Sequence[str],
        is_precert: Sequence[bool],
        names: Sequence[Tuple[str, ...]],
    ) -> None:
        lengths = {
            len(issuer_org),
            len(serial),
            len(day),
            len(log_name),
            len(month),
            len(is_precert),
            len(names),
        }
        if len(lengths) > 1:
            raise ValueError(f"ragged corpus columns: lengths {sorted(lengths)}")
        self._issuers = _Interner()
        self._logs = _Interner()
        self._days = _Interner()
        self._months = _Interner()
        self._issuer_ids: "array[int]" = array("I")
        self._log_ids: "array[int]" = array("I")
        self._day_ids: "array[int]" = array("I")
        self._month_ids: "array[int]" = array("I")
        self._serial_low: "array[int]" = array("Q")
        self._serial_overflow: Dict[int, int] = {}
        self._precert_bits: "array[int]" = array("B")
        self._names: List[Tuple[str, ...]] = []
        self._month_memo: Dict[Tuple[int, int], int] = {}
        self.path: Optional[Path] = None
        self.tree_head: Optional[Dict[str, Any]] = None
        for row in zip(
            issuer_org, serial, day, log_name, month, is_precert, names
        ):
            self._append_encoded(
                row[0], row[1], row[2], row[3], row[5], row[6], month=row[4]
            )

    # -- construction --------------------------------------------------------

    @classmethod
    def empty(cls) -> "CertCorpus":
        """A zero-row corpus, ready for :meth:`append_batch`."""
        return cls((), (), (), (), (), (), ())

    @classmethod
    def from_logs(
        cls,
        logs: Union[Mapping[str, CTLog], Iterable[CTLog]],
        *,
        with_names: bool = True,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> "CertCorpus":
        """Build the corpus from in-memory logs, in serial scan order.

        Iterates logs exactly as the serial section passes do (mapping
        value order, entries in append order), so reducing the corpus
        in view order replays the serial iteration byte-for-byte.
        """
        started = time.perf_counter()
        log_iter = logs.values() if isinstance(logs, Mapping) else logs
        corpus = cls.empty()
        for log in log_iter:
            corpus.append_entries(log.name, log.entries, with_names=with_names)
        _record_build_metrics(corpus, time.perf_counter() - started, metrics)
        return corpus

    @classmethod
    def from_stored(
        cls,
        path: Union[str, Path],
        *,
        with_names: bool = True,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> "CertCorpus":
        """Stream the corpus from a ``ct.storage`` JSON-lines harvest.

        Entry records are folded straight into the columns (no
        intermediate entry list); the tree-head trailer names the log
        and is kept as :attr:`tree_head`.  Corrupt trailing lines are
        skipped with a counter (see
        :func:`repro.ct.storage.iter_stored_entries`) and
        duplicate entry indices are dropped first-record-wins, counted
        into ``metrics`` as ``dataset.duplicate_entries_skipped``.
        """
        from repro.ct.storage import entry_from_record, iter_stored_entries

        started = time.perf_counter()
        corpus = cls.empty()
        corpus.path = Path(path)
        seen_indices: Set[object] = set()
        duplicates = 0
        for record in iter_stored_entries(path, metrics=metrics):
            rtype = record.get("type")
            if rtype == "tree-head":
                corpus.tree_head = record
                continue
            if rtype != "entry":
                continue
            entry = entry_from_record(record)
            if entry.index in seen_indices:
                duplicates += 1
                continue
            seen_indices.add(entry.index)
            # The log name is patched below once the trailer names it.
            entry_row(corpus._append_encoded, "", entry, with_names)
        if corpus.tree_head is not None:
            corpus._rename_all_logs(str(corpus.tree_head.get("name", "")))
        if duplicates:
            metrics.inc("dataset.duplicate_entries_skipped", duplicates)
        _record_build_metrics(corpus, time.perf_counter() - started, metrics)
        return corpus

    # -- appending -----------------------------------------------------------

    def _append_encoded(
        self,
        issuer_org: str,
        serial: int,
        day: date,
        log_name: str,
        is_precert: bool,
        names: Tuple[str, ...],
        month: Optional[str] = None,
    ) -> None:
        """Encode one row onto the end of every column."""
        if month is None:
            month_id = self._month_memo.get((day.year, day.month))
            if month_id is None:
                month_id = self._months.intern(month_key(day))
                self._month_memo[(day.year, day.month)] = month_id
        else:
            month_id = self._months.intern(month)
            self._month_memo.setdefault((day.year, day.month), month_id)
        if 0 <= serial <= _SERIAL_SLOT_MAX:
            self._serial_low.append(serial)
        else:
            self._serial_overflow[len(self._serial_low)] = serial
            self._serial_low.append(0)
        self._issuer_ids.append(self._issuers.intern(issuer_org))
        self._log_ids.append(self._logs.intern(log_name))
        self._day_ids.append(self._days.intern(day))
        self._month_ids.append(month_id)
        self._precert_bits.append(1 if is_precert else 0)
        self._names.append(names)

    def append_row(
        self,
        *,
        issuer_org: str,
        serial: int,
        day: date,
        log_name: str,
        is_precert: bool,
        names: Tuple[str, ...] = (),
    ) -> int:
        """Append one record; returns its row index.

        The month column is derived from ``day`` through the corpus
        month memo, so every record in the same month decodes to one
        shared string object.
        """
        index = len(self._issuer_ids)
        self._append_encoded(
            issuer_org, serial, day, log_name, is_precert, names
        )
        return index

    def append_entries(
        self,
        log_name: str,
        entries: Iterable[LogEntry],
        *,
        with_names: bool = True,
    ) -> CorpusDelta:
        """Append log entries (a harvest page, a poll's per-log run).

        Returns the :class:`CorpusDelta` covering exactly the new
        rows.  Interner tables are reused, so a delta costs only its
        own rows plus any *new* distinct values it introduces.
        """
        start = len(self._issuer_ids)
        append = self._append_encoded
        for entry in entries:
            entry_row(append, log_name, entry, with_names)
        return CorpusDelta(self, start, len(self._issuer_ids))

    def append_batch(
        self,
        batch: Iterable[Any],
        *,
        with_names: bool = True,
    ) -> CorpusDelta:
        """Append one feed batch; returns the delta window over it.

        ``batch`` items are either :class:`repro.ct.feed.FeedEvent`
        objects (anything with ``.log_name`` and ``.entry``) or plain
        ``(log_name, entry)`` pairs — the two shapes the streaming
        sources (``CertFeed.poll`` and ``harvest_log`` pages) produce.
        """
        start = len(self._issuer_ids)
        append = self._append_encoded
        for item in batch:
            entry = getattr(item, "entry", None)
            if entry is not None:
                log_name = item.log_name
            else:
                log_name, entry = item
            entry_row(append, log_name, entry, with_names)
        return CorpusDelta(self, start, len(self._issuer_ids))

    def _rename_all_logs(self, log_name: str) -> None:
        """Backfill the log column once a harvest trailer names it."""
        if not len(self._log_ids):
            return
        self._logs = _Interner()
        ident = self._logs.intern(log_name)
        self._log_ids = array("I", [ident]) * len(self._log_ids)

    # -- access --------------------------------------------------------------

    @property
    def issuer_org(self) -> _InternedColumn[str]:
        return _InternedColumn(self._issuer_ids, self._issuers.values)

    @property
    def serial(self) -> _SerialColumn:
        return _SerialColumn(self._serial_low, self._serial_overflow)

    @property
    def day(self) -> _InternedColumn[date]:
        return _InternedColumn(self._day_ids, self._days.values)

    @property
    def log_name(self) -> _InternedColumn[str]:
        return _InternedColumn(self._log_ids, self._logs.values)

    @property
    def month(self) -> _InternedColumn[str]:
        return _InternedColumn(self._month_ids, self._months.values)

    @property
    def is_precert(self) -> _BoolColumn:
        return _BoolColumn(self._precert_bits)

    @property
    def names(self) -> List[Tuple[str, ...]]:
        return self._names

    def __len__(self) -> int:
        return len(self._issuer_ids)

    def record(self, index: int) -> CertRecord:
        return CertRecord(
            self.issuer_org[index],
            self.serial[index],
            self.day[index],
            self.log_name[index],
            self.month[index],
            self.is_precert[index],
            self._names[index],
        )

    def iter_records(self) -> Iterator[CertRecord]:
        return self.iter_range(0, len(self))

    def iter_range(self, start: int, stop: int) -> Iterator[CertRecord]:
        """Decode ``[start, stop)`` rows straight off the id arrays.

        Array slices are C-level copies, so iteration never holds a
        buffer export over the (growable) columns.
        """
        issuers = self._issuers.values
        logs = self._logs.values
        days = self._days.values
        months = self._months.values
        serial_iter: Iterable[int]
        low = self._serial_low[start:stop]
        if self._serial_overflow:
            overflow = self._serial_overflow
            serial_iter = (
                overflow.get(i, v) for i, v in enumerate(low, start)
            )
        else:
            serial_iter = low
        return map(
            CertRecord,
            map(issuers.__getitem__, self._issuer_ids[start:stop]),
            serial_iter,
            map(days.__getitem__, self._day_ids[start:stop]),
            map(logs.__getitem__, self._log_ids[start:stop]),
            map(months.__getitem__, self._month_ids[start:stop]),
            map(bool, self._precert_bits[start:stop]),
            self._names[start:stop],
        )

    def view(self, start: int = 0, stop: Optional[int] = None) -> "CorpusView":
        return CorpusView(self, start, len(self) if stop is None else stop)

    def approx_bytes(self) -> int:
        """Estimated resident bytes of the column storage.

        Sums the array buffers, the interner value tables (each
        distinct string/date is stored exactly once by construction),
        the serial overflow table, and the names column (shared name
        tuples counted once per distinct object — the builders reuse
        the same tuple/string objects where sharing exists).
        """
        total = 0
        for ids in (
            self._issuer_ids,
            self._log_ids,
            self._day_ids,
            self._month_ids,
            self._serial_low,
            self._precert_bits,
        ):
            total += sys.getsizeof(ids)
        for interner in (self._issuers, self._logs, self._days, self._months):
            total += sys.getsizeof(interner.values)
            total += sum(sys.getsizeof(value) for value in interner.values)
        total += sys.getsizeof(self._serial_overflow)
        total += sum(
            sys.getsizeof(value) for value in self._serial_overflow.values()
        )
        total += sys.getsizeof(self._names)
        counted: Set[int] = set()
        for cell in self._names:
            if id(cell) in counted:
                continue
            counted.add(id(cell))
            total += sys.getsizeof(cell)
            for item in cell:
                if id(item) in counted:
                    continue
                counted.add(id(item))
                total += sys.getsizeof(item)
        return total

    def __reduce__(
        self,
    ) -> Tuple[Any, Tuple[Any, ...]]:
        """Pickle as decoded column tuples (pickle memoizes the shared
        strings), so payload size tracks rows + distinct values — the
        id arrays and interner indexes are rebuilt on load."""
        return (
            CertCorpus,
            (
                self.issuer_org[:],
                self.serial[:],
                self.day[:],
                self.log_name[:],
                self.month[:],
                self.is_precert[:],
                tuple(self._names),
            ),
        )


class CorpusView:
    """A zero-copy ``[start, stop)`` window over a corpus.

    In-process, a view is three words: a corpus reference plus the
    range bounds — iterating it decodes the parent columns directly.
    Crossing a process-pool boundary, the view pickles as *only its
    slice* of the columns (a standalone :class:`CertCorpus`), so shard
    payloads stay proportional to the shard, not the corpus.
    """

    __slots__ = ("corpus", "start", "stop")

    def __init__(self, corpus: CertCorpus, start: int, stop: int) -> None:
        if start < 0 or stop < start or stop > len(corpus):
            raise ValueError(
                f"invalid view range [{start}, {stop}) over "
                f"{len(corpus)} records"
            )
        self.corpus = corpus
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def iter_records(self) -> Iterator[CertRecord]:
        return self.corpus.iter_range(self.start, self.stop)

    def materialize(self) -> CertCorpus:
        """This window's records as a standalone (sliced) corpus."""
        corpus = self.corpus
        return CertCorpus(
            corpus.issuer_org[self.start : self.stop],
            corpus.serial[self.start : self.stop],
            corpus.day[self.start : self.stop],
            corpus.log_name[self.start : self.stop],
            corpus.month[self.start : self.stop],
            corpus.is_precert[self.start : self.stop],
            tuple(corpus.names[self.start : self.stop]),
        )

    def __reduce__(
        self,
    ) -> Tuple[Callable[[CertCorpus], "CorpusView"], Tuple[CertCorpus]]:
        return (_view_of, (self.materialize(),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorpusView([{self.start}, {self.stop}) of {len(self.corpus)})"


def _view_of(corpus: CertCorpus) -> CorpusView:
    """Unpickle helper: a full view over a materialized slice."""
    return CorpusView(corpus, 0, len(corpus))


def _record_build_metrics(
    corpus: CertCorpus, seconds: float, metrics: MetricsRegistry
) -> None:
    """Corpus build observability: time, size, and density gauges."""
    metrics.observe("dataset.corpus_build_seconds", seconds)
    metrics.set_gauge("dataset.corpus_records", len(corpus))
    if len(corpus):
        metrics.set_gauge(
            "dataset.bytes_per_record", corpus.approx_bytes() / len(corpus)
        )
