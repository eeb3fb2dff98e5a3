"""Counting-process survival data: columns, validation, CSV I/O, transforms.

A dataset holds one row per (tstart, tstop] episode. ``ids`` lists the
subjects in order of first appearance and subject s owns rows
``offsets[s]:offsets[s + 1]``, in time order. Per row there are ``tstart``,
``tstop``, ``status`` (at tstop: 0 = censored / interval boundary, 1 = event,
2 = treatment start), ``treated`` (the indicator in force on the row) and
one float column per covariate in ``columns``: a baseline value X(0) repeats
on each of its subject's rows, a time-dependent X(t) belongs to its row and
NaN marks a missing one.

Validation runs once, when a dataset is built from columns or read from
CSV, and names the first failing subject or line. Datasets are immutable;
the transforms select rows or fill columns without validating again. A
dataset remembers what is derived from its rows alone, for as long as it
lives: its ``split_at_treatment`` and ``compose_outcome`` views, and the
risk-set slots ``cox`` builds over the event times of each status code.

Record boundary: datasets are built from columns only, by the
``CountingProcessDataset`` constructor or ``ingest_csv``. ``ds.subjects`` is
a read-only view of the columns as ``SubjectRecord``s of ``Episode``s, for
tests and tools; no module of the package reads it.

CSV text is read and written ``_BLOCK`` rows at a time. ``ingest_csv``
splits the file with one ``csv.reader`` and parses each block of rows with
``_parse``, which also reports errors. ``write_columns`` and ``write_csv``
share one block formatter, ``_texts``: it formats each distinct number of a
block's array column once, as its ``repr``, and the block's rows are joined
with the bytes ``csv.writer`` writes.
"""

from __future__ import annotations

import csv
import gc
import io
import itertools
import math
import operator
import re
import statistics
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    MalformedRow,
    NegativeTime,
    NoObservationsAnywhere,
    NonContiguousEpisodes,
    UnknownCovariate,
)


_UNPARSED = "cannot parse value {!r} for covariate {!r}"


class Status(IntEnum):
    CENSORED = 0
    EVENT = 1
    TREATMENT_START = 2


class DesignFlavor(str, Enum):
    #: follow-up on the event stops when treatment starts (no treated person-time)
    STOPS_AT_TREATMENT = "stops"
    #: subjects remain under observation for the event after starting treatment
    CONTINUES_AFTER_TREATMENT = "continues"


class ImputePolicy(str, Enum):
    LOCF = "locf"
    MEDIAN_FALLBACK = "median-fallback"


@dataclass(frozen=True)
class CovariateSchema:
    """Declared covariate names, split into baseline and time-dependent.

    ``levels`` optionally maps a covariate to its category labels, each one
    nonempty and listed once; values in files and profiles may then be given
    as labels and are stored as the label's index.
    """

    baseline: tuple = ()
    time_varying: tuple = ()
    levels: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "baseline", tuple(self.baseline))
        object.__setattr__(self, "time_varying", tuple(self.time_varying))
        repeated = sorted({name for name in self.names() if self.names().count(name) > 1})
        if repeated:
            raise DataError(f"covariates listed more than once, as baseline or "
                            f"time-varying: {repeated}")
        for name, labels in self.levels.items():
            if name not in self.names():
                raise DataError(f"levels declared for unknown covariate {name!r}")
            labels = list(labels)
            if "" in labels:
                raise DataError(f"levels of covariate {name!r} include an empty label")
            for k, label in enumerate(labels):
                if label in labels[:k]:
                    raise DataError(f"levels of covariate {name!r} list {label!r} "
                                    f"more than once")

    def names(self) -> tuple:
        return self.baseline + self.time_varying

    def encode(self, name: str, raw: str) -> float:
        """Parse a covariate value, mapping declared labels to their index."""
        return _encode(self.levels.get(name, ()), name, raw)

    def decode(self, name: str, value: float):
        if name in self.levels:
            labels = list(self.levels[name])
            idx = int(round(value))
            if 0 <= idx < len(labels) and idx == value:
                return labels[idx]
        return value


def _encode(labels, name: str, raw: str) -> float:
    """``raw`` as the index of its label in ``labels``, else as a float; a
    DataError naming the covariate ``name`` if it is neither."""
    labels = list(labels)
    if raw in labels:
        return float(labels.index(raw))
    try:
        return float(raw)
    except ValueError:
        raise DataError(_UNPARSED.format(raw, name)) from None


@dataclass(frozen=True)
class Episode:
    """One (tstart, tstop] interval of follow-up.

    ``status`` describes what happened at tstop; ``treated`` is the treatment
    indicator in force on the interval; ``tv`` holds the time-dependent
    covariate values in force (None = not yet imputed).
    """

    tstart: float
    tstop: float
    status: Status
    treated: bool = False
    tv: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "status", Status(self.status))


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    episodes: tuple
    baseline: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "episodes", tuple(self.episodes))


class CountingProcessDataset:
    """Immutable counting-process rows plus their covariate schema; equal
    when their columns are equal.

    Built from the columns described above, ``columns`` mapping each
    covariate of ``schema`` to its column. Raises a DataError for columns
    that do not fit together or hold values outside their domain, and for
    the first violation of the counting-process contract.
    """

    def __init__(self, schema: CovariateSchema, design: DesignFlavor, ids, offsets,
                 tstart, tstop, status, treated, columns):
        if set(columns) != set(schema.names()):
            raise UnknownCovariate(f"columns {sorted(columns)} are not the schema's "
                                   f"covariates {sorted(schema.names())}")
        self._init(schema, design, ids, offsets, tstart, tstop, status, treated, columns,
                   copy=True)
        rows = (self.tstart, self.tstop, self.status, self.treated, *self.columns.values())
        if (self.offsets.shape != (self.n_subjects + 1,) or self.offsets[0] != 0
                or (np.diff(self.offsets) < 0).any()
                or any(col.shape != (self.offsets[-1],) for col in rows)):
            raise DataError(f"{self.n_subjects} subjects need {self.n_subjects + 1} offsets "
                            "rising from 0 to the length of every column")
        if not (np.isfinite([self.tstart, self.tstop]).all()
                and np.isin(self.status, list(Status)).all()):
            raise DataError("times must be finite and status codes 0, 1 or 2")
        for name, col in self.columns.items():
            for r in np.flatnonzero(np.isinf(col))[:1]:
                raise DataError(f"subject {self.ids[self.row_subject[r]]}: covariate "
                                f"{name!r} must be finite or missing, got {col[r]}")
        for name in schema.baseline:
            col = self.columns[name]
            if not np.array_equal(col, col[self.offsets[self.row_subject]], equal_nan=True):
                raise DataError(f"baseline covariate {name!r} varies within a subject")
        _validate(self)

    def _init(self, schema, design, ids, offsets, tstart, tstop, status,
              treated, columns, copy):
        self.schema, self.design, self.ids = schema, DesignFlavor(design), tuple(ids)
        self.offsets = _frozen(offsets, int, copy)
        self.tstart, self.tstop = _frozen(tstart, float, copy), _frozen(tstop, float, copy)
        self.status, self.treated = _frozen(status, int, copy), _frozen(treated, bool, copy)
        self.columns = {name: _frozen(columns[name], float, copy) for name in schema.names()}
        self._memo = {}

    @classmethod
    def _of(cls, *columns) -> "CountingProcessDataset":
        """A dataset from columns, as the constructor takes them, that are
        known to be valid: nothing is checked. An array of the right dtype
        is adopted, not copied, and made read-only: no caller writes to it
        after handing it over."""
        ds = cls.__new__(cls)
        ds._init(*columns, copy=False)
        return ds

    def _replace(self, keep=slice(None), status=None, design=None,
                 columns=None) -> "CountingProcessDataset":
        """The rows selected by the mask ``keep``, optionally with a new
        status column, design or covariate columns."""
        counts = np.bincount(self.row_subject[keep], minlength=self.n_subjects)
        status = self.status if status is None else status
        return self._of(self.schema, design or self.design, self.ids,
                        np.concatenate([[0], np.cumsum(counts)]),
                        self.tstart[keep], self.tstop[keep], status[keep],
                        self.treated[keep],
                        {name: col[keep] for name, col in (columns or self.columns).items()})

    def __eq__(self, other):
        if not isinstance(other, CountingProcessDataset):
            return NotImplemented
        return ((self.schema, self.design, self.ids) == (other.schema, other.design, other.ids)
                and all(np.array_equal(getattr(self, a), getattr(other, a))
                        for a in ("offsets", "tstart", "tstop", "status", "treated"))
                and all(np.array_equal(col, other.columns[name], equal_nan=True)
                        for name, col in self.columns.items()))

    __hash__ = None

    @property
    def n_subjects(self) -> int:
        return len(self.ids)

    @property
    def n_rows(self) -> int:
        return self.tstop.size

    @cached_property
    def row_subject(self) -> np.ndarray:
        """Index of each row's subject."""
        return _frozen(np.repeat(np.arange(self.n_subjects), np.diff(self.offsets)), int,
                       copy=False)

    def _remember(self, key, build):
        """What ``build()`` derives from the rows, built on the first call for
        ``key`` and kept for as long as the dataset lives; a build that
        raises keeps nothing."""
        if key not in self._memo:
            # of two threads that both build, the first to store wins
            self._memo.setdefault(key, build())
        return self._memo[key]

    @property
    def has_treatment_starts(self) -> bool:
        return bool((self.status == Status.TREATMENT_START).any())

    def person_time(self) -> float:
        return float((self.tstop - self.tstart).sum())

    def covariate(self, name: str) -> np.ndarray:
        """The column of ``name``; a DataError for a covariate outside the
        schema or a missing time-dependent value."""
        if name not in self.columns:
            raise DataError(f"covariate {name!r} not in schema")
        col = self.columns[name]
        missing = np.flatnonzero(np.isnan(col) & (name in self.schema.time_varying))
        if missing.size:
            r = missing[0]
            raise DataError(
                f"subject {self.ids[self.row_subject[r]]}: missing value for "
                f"{name!r} at ({float(self.tstart[r])}, {float(self.tstop[r])}] "
                "(impute first)")
        return col

    @cached_property
    def subjects(self) -> tuple:
        """The rows as ``SubjectRecord``s: a view derived from the columns."""
        tstart, tstop, status, treated = (
            a.tolist() for a in (self.tstart, self.tstop, self.status, self.treated))
        values = {name: col.tolist() for name, col in self.columns.items()}

        def episode(r):
            tv = {name: None if math.isnan(values[name][r]) else values[name][r]
                  for name in self.schema.time_varying}
            return Episode(tstart[r], tstop[r], status[r], treated[r], tv)

        return tuple(
            SubjectRecord(sid, tuple(map(episode, range(lo, hi))),
                          {name: values[name][lo] for name in self.schema.baseline})
            for sid, lo, hi in zip(self.ids, self.offsets.tolist(), self.offsets[1:].tolist()))


def _frozen(values, dtype, copy=True) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: a copy, or with
    ``copy=False`` the array itself when it already has that dtype."""
    out = np.array(values, dtype=dtype, copy=copy or None)
    out.flags.writeable = False
    return out


def _count_before(ds: CountingProcessDataset, mask: np.ndarray) -> np.ndarray:
    """For each row, how many earlier rows of its subject have ``mask`` set."""
    total = np.concatenate([[0], np.cumsum(mask)])
    return total[:-1] - total[ds.offsets[ds.row_subject]]


def _raise_first(failures):
    """Raise the error of the (key, error) pair with the smallest key."""
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def _validate(ds: CountingProcessDataset):
    """Check the counting-process contract and raise its first violation:
    subjects in order; within one, its id and start, then episode by
    episode, then its baseline covariates and design."""
    failures, first_of = [], {}
    repeats = [s for s, sid in enumerate(ds.ids) if first_of.setdefault(sid, s) != s]
    for s in repeats[:1]:
        failures.append(((s, 0, 0, 0), DataError(f"duplicate subject id {ds.ids[s]!r}")))
    sizes = np.diff(ds.offsets)
    for s in np.flatnonzero(sizes == 0)[:1]:
        failures.append(((s, 0, 0, 1), DataError(f"subject {ds.ids[s]}: no episodes")))
    first, last = np.zeros(ds.n_rows, bool), np.zeros(ds.n_rows, bool)
    first[ds.offsets[:-1][sizes > 0]] = True
    last[ds.offsets[1:][sizes > 0] - 1] = True
    tstart, tstop, treated = ds.tstart, ds.tstop, ds.treated
    starts = ds.status == Status.TREATMENT_START
    seen = _count_before(ds, starts) > 0
    prev_stop = np.concatenate([[math.nan], tstop[:-1]])
    missing = np.zeros(ds.n_rows, bool)
    for name in ds.schema.baseline:
        missing |= np.isnan(ds.columns[name])

    def sid(r):
        return ds.ids[ds.row_subject[r]]

    def k(r):
        return r - ds.offsets[ds.row_subject[r]]

    checks = [
        (first & (tstart != 0.0), 0, 2, lambda r: DataError(
            f"subject {sid(r)}: first episode must start at time 0")),
        ((tstart < 0) | (tstop < 0), 1, 0, lambda r: NegativeTime(
            f"subject {sid(r)}: negative time in episode {k(r)}")),
        (~(tstart < tstop), 1, 1, lambda r: DataError(
            f"subject {sid(r)}: episode {k(r)} has tstart >= tstop")),
        (~first & (tstart != prev_stop), 1, 2, lambda r: NonContiguousEpisodes(
            f"subject {sid(r)}: episode starting at {float(tstart[r])} does not "
            f"continue from {float(prev_stop[r])}")),
        ((ds.status == Status.EVENT) & ~last, 1, 3, lambda r: DataError(
            f"subject {sid(r)}: event before the final episode")),
        (starts & seen, 1, 4, lambda r: DataError(
            f"subject {sid(r)}: more than one treatment start")),
        (starts & treated, 1, 5, lambda r: DataError(
            f"subject {sid(r)}: episode ending at treatment start must be untreated")),
        (~starts & seen & ~treated, 1, 6, lambda r: DataError(
            f"subject {sid(r)}: untreated episode after treatment start "
            "(treatment indicator must stay on once treatment began)")),
        (treated & ~seen & ~starts, 1, 7, lambda r: DataError(
            f"subject {sid(r)}: treated episode without a prior treatment start")),
        # baseline values repeat on their subject's rows: r is its first row
        (missing, 2, 0, lambda r: DataError(
            f"subject {sid(r)}: missing baseline covariates "
            f"{sorted(n for n in ds.schema.baseline if math.isnan(ds.columns[n][r]))}")),
        (treated & (ds.design == DesignFlavor.STOPS_AT_TREATMENT), 2, 2,
         lambda r: DataError(f"subject {sid(r)}: treated person-time in a "
                             "stops-at-treatment design")),
    ]
    for mask, phase, check, error in checks:
        for r in np.flatnonzero(mask)[:1]:
            key = (ds.row_subject[r], phase, r if phase == 1 else 0, check)
            failures.append((key, error(r)))
    _raise_first(failures)


# ---------------------------------------------------------------------------
# transforms


def split_at_treatment(ds: CountingProcessDataset) -> CountingProcessDataset:
    """Truncate every subject's follow-up at treatment start.

    The row ending in a treatment start becomes the subject's last; rows
    after it are dropped. Stops-at-treatment data are returned as they are:
    validation already rules out rows after a treatment start there. Other
    data remember their view: every call returns the same object.
    """
    if ds.design == DesignFlavor.STOPS_AT_TREATMENT:
        return ds
    def split():
        keep = _count_before(ds, ds.status == Status.TREATMENT_START) == 0
        return ds._replace(keep, design=DesignFlavor.STOPS_AT_TREATMENT)

    return ds._remember("split", split)


def compose_outcome(ds: CountingProcessDataset) -> CountingProcessDataset:
    """Recode the first of {event, treatment start} as the event.

    Follow-up ends at min(T, V); the combined endpoint carries the event
    status. The data remember their view: every call returns the same object.
    """
    def composed():
        starts = ds.status == Status.TREATMENT_START
        return ds._replace(_count_before(ds, starts) == 0,
                           status=np.where(starts, Status.EVENT, ds.status),
                           design=DesignFlavor.STOPS_AT_TREATMENT)

    return ds._remember("composed", composed)


def impute_tv_covariates(ds: CountingProcessDataset,
                         policy: ImputePolicy = ImputePolicy.MEDIAN_FALLBACK
                         ) -> CountingProcessDataset:
    """Fill missing time-dependent covariate values.

    Within a subject, gaps are filled by carrying the last observed value
    forward (leading gaps take the first observed value). Under the
    median-fallback policy, a subject with no observation at all receives the
    cohort median of first observations; under plain LOCF that subject is an
    error.
    """
    policy = ImputePolicy(policy)
    index, heads = np.arange(ds.n_rows), ds.offsets[:-1]
    first, end = heads[ds.row_subject], ds.offsets[1:][ds.row_subject]
    failures, filled = [], {}
    for j, name in enumerate(ds.schema.time_varying):
        col = ds.columns[name]
        seen = ~np.isnan(col)
        # the last observation at or before each row, else the first after it
        before = np.maximum.accumulate(np.where(seen, index, -1))
        after = np.minimum.accumulate(np.where(seen, index, ds.n_rows)[::-1])[::-1]
        source = np.where(before >= first, before, after)
        empty = source >= end
        filled[name] = col[np.minimum(source, ds.n_rows - 1)]
        if empty.any():
            s = ds.row_subject[empty.argmax()]
            first_obs = col[source[heads][~empty[heads]]]
            if not first_obs.size:
                failures.append(((s, j), NoObservationsAnywhere(
                    f"covariate {name!r} has no observed value for any subject")))
            elif policy == ImputePolicy.LOCF:
                failures.append(((s, j), DataError(
                    f"subject {ds.ids[s]}: no observations of {name!r} "
                    "(use the median-fallback policy)")))
            else:
                filled[name][empty] = statistics.median(first_obs.tolist())
    _raise_first(failures)
    return ds._replace(columns={**ds.columns, **filled})


# ---------------------------------------------------------------------------
# CSV I/O

_LONG_HEADER = ("id", "tstart", "tstop", "status", "treated")
_WIDE_HEADER = ("id", "time", "status")
#: the rule a status or treated token must pass, and the message if it
#: fails; times are read by float()
_CODES = {
    "status": (lambda raw: Status(int(raw)), "status must be 0, 1 or 2, got {!r}"),
    "treated": (lambda raw: ("0", "1").index(raw.strip()), "treated must be 0 or 1, got {!r}"),
}


#: rows read and parsed at a time: beyond the dataset's arrays, a read holds
#: the strings of one block
_BLOCK = 2048


@contextmanager
def reading(path, error=DataError):
    """The UTF-8 text file at ``path``, open for reading after any leading
    byte-order mark; a file that cannot be opened, decoded or split into CSV
    fields raises ``error`` naming the path."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise error(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


@contextmanager
def _collector_off():
    """The cyclic garbage collector off, then back in its previous state. A
    block's row lists, which hold only strings, would otherwise set off
    collections that find nothing to free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _read(path):
    """The rows of the counting-process CSV at ``path``, as ``_Rows`` to be
    read while the file is open, with the garbage collector off."""
    with _collector_off(), reading(path) as fh:
        yield _Rows(fh)


class _Rows:
    """The rows of a counting-process CSV below its header, read once by
    ``blocks`` in blocks of up to ``_BLOCK`` rows.

    One ``csv.reader`` splits the header and then every row (a quoted field
    may span lines), and ``_parse``, the only code that reports an error,
    parses each block. A row's line number counts CSV records, the header
    being line 1, so it is the physical line unless a quoted field before it
    spans lines.

    The rows end at the first non-blank row with the wrong number of fields;
    its error is then ``short_row``, kept so that the rows before it report
    theirs first. A fault in reading the file before that row is raised.
    ``index`` maps each subject id to its code, in order of first appearance.
    """

    def __init__(self, fh):
        self._reader = csv.reader(fh)
        header = next(self._reader, None)
        if header is None:
            raise MalformedRow(1, "empty file")
        header = [h.strip() for h in header]
        self.wide = tuple(header[:3]) == _WIDE_HEADER
        if not self.wide and tuple(header[:5]) != _LONG_HEADER:
            raise MalformedRow(1, f"unrecognized header {header!r}")
        for j, name in enumerate(header):
            if not name or name in header[:j]:
                problem = f"repeats the name {name!r}" if name else "has no name"
                raise MalformedRow(1, f"header column {j + 1} {problem}")
        self.header, self.fixed = header, 3 if self.wide else 5
        self.index, self.short_row = {}, None
        # per covariate not yet seen to vary or be empty, each subject's first value
        self._firsts = {} if self.wide else {name: {} for name in header[5:]}

    def blocks(self, labelled=None, baseline=()):
        """Per block, the line numbers, subject codes and parsed fields of
        its non-blank rows, and the error of its first failing row or None,
        as ``_parse`` gives them with ``labelled`` and ``baseline``."""
        width, line, labelled = len(self.header), 2, labelled or {}
        while True:
            rows, fault = [], None
            try:
                rows.extend(itertools.islice(self._reader, _BLOCK))
            except (csv.Error, UnicodeDecodeError) as exc:
                fault = exc  # unless a row of the wrong length ends the rows first
            full, lines = len(rows) == _BLOCK, np.arange(line, line + len(rows))
            line += len(rows)
            if set(map(len, rows)) - {width}:
                end = next((k for k, row in enumerate(rows)
                            if len(row) != width and any(map(str.strip, row))), len(rows))
                if end < len(rows):
                    self.short_row = MalformedRow(int(lines[end]),
                                                  f"expected {width} fields, got {len(rows[end])}")
                keep = [k for k in range(end) if len(rows[k]) == width]
                lines, rows = lines[keep], [rows[k] for k in keep]
            if fault is not None and self.short_row is None:
                raise fault
            columns = [list(map(str.strip, col)) if j == 0 or j >= self.fixed else col
                       for j, col in enumerate(list(zip(*rows)) or [()] * width)]
            if "" in columns[0]:  # blank rows of the right length
                keep = [k for k, sid in enumerate(columns[0])
                        if sid or any(col[k].strip() for col in columns)]
                columns, lines = [[col[k] for k in keep] for col in columns], lines[keep]
            subject = self._codes(columns[0])
            self._classify(subject, dict(zip(self.header[self.fixed:], columns[self.fixed:])))
            yield (lines, subject, *_parse(self, lines, columns, labelled, baseline))
            if self.short_row is not None or not full:
                return

    def _codes(self, ids) -> np.ndarray:
        """The subject code of each id, coding ids not seen before."""
        for sid in dict.fromkeys(ids):
            self.index.setdefault(sid, len(self.index))
        return np.fromiter(map(self.index.__getitem__, ids), int, len(ids))

    def _classify(self, subject, tokens: dict):
        """Drop from ``_firsts`` each covariate that is empty in this block
        or differs from its subject's first value, as stripped strings;
        ``tokens`` maps covariates to their stripped tokens, and holds at
        least those still in ``_firsts``."""
        codes = subject.tolist() if self._firsts else ()
        for name in list(self._firsts):
            firsts, values = self._firsts[name], tokens[name]
            if "" in values or list(map(firsts.setdefault, codes, values)) != values:
                del self._firsts[name]

    def schema(self) -> CovariateSchema:
        """The covariate schema of the rows iterated: a covariate never empty
        and constant within every subject is baseline, any other
        time-varying; a wide file is all baseline."""
        names = self.header[self.fixed:]
        if self.wide:
            return CovariateSchema(baseline=tuple(names))
        return CovariateSchema(baseline=tuple(n for n in names if n in self._firsts),
                               time_varying=tuple(n for n in names if n not in self._firsts))


def _column(tokens, parse) -> tuple:
    """``parse`` of each token as floats, NaN where it raises a ValueError or
    DataError, and the mask of those tokens. ``float`` parses the column in
    one pass, another rule each distinct token once."""
    n = len(tokens)
    if parse is float:
        with suppress(ValueError):
            return np.fromiter(map(float, tokens), float, n), np.zeros(n, bool)
    values, rejected = dict.fromkeys(tokens, math.nan), set()
    for token in values:
        try:
            values[token] = parse(token)
        except (ValueError, DataError):
            rejected.add(token)
    return (np.fromiter(map(values.__getitem__, tokens), float, n),
            np.fromiter(map(rejected.__contains__, tokens), bool, n) if rejected
            else np.zeros(n, bool))


def _empty(tokens) -> np.ndarray:
    """Which of ``tokens`` are empty strings."""
    if "" not in tokens:
        return np.zeros(len(tokens), bool)
    return np.fromiter(map(operator.not_, tokens), bool, len(tokens))


def _parse(rows: _Rows, lines, columns, labelled: dict, baseline) -> tuple:
    """A block of ``rows`` parsed: each field column but the id as floats,
    in header order, and the error of the block's first failing row at its
    first failing check, or None. Covariates named in ``labelled`` map its labels
    to their index; those in ``baseline``, and all of a wide file's, must not
    be empty."""
    header, fixed = rows.header, rows.fixed
    # each check is a mask over the rows, noted in the order a row is
    # checked: the first failing row reports its first failing check
    failures, checks, n = [], itertools.count(), lines.size

    def fail(mask, message, error=MalformedRow):
        check = next(checks)
        if mask.any():
            r = int(mask.argmax())
            failures.append(((r, check), error(int(lines[r]), message(r))))

    parsed = {}
    fail(_empty(columns[0]), lambda r: "empty subject id")
    for name, raw in zip(header[1:fixed], columns[1:fixed]):
        parse, message = _CODES.get(name, (float, f"cannot parse {name} {{!r}}"))
        parsed[name], rejected = _column(raw, parse)
        fail(rejected, lambda r: message.format(raw[r]))
    tstart, tstop = parsed.get("tstart", np.zeros(n)), parsed.get("tstop", parsed.get("time"))
    col = np.where(np.isfinite(tstart) & (not rows.wide), 2, 1)
    with np.errstate(over="ignore"):  # a sum past the float range is inf, and not finite
        fail(~np.isfinite(tstart + tstop),
             lambda r: f"{header[col[r]]} must be finite, got {columns[col[r]][r]!r}")
    fail((tstart < 0) | (tstop < 0), lambda r: "negative time",
         lambda line, message: NegativeTime(f"line {line}: {message}"))
    fail(~(tstart < tstop),
         lambda r: f"tstart {float(tstart[r])} must be below tstop {float(tstop[r])}")
    covariates = []
    for name, raw in zip(header[fixed:], columns[fixed:]):
        empty = _empty(raw)
        if rows.wide or name in baseline:
            fail(empty, lambda r: f"baseline covariate {name!r} is empty")
        values, rejected = _column(
            raw, partial(_encode, labelled[name], name) if name in labelled else float)
        covariates.append(values)
        fail(rejected & ~empty, lambda r: _UNPARSED.format(raw[r], name))
        fail(~empty & ~np.isfinite(values),
             lambda r: f"covariate {name!r} must be finite, got {raw[r]!r}")
    return ([*parsed.values(), *covariates],
            min(failures, key=lambda f: f[0], default=(None, None))[1])


def ingest_csv(path, schema: CovariateSchema | None = None,
               design: DesignFlavor | None = None,
               levels: dict | None = None) -> CountingProcessDataset:
    """Read a counting-process CSV (long format) or a baseline-only wide file.

    Long header: ``id,tstart,tstop,status,treated,<covariates...>``; wide
    header: ``id,time,status,<covariates...>`` expands to one episode per
    subject. Missing time-dependent values are empty fields; a non-finite
    time or covariate (``nan``, ``inf``) is a MalformedRow. Without a
    ``schema``, the covariates are classified as ``infer_schema`` does, from
    the same read; ``levels`` replaces the schema's category labels. Without
    a ``design``, data with treatment starts but no treated rows stop at
    treatment, and all other data continue.
    """
    # the schema's rules that the rows need, known before the read: an
    # inferred schema has no labels and, in a long file, no empty baseline
    # covariate (``_parse`` takes every covariate of a wide file as baseline)
    labelled = levels or (schema.levels if schema is not None else {})
    baseline = schema.baseline if schema is not None else ()
    arrays, first_error = [], None
    with _read(path) as rows:
        for lines, subject, fields, error in rows.blocks(labelled, baseline):
            arrays.append([lines, subject, *fields])
            first_error = first_error or error  # blocks come in row order
    if schema is None:
        schema = rows.schema()
    if levels:
        schema = replace(schema, levels=levels)
    cov_cols = rows.header[rows.fixed:]
    unknown = set(cov_cols) - set(schema.names())
    if unknown:
        raise UnknownCovariate(f"columns {sorted(unknown)} not in schema")
    missing = set(schema.names()) - set(cov_cols)
    if missing:
        raise MalformedRow(1, f"schema covariates {sorted(missing)} missing from header")
    if rows.wide and schema.time_varying:
        raise MalformedRow(1, "wide format cannot carry time-varying covariates")
    if first_error is not None:
        raise first_error
    if rows.short_row is not None:
        raise rows.short_row

    # each column joined, then put in dataset order: rows grouped by subject
    # in order of first appearance, then by tstart
    lines, subject, *fields = map(np.concatenate, zip(*arrays))
    del arrays
    if rows.wide:  # one untreated episode per subject, from time 0
        zeros = np.zeros(lines.size)
        fields = [zeros, *fields[:2], zeros, *fields[2:]]
    index = rows.index
    offsets = np.concatenate([[0], np.cumsum(np.bincount(subject, minlength=len(index)))])
    if not _in_order(subject, fields[0]):  # as every file write_csv writes is
        order = np.lexsort((fields[0], subject))
        lines, *fields = (values[order] for values in (lines, *fields))
        del order
    if design is None:
        only_starts = (fields[2] == Status.TREATMENT_START).any() and not fields[3].any()
        design = (DesignFlavor.STOPS_AT_TREATMENT if only_starts
                  else DesignFlavor.CONTINUES_AFTER_TREATMENT)
    ds = CountingProcessDataset._of(schema, design, index, offsets, *fields[:4],
                                    dict(zip(cov_cols, fields[4:])))
    del subject, fields  # the dataset adopted the float columns

    failures, sub, n = [], ds.row_subject, ds.n_rows
    # an event and a treatment start at the same stop time of one subject
    by_stop = (np.arange(n) if _in_order(sub, ds.tstop)
               else np.lexsort((np.arange(n), ds.tstop, sub)))
    prev, cur = by_stop[:-1], by_stop[1:]
    tied = cur[(sub[prev] == sub[cur]) & (ds.tstop[prev] == ds.tstop[cur])
               & (ds.status[prev] * ds.status[cur] == Status.EVENT * Status.TREATMENT_START)]
    for r in np.sort(tied)[:1]:
        failures.append(((sub[r], 0, r), MalformedRow(
            int(lines[r]), f"subject {ds.ids[sub[r]]}: event and treatment start "
                           f"tied at t={float(ds.tstop[r])}")))
    first = ds.offsets[sub]
    varies = np.zeros(n, bool)
    for name in schema.baseline:
        varies |= ds.columns[name] != ds.columns[name][first]
    varies &= first != np.arange(n)
    for r in np.flatnonzero(varies)[:1]:
        failures.append(((sub[r], 1, r), MalformedRow(
            int(lines[r]), f"subject {ds.ids[sub[r]]}: baseline covariates vary across rows")))
    _raise_first(failures)
    _validate(ds)
    return ds


def _in_order(major, minor) -> bool:
    """Whether rows are in order by ``major``, then by ``minor``: what a
    stable sort by the two would leave as it is."""
    step = np.diff(major)
    return bool(((step > 0) | ((step == 0) & (np.diff(minor) >= 0))).all())


def write_csv(ds: CountingProcessDataset, path):
    """Write the long counting-process format; inverse of ``ingest_csv``."""
    schema = ds.schema

    def cell(name):
        # a missing time-dependent value is an empty field, a label its text
        if name in schema.levels:
            return lambda v: "" if math.isnan(v) else schema.decode(name, v)
        return lambda v: "" if math.isnan(v) else v

    names = schema.names()
    _write(path, _LONG_HEADER + names, _blocks(
        [ds.row_subject, ds.tstart, ds.tstop, ds.status, ds.treated,
         *(ds.columns[name] for name in names)],
        [ds.ids.__getitem__, None, None, None, int, *map(cell, names)]))


def write_columns(path, header, columns):
    """Write a UTF-8 CSV file, creating its directory if missing: the
    ``header`` line, then the rows whose fields are ``columns``, two or more
    sequences of one length, with the bytes ``csv.writer`` writes. A column
    of numbers is best given as an array: ``_BLOCK`` rows at a time, each
    of its distinct values is formatted once."""
    _write(path, header, _blocks(columns, [None] * len(columns)))


def _write(path, header, texts):
    """Write the ``header`` line and then each of ``texts`` to ``path``."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(texts)


def _blocks(columns, cells):
    """The lines of the rows whose fields are ``columns``, ``_BLOCK`` rows
    at a time, each column formatted by ``_texts`` with its ``cells``."""
    for lo in range(0, len(columns[0]), _BLOCK):
        yield _joined([_texts(col[lo:lo + _BLOCK], cell) for col, cell in zip(columns, cells)])


def _joined(columns) -> str:
    """CSV lines, each ended by ``\\r\\n``, of the rows whose formatted fields
    are given as ``columns``."""
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def _texts(values, cell=None) -> list:
    """The fields ``csv.writer`` writes for ``values`` in rows of two or
    more fields, as ``_cells`` formats them: any other sequence value by
    value, and an array of numbers once per distinct value, after ``cell``
    (if given) maps the value to what is written; floats are told apart by
    their bits, so ``-0.0``, ``0.0`` and each NaN keep their own."""
    if not isinstance(values, np.ndarray):
        return _cells(values)
    if values.dtype.kind not in "biuf":
        return _cells(values.tolist())
    if values.dtype.kind == "f":
        values = values.astype(float, copy=False)
    keys, index = np.unique(values.view(np.uint64) if values.dtype == float else values,
                            return_inverse=True)
    distinct = keys.view(values.dtype).tolist()
    return np.array(_cells(list(map(cell, distinct)) if cell else distinct),
                    object)[index].tolist()


def _cells(values) -> list:
    """A column of values formatted as ``csv.writer`` writes them in a row
    of two or more fields: None as empty, a float, int or other non-string
    as its ``str`` (a float's is its ``repr``) and a string quoted if it
    must be."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map(float.__repr__, values))
    if kinds != {str}:
        values = [v if isinstance(v, str) else "" if v is None else str(v) for v in values]
    distinct = dict.fromkeys(values)
    if not _QUOTABLE.search("".join(distinct)):
        return values
    for text in distinct:  # each distinct string through csv.writer once
        buf = io.StringIO()
        csv.writer(buf).writerow((text, ""))
        distinct[text] = buf.getvalue()[:-len(",\r\n")]
    return list(map(distinct.__getitem__, values))


#: the characters that make csv.writer quote a field
_QUOTABLE = re.compile('[,"\r\n]')


def infer_schema(path) -> CovariateSchema:
    """The covariate schema ``ingest_csv`` infers for the file at ``path``."""
    with _read(path) as rows:
        for _ in rows.blocks():
            pass
    if rows.short_row is not None:
        raise rows.short_row
    return rows.schema()
