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
the transforms select rows or fill columns without validating again.

Record boundary: datasets are built from columns only, by the
``CountingProcessDataset`` constructor or ``ingest_csv``. ``ds.subjects`` is
a read-only view of the columns as ``SubjectRecord``s of ``Episode``s, for
tests and tools; no module of the package reads it.
"""

from __future__ import annotations

import csv
import gc
import itertools
import math
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

    ``levels`` optionally maps a covariate to its category labels; values in
    files and profiles may then be given as labels and are stored as the
    label's index.
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
        for name in self.levels:
            if name not in self.names():
                raise DataError(f"levels declared for unknown covariate {name!r}")

    def names(self) -> tuple:
        return self.baseline + self.time_varying

    def encode(self, name: str, raw: str) -> float:
        """Parse a covariate value, mapping declared labels to their index."""
        if name in self.levels:
            labels = list(self.levels[name])
            if raw in labels:
                return float(labels.index(raw))
        try:
            return float(raw)
        except ValueError:
            raise DataError(_UNPARSED.format(raw, name)) from None

    def decode(self, name: str, value: float):
        if name in self.levels:
            labels = list(self.levels[name])
            idx = int(round(value))
            if 0 <= idx < len(labels) and idx == value:
                return labels[idx]
        return value


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
        self._init(schema, design, ids, offsets, tstart, tstop, status, treated, columns)
        rows = (self.tstart, self.tstop, self.status, self.treated, *self.columns.values())
        if (self.offsets.shape != (self.n_subjects + 1,) or self.offsets[0] != 0
                or (np.diff(self.offsets) < 0).any()
                or any(col.shape != (self.offsets[-1],) for col in rows)):
            raise DataError(f"{self.n_subjects} subjects need {self.n_subjects + 1} offsets "
                            "rising from 0 to the length of every column")
        if not (np.isfinite([self.tstart, self.tstop]).all()
                and np.isin(self.status, list(Status)).all()):
            raise DataError("times must be finite and status codes 0, 1 or 2")
        for name in schema.baseline:
            col = self.columns[name]
            if not np.array_equal(col, col[self.offsets[self.row_subject]], equal_nan=True):
                raise DataError(f"baseline covariate {name!r} varies within a subject")
        _validate(self)

    def _init(self, schema, design, ids, offsets, tstart, tstop, status,
              treated, columns):
        self.schema, self.design, self.ids = schema, DesignFlavor(design), tuple(ids)
        self.offsets = _frozen(offsets, int)
        self.tstart, self.tstop = _frozen(tstart, float), _frozen(tstop, float)
        self.status, self.treated = _frozen(status, int), _frozen(treated, bool)
        self.columns = {name: _frozen(columns[name], float) for name in schema.names()}

    @classmethod
    def _of(cls, *columns) -> "CountingProcessDataset":
        """A dataset from columns, as the constructor takes them, that are
        known to be valid: nothing is checked."""
        ds = cls.__new__(cls)
        ds._init(*columns)
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
        return _frozen(np.repeat(np.arange(self.n_subjects), np.diff(self.offsets)), int)

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


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
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
    validation already rules out rows after a treatment start there.
    """
    if ds.design == DesignFlavor.STOPS_AT_TREATMENT:
        return ds
    keep = _count_before(ds, ds.status == Status.TREATMENT_START) == 0
    return ds._replace(keep, design=DesignFlavor.STOPS_AT_TREATMENT)


def compose_outcome(ds: CountingProcessDataset) -> CountingProcessDataset:
    """Recode the first of {event, treatment start} as the event.

    Follow-up ends at min(T, V); the combined endpoint carries the event
    status.
    """
    starts = ds.status == Status.TREATMENT_START
    keep = _count_before(ds, starts) == 0
    return ds._replace(keep, status=np.where(starts, Status.EVENT, ds.status),
                       design=DesignFlavor.STOPS_AT_TREATMENT)


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


@contextmanager
def reading(path, error=DataError):
    """The UTF-8 text file at ``path``, open for reading; a file that cannot
    be opened, decoded or split into CSV fields raises ``error`` naming the
    path."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise error(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


@contextmanager
def _collector_off():
    """The cyclic garbage collector off, then back in its previous state. A
    large file's row lists, which hold only strings, would otherwise set off
    repeated full collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_off()
def _read(path) -> tuple:
    """Header, wide-format flag, line numbers and fields as columns (id and
    covariates stripped) of the non-blank rows of a counting-process CSV,
    and the error of the first row with the wrong number of fields, where
    the rows end: returned, so the rows before it report theirs first."""
    with reading(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedRow(1, "empty file")
        header = [h.strip() for h in header]
        wide = tuple(header[:3]) == _WIDE_HEADER
        if not wide and tuple(header[:5]) != _LONG_HEADER:
            raise MalformedRow(1, f"unrecognized header {header!r}")
        for j, name in enumerate(header):
            if not name or name in header[:j]:
                problem = f"repeats the name {name!r}" if name else "has no name"
                raise MalformedRow(1, f"header column {j + 1} {problem}")
        rows, fault = [], None
        try:
            rows.extend(reader)
        except (csv.Error, UnicodeDecodeError) as exc:
            fault = exc  # unless a row of the wrong length ends the rows first
        width, short_row, lines = len(header), None, np.arange(2, len(rows) + 2)
        if set(map(len, rows)) - {width}:
            end = next((k for k, row in enumerate(rows)
                        if len(row) != width and any(map(str.strip, row))), len(rows))
            if end < len(rows):
                short_row = MalformedRow(end + 2, f"expected {width} fields, got {len(rows[end])}")
            lines = lines[[k for k in range(end) if len(rows[k]) == width]]
            rows = [rows[k - 2] for k in lines.tolist()]
        if fault is not None and short_row is None:
            raise fault
    fixed = 3 if wide else 5
    columns = [list(map(str.strip, col)) if j == 0 or j >= fixed else col
               for j, col in enumerate(list(zip(*rows)) or [()] * width)]
    if "" in columns[0]:  # blank rows of the right length
        keep = [k for k, sid in enumerate(columns[0])
                if sid or any(col[k].strip() for col in columns)]
        columns, lines = [[col[k] for k in keep] for col in columns], lines[keep]
    return header, wide, lines, columns, short_row


def _column(tokens, parse) -> tuple:
    """``parse`` of each token as floats, NaN where it raises a ValueError or
    DataError, and the mask of those tokens. ``float`` parses the column in
    one pass, another rule each distinct token once."""
    if parse is float:
        with suppress(ValueError):
            return np.fromiter(map(float, tokens), float, len(tokens)), np.zeros(len(tokens), bool)
    values = dict.fromkeys(tokens)
    for token in values:
        with suppress(ValueError, DataError):
            values[token] = parse(token)
    rejected = {token for token, value in values.items() if value is None}
    return (np.array(list(map(values.get, tokens)), float),
            np.fromiter(map(rejected.__contains__, tokens), bool, len(tokens)))


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
    header, wide, lines, columns, short_row = _read(path)
    if schema is None:
        schema = _classify(header, wide, columns)
    if levels:
        schema = replace(schema, levels=levels)
    fixed = 3 if wide else 5
    cov_cols = header[fixed:]
    unknown = set(cov_cols) - set(schema.names())
    if unknown:
        raise UnknownCovariate(f"columns {sorted(unknown)} not in schema")
    missing = set(schema.names()) - set(cov_cols)
    if missing:
        raise MalformedRow(1, f"schema covariates {sorted(missing)} missing from header")
    if wide and schema.time_varying:
        raise MalformedRow(1, "wide format cannot carry time-varying covariates")

    # each check is a mask over the rows, noted in the order a row is
    # checked: the first failing row reports its first failing check
    failures, checks, n = [], itertools.count(), lines.size

    def fail(mask, message, error=MalformedRow):
        check = next(checks)
        if mask.any():
            r = int(mask.argmax())
            failures.append(((r, check), error(int(lines[r]), message(r))))

    ids, parsed = columns[0], {}
    fail(~np.fromiter(map(bool, ids), bool, n), lambda r: "empty subject id")
    for name, raw in zip(header[1:fixed], columns[1:fixed]):
        parse, message = _CODES.get(name, (float, f"cannot parse {name} {{!r}}"))
        parsed[name], rejected = _column(raw, parse)
        fail(rejected, lambda r: message.format(raw[r]))
    tstart, treated = parsed.get("tstart", np.zeros(n)), parsed.get("treated", np.zeros(n))
    tstop = parsed.get("tstop", parsed.get("time"))
    col = np.where(np.isfinite(tstart) & (not wide), 2, 1)
    with np.errstate(over="ignore"):  # a sum past the float range is inf, and not finite
        fail(~np.isfinite(tstart + tstop),
             lambda r: f"{header[col[r]]} must be finite, got {columns[col[r]][r]!r}")
    fail((tstart < 0) | (tstop < 0), lambda r: "negative time",
         lambda line, message: NegativeTime(f"line {line}: {message}"))
    fail(~(tstart < tstop),
         lambda r: f"tstart {float(tstart[r])} must be below tstop {float(tstop[r])}")
    covariates = {}
    for name, raw in zip(cov_cols, columns[fixed:]):
        empty = ~np.fromiter(map(bool, raw), bool, n)
        if name in schema.baseline:
            fail(empty, lambda r: f"baseline covariate {name!r} is empty")
        covariates[name], rejected = _column(
            raw, partial(schema.encode, name) if name in schema.levels else float)
        fail(rejected & ~empty, lambda r: _UNPARSED.format(raw[r], name))
        fail(~empty & ~np.isfinite(covariates[name]),
             lambda r: f"covariate {name!r} must be finite, got {raw[r]!r}")
    _raise_first(failures)
    if short_row is not None:
        raise short_row

    # rows grouped by subject in order of first appearance, then by tstart
    index = dict(zip(dict.fromkeys(ids), itertools.count()))
    subject = np.fromiter(map(index.__getitem__, ids), int, n)
    order = np.lexsort((tstart, subject))
    lines, status, treated = lines[order], parsed["status"][order], treated[order]
    if design is None:
        only_starts = (status == Status.TREATMENT_START).any() and not treated.any()
        design = (DesignFlavor.STOPS_AT_TREATMENT if only_starts
                  else DesignFlavor.CONTINUES_AFTER_TREATMENT)
    ds = CountingProcessDataset._of(
        schema, design, index, np.cumsum([0, *np.bincount(subject, minlength=len(index))]),
        tstart[order], tstop[order], status, treated,
        {name: col[order] for name, col in covariates.items()})

    failures, sub, n = [], ds.row_subject, ds.n_rows
    # an event and a treatment start at the same stop time of one subject
    by_stop = np.lexsort((np.arange(n), ds.tstop, sub))
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


def write_csv(ds: CountingProcessDataset, path):
    """Write the long counting-process format; inverse of ``ingest_csv``."""
    schema = ds.schema
    fields = [[ds.ids[s] for s in ds.row_subject.tolist()], ds.tstart.tolist(),
              ds.tstop.tolist(), ds.status.tolist(), ds.treated.astype(int).tolist()]
    for name in schema.names():
        # a missing time-dependent value is an empty field
        fields.append(["" if math.isnan(v) else schema.decode(name, v)
                       for v in ds.columns[name].tolist()])
    write_rows(path, _LONG_HEADER + schema.names(), zip(*fields))


def write_rows(path, header, rows):
    """Write a UTF-8 CSV file, creating its directory if missing: the
    ``header`` line, then ``rows`` of strings, ints and floats, each float
    as its ``repr``."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def infer_schema(path) -> CovariateSchema:
    """The covariate schema ``ingest_csv`` infers for the file at ``path``."""
    header, wide, _, columns, short_row = _read(path)
    if short_row is not None:
        raise short_row
    return _classify(header, wide, columns)


def _classify(header, wide, columns) -> CovariateSchema:
    """A covariate column that is never empty and constant within every
    subject is baseline, any other time-varying; a wide file is all
    baseline. Values are compared as the stripped strings of the file."""
    if wide:
        return CovariateSchema(baseline=tuple(header[3:]))
    ids, baseline, tv = columns[0], [], []
    for name, values in zip(header[5:], columns[5:]):
        last = dict(zip(ids, values))  # each subject's last value
        constant = "" not in values and list(map(last.get, ids)) == values
        (baseline if constant else tv).append(name)
    return CovariateSchema(baseline=tuple(baseline), time_varying=tuple(tv))
