"""Counting-process survival data: types, validation, CSV I/O, transforms.

Subjects are represented as ordered (tstart, tstop] episodes with a status at
the stop time, an on-treatment flag, baseline covariates X(0) held on the
subject and time-dependent covariates X(t) held on the episode. Status codes
in files are 0 = censored / interval boundary, 1 = event, 2 = treatment
start. Datasets are immutable; every transform returns a new dataset.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum

from .errors import (
    DataError,
    MalformedRow,
    NegativeTime,
    NoObservationsAnywhere,
    NonContiguousEpisodes,
    UnknownCovariate,
)


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


RESERVED_COLUMNS = ("id", "tstart", "tstop", "status", "treated", "time")


@dataclass(frozen=True)
class CovariateSchema:
    """Declared covariate names, split into baseline and time-dependent.

    ``levels`` optionally maps a covariate to its category labels; values in
    files and profiles may then be given as labels and are stored as the
    label's index.
    """

    baseline: tuple = ()
    time_varying: tuple = ()
    time_unit: str = "years"
    levels: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "baseline", tuple(self.baseline))
        object.__setattr__(self, "time_varying", tuple(self.time_varying))
        overlap = set(self.baseline) & set(self.time_varying)
        if overlap:
            raise DataError(f"covariates declared both baseline and time-varying: {sorted(overlap)}")
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
            raise DataError(f"cannot parse value {raw!r} for covariate {name!r}") from None

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

    @property
    def treatment_time(self):
        """Time treatment started, or None if the subject was never treated."""
        for ep in self.episodes:
            if ep.status == Status.TREATMENT_START:
                return ep.tstop
        return None

    @property
    def follow_up_end(self) -> float:
        return self.episodes[-1].tstop

    def person_time(self) -> float:
        return sum(ep.tstop - ep.tstart for ep in self.episodes)


def _validate_subject(sub: SubjectRecord, schema: CovariateSchema):
    sid = sub.subject_id
    if not sub.episodes:
        raise DataError(f"subject {sid}: no episodes")
    if sub.episodes[0].tstart != 0.0:
        raise DataError(f"subject {sid}: first episode must start at time 0")
    seen_treatment = False
    for k, ep in enumerate(sub.episodes):
        if ep.tstart < 0 or ep.tstop < 0:
            raise NegativeTime(f"subject {sid}: negative time in episode {k}")
        if not ep.tstart < ep.tstop:
            raise DataError(f"subject {sid}: episode {k} has tstart >= tstop")
        if k > 0 and ep.tstart != sub.episodes[k - 1].tstop:
            raise NonContiguousEpisodes(
                f"subject {sid}: episode starting at {ep.tstart} does not "
                f"continue from {sub.episodes[k - 1].tstop}")
        if ep.status == Status.EVENT and k != len(sub.episodes) - 1:
            raise DataError(f"subject {sid}: event before the final episode")
        if ep.status == Status.TREATMENT_START:
            if seen_treatment:
                raise DataError(f"subject {sid}: more than one treatment start")
            if ep.treated:
                raise DataError(
                    f"subject {sid}: episode ending at treatment start must be untreated")
            seen_treatment = True
        elif seen_treatment and not ep.treated:
            raise DataError(
                f"subject {sid}: untreated episode after treatment start "
                "(treatment indicator must stay on once treatment began)")
        if ep.treated and not seen_treatment:
            raise DataError(
                f"subject {sid}: treated episode without a prior treatment start")
        unknown = set(ep.tv) - set(schema.time_varying)
        if unknown:
            raise UnknownCovariate(
                f"subject {sid}: episode covariates {sorted(unknown)} not in schema")
    missing = set(schema.baseline) - set(sub.baseline)
    if missing:
        raise DataError(f"subject {sid}: missing baseline covariates {sorted(missing)}")
    unknown = set(sub.baseline) - set(schema.baseline)
    if unknown:
        raise UnknownCovariate(f"subject {sid}: baseline covariates {sorted(unknown)} not in schema")


@dataclass(frozen=True)
class CountingProcessDataset:
    """Immutable collection of subjects plus their covariate schema."""

    subjects: tuple
    schema: CovariateSchema = field(default_factory=CovariateSchema)
    design: DesignFlavor = DesignFlavor.CONTINUES_AFTER_TREATMENT

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))
        object.__setattr__(self, "design", DesignFlavor(self.design))
        seen = set()
        for sub in self.subjects:
            if sub.subject_id in seen:
                raise DataError(f"duplicate subject id {sub.subject_id!r}")
            seen.add(sub.subject_id)
            _validate_subject(sub, self.schema)
            if self.design == DesignFlavor.STOPS_AT_TREATMENT:
                if any(ep.treated for ep in sub.episodes):
                    raise DataError(
                        f"subject {sub.subject_id}: treated person-time in a "
                        "stops-at-treatment design")

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def has_treatment_starts(self) -> bool:
        return any(ep.status == Status.TREATMENT_START
                   for sub in self.subjects for ep in sub.episodes)

    def person_time(self) -> float:
        return sum(sub.person_time() for sub in self.subjects)

    def iter_episodes(self):
        for sub in self.subjects:
            for ep in sub.episodes:
                yield sub, ep


# ---------------------------------------------------------------------------
# transforms


def split_at_treatment(ds: CountingProcessDataset) -> CountingProcessDataset:
    """Truncate every subject's follow-up at treatment start.

    The episode ending in a treatment start becomes the final one; episodes
    after it are dropped. Stops-at-treatment data are returned as they are:
    validation already rules out episodes after a treatment start there.
    """
    if ds.design == DesignFlavor.STOPS_AT_TREATMENT:
        return ds
    subjects = []
    for sub in ds.subjects:
        episodes = []
        for ep in sub.episodes:
            episodes.append(ep)
            if ep.status == Status.TREATMENT_START:
                break
        subjects.append(replace(sub, episodes=tuple(episodes)))
    return CountingProcessDataset(tuple(subjects), ds.schema,
                                  DesignFlavor.STOPS_AT_TREATMENT)


def compose_outcome(ds: CountingProcessDataset) -> CountingProcessDataset:
    """Recode the first of {event, treatment start} as the event.

    Follow-up ends at min(T, V); the combined endpoint carries the event
    status.
    """
    subjects = []
    for sub in ds.subjects:
        episodes = []
        for ep in sub.episodes:
            if ep.status == Status.TREATMENT_START:
                episodes.append(replace(ep, status=Status.EVENT))
                break
            episodes.append(ep)
            if ep.status == Status.EVENT:
                break
        subjects.append(replace(sub, episodes=tuple(episodes)))
    return CountingProcessDataset(tuple(subjects), ds.schema,
                                  DesignFlavor.STOPS_AT_TREATMENT)


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
    tv_names = ds.schema.time_varying
    if not tv_names:
        return ds

    first_obs = {name: [] for name in tv_names}
    for sub in ds.subjects:
        for name in tv_names:
            for ep in sub.episodes:
                v = ep.tv.get(name)
                if v is not None:
                    first_obs[name].append(v)
                    break

    medians = {}
    for name in tv_names:
        if first_obs[name]:
            medians[name] = statistics.median(first_obs[name])

    subjects = []
    changed = False
    for sub in ds.subjects:
        filled = {name: [ep.tv.get(name) for ep in sub.episodes] for name in tv_names}
        for name in tv_names:
            values = filled[name]
            if all(v is None for v in values):
                if name not in medians:
                    raise NoObservationsAnywhere(
                        f"covariate {name!r} has no observed value for any subject")
                if policy == ImputePolicy.LOCF:
                    raise DataError(
                        f"subject {sub.subject_id}: no observations of {name!r} "
                        "(use the median-fallback policy)")
                filled[name] = [medians[name]] * len(values)
                continue
            first = next(v for v in values if v is not None)
            last = first
            for k, v in enumerate(values):
                if v is None:
                    values[k] = last
                else:
                    last = v
        episodes = []
        for k, ep in enumerate(sub.episodes):
            tv = {name: filled[name][k] for name in tv_names}
            if tv != ep.tv:
                changed = True
                episodes.append(replace(ep, tv=tv))
            else:
                episodes.append(ep)
        subjects.append(replace(sub, episodes=tuple(episodes)))
    if not changed:
        return ds
    return CountingProcessDataset(tuple(subjects), ds.schema, ds.design)


# ---------------------------------------------------------------------------
# CSV I/O

_LONG_HEADER = ("id", "tstart", "tstop", "status", "treated")
_WIDE_HEADER = ("id", "time", "status")


def _parse_status(raw: str, line: int) -> Status:
    try:
        code = int(raw)
        return Status(code)
    except (ValueError, KeyError):
        raise MalformedRow(line, f"status must be 0, 1 or 2, got {raw!r}") from None


def _parse_float(raw: str, line: int, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise MalformedRow(line, f"cannot parse {what} {raw!r}") from None


def infer_design(subjects) -> DesignFlavor:
    """Continues-after-treatment if any treated person-time exists, else
    stops-at-treatment when a treatment start ends follow-up, else (no
    treatment at all) continues."""
    any_treated = any(ep.treated for sub in subjects for ep in sub.episodes)
    if any_treated:
        return DesignFlavor.CONTINUES_AFTER_TREATMENT
    any_start = any(ep.status == Status.TREATMENT_START
                    for sub in subjects for ep in sub.episodes)
    if any_start:
        return DesignFlavor.STOPS_AT_TREATMENT
    return DesignFlavor.CONTINUES_AFTER_TREATMENT


def ingest_csv(path, schema: CovariateSchema,
               design: DesignFlavor | None = None) -> CountingProcessDataset:
    """Read a counting-process CSV (long format) or a baseline-only wide file.

    Long header: ``id,tstart,tstop,status,treated,<covariates...>``; wide
    header: ``id,time,status,<covariates...>`` expands to one episode per
    subject. Missing time-dependent values are empty fields.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(1, "empty file") from None
        header = [h.strip() for h in header]
        if tuple(header[:5]) == _LONG_HEADER:
            wide, fixed = False, 5
        elif tuple(header[:3]) == _WIDE_HEADER:
            wide, fixed = True, 3
        else:
            raise MalformedRow(1, f"unrecognized header {header!r}")
        cov_cols = header[fixed:]
        unknown = set(cov_cols) - set(schema.names())
        if unknown:
            raise UnknownCovariate(f"columns {sorted(unknown)} not in schema")
        missing = set(schema.names()) - set(cov_cols)
        if missing:
            raise MalformedRow(1, f"schema covariates {sorted(missing)} missing from header")
        if wide and schema.time_varying:
            raise MalformedRow(1, "wide format cannot carry time-varying covariates")

        rows_by_id: dict = {}
        for line, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise MalformedRow(line, f"expected {len(header)} fields, got {len(row)}")
            sid = row[0].strip()
            if not sid:
                raise MalformedRow(line, "empty subject id")
            if wide:
                t = _parse_float(row[1], line, "time")
                status = _parse_status(row[2], line)
                tstart, tstop, treated = 0.0, t, False
            else:
                tstart = _parse_float(row[1], line, "tstart")
                tstop = _parse_float(row[2], line, "tstop")
                status = _parse_status(row[3], line)
                if row[4].strip() not in ("0", "1"):
                    raise MalformedRow(line, f"treated must be 0 or 1, got {row[4]!r}")
                treated = row[4].strip() == "1"
            if tstart < 0 or tstop < 0:
                raise NegativeTime(f"line {line}: negative time")
            if not tstart < tstop:
                raise MalformedRow(line, f"tstart {tstart} must be below tstop {tstop}")
            baseline, tv = {}, {}
            for name, raw in zip(cov_cols, row[fixed:]):
                raw = raw.strip()
                if name in schema.time_varying:
                    tv[name] = None if raw == "" else schema.encode(name, raw)
                else:
                    if raw == "":
                        raise MalformedRow(line, f"baseline covariate {name!r} is empty")
                    baseline[name] = schema.encode(name, raw)
            rows_by_id.setdefault(sid, []).append(
                (line, tstart, tstop, status, treated, baseline, tv))

    subjects = []
    for sid, rows in rows_by_id.items():
        rows.sort(key=lambda r: r[1])
        stops = {}
        for line, _, tstop, status, *_ in rows:
            if tstop in stops and {stops[tstop], status} == {Status.EVENT, Status.TREATMENT_START}:
                raise MalformedRow(
                    line, f"subject {sid}: event and treatment start tied at t={tstop}")
            stops[tstop] = status
        base = rows[0][5]
        for line, *_, b, _tv in rows:
            if b != base:
                raise MalformedRow(line, f"subject {sid}: baseline covariates vary across rows")
        episodes = tuple(Episode(tstart, tstop, status, treated, tv)
                         for _, tstart, tstop, status, treated, _, tv in rows)
        subjects.append(SubjectRecord(sid, episodes, base))

    if design is None:
        design = infer_design(subjects)
    return CountingProcessDataset(tuple(subjects), schema, design)


def write_csv(ds: CountingProcessDataset, path):
    """Write the long counting-process format; inverse of ``ingest_csv``."""
    schema = ds.schema
    header = list(_LONG_HEADER) + list(schema.names())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for sub in ds.subjects:
            for ep in sub.episodes:
                row = [sub.subject_id, repr(float(ep.tstart)), repr(float(ep.tstop)),
                       int(ep.status), int(ep.treated)]
                for name in schema.baseline:
                    row.append(_format_value(schema, name, sub.baseline[name]))
                for name in schema.time_varying:
                    v = ep.tv.get(name)
                    row.append("" if v is None else _format_value(schema, name, v))
                w.writerow(row)


def _format_value(schema, name, value):
    decoded = schema.decode(name, value)
    return decoded if isinstance(decoded, str) else repr(float(decoded))


def infer_schema(path, time_unit: str = "years") -> CovariateSchema:
    """Classify a file's covariate columns: constant within every subject is
    baseline, anything else time-varying."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        if tuple(header[:5]) == _LONG_HEADER:
            fixed = 5
        elif tuple(header[:3]) == _WIDE_HEADER:
            return CovariateSchema(baseline=tuple(header[3:]), time_unit=time_unit)
        else:
            raise MalformedRow(1, f"unrecognized header {header!r}")
        cov_cols = header[fixed:]
        values: dict = {}
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            sid = row[0].strip()
            for name, raw in zip(cov_cols, row[fixed:]):
                values.setdefault(name, {}).setdefault(sid, set()).add(raw.strip())
    baseline, tv = [], []
    for name in cov_cols:
        per_subject = values.get(name, {})
        constant = all(len(v) == 1 and "" not in v for v in per_subject.values())
        (baseline if constant else tv).append(name)
    return CovariateSchema(baseline=tuple(baseline), time_varying=tuple(tv),
                           time_unit=time_unit)
