"""Shared hand-built datasets.

D1: four subjects with one binary covariate, events at 1, 2, 4, censored 3.
D2: three subjects, no covariates, two events tied at t=1, one at t=2.
D3: events at 1 and 3, censored at 2, no covariates.
D4: event 1, treatment start 2, event 3, censored 4 (competing structure).
"""

import multiprocessing

import pytest

from predictimands import simulate
from predictimands.data import (
    CovariateSchema,
    DesignFlavor,
    Episode,
    Status,
    SubjectRecord,
)
from tests.records import dataset


@pytest.fixture(autouse=True)
def dataset_cache(tmp_path, monkeypatch):
    """The CLI's dataset cache directory, in each test's own ``tmp_path``, so
    that no test reads entries another test or the user stored."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "predictimands"


@pytest.fixture(autouse=True)
def truth_memo(monkeypatch):
    """An empty memo of the Monte Carlo truths ``validate`` draws, for each
    test, so that no test reads a truth another test drew."""
    monkeypatch.setattr(simulate, "_truths", {})
    return simulate._truths


@pytest.fixture(autouse=True)
def no_child_left():
    """No test leaves a child process running: ``validate`` forks its
    Monte Carlo truth and its replicates."""
    yield
    assert multiprocessing.active_children() == []


def one_episode_subject(sid, time, status, treated=False, **baseline):
    return SubjectRecord(sid, (Episode(0.0, time, status, treated),), baseline)


@pytest.fixture
def d1():
    schema = CovariateSchema(baseline=("x",))
    subjects = (
        one_episode_subject("1", 1.0, Status.EVENT, x=1.0),
        one_episode_subject("2", 2.0, Status.EVENT, x=0.0),
        one_episode_subject("3", 3.0, Status.CENSORED, x=1.0),
        one_episode_subject("4", 4.0, Status.EVENT, x=0.0),
    )
    return dataset(subjects, schema)


@pytest.fixture
def d2():
    subjects = (
        one_episode_subject("1", 1.0, Status.EVENT),
        one_episode_subject("2", 1.0, Status.EVENT),
        one_episode_subject("3", 2.0, Status.EVENT),
    )
    return dataset(subjects, CovariateSchema())


@pytest.fixture
def d3():
    subjects = (
        one_episode_subject("1", 1.0, Status.EVENT),
        one_episode_subject("2", 2.0, Status.CENSORED),
        one_episode_subject("3", 3.0, Status.EVENT),
    )
    return dataset(subjects, CovariateSchema())


@pytest.fixture
def d4():
    subjects = (
        one_episode_subject("1", 1.0, Status.EVENT),
        one_episode_subject("2", 2.0, Status.TREATMENT_START),
        one_episode_subject("3", 3.0, Status.EVENT),
        one_episode_subject("4", 4.0, Status.CENSORED),
    )
    return dataset(subjects, CovariateSchema(), DesignFlavor.STOPS_AT_TREATMENT)
