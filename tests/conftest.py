"""Shared fixtures for the crowddm test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.schema import SchemaBuilder
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.workers.pool import WorkerPool


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def uniform_pool():
    return WorkerPool.uniform(12, accuracy=0.9, seed=11)


@pytest.fixture
def hetero_pool():
    return WorkerPool.heterogeneous(20, seed=22)


@pytest.fixture
def platform(uniform_pool):
    return SimulatedPlatform(uniform_pool, seed=33)


@pytest.fixture
def hetero_platform(hetero_pool):
    return SimulatedPlatform(hetero_pool, seed=44)


@pytest.fixture
def people_schema():
    return (
        SchemaBuilder()
        .string("name", nullable=False)
        .integer("age")
        .crowd_string("hometown")
        .key("name")
        .build()
    )


def make_choice_tasks(n, labels=("a", "b", "c"), seed=0, difficulty=0.0):
    """n single-choice tasks with seeded random truths."""
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n):
        truth = labels[int(rng.integers(len(labels)))]
        tasks.append(
            Task(
                TaskType.SINGLE_CHOICE,
                question=f"q{i}",
                options=tuple(labels),
                truth=truth,
                difficulty=difficulty,
            )
        )
    return tasks


def abandoning_engine(config, abandon_rate, retry_limit=0):
    """A CrowdEngine on *config* whose workers abandon each assignment with
    probability *abandon_rate*, re-posted at most *retry_limit* times."""
    from dataclasses import replace

    from repro.core.engine import CrowdEngine

    engine = CrowdEngine(config)
    engine.platform.attach_scheduler(
        replace(engine.scheduler.config, abandon_rate=abandon_rate, retry_limit=retry_limit)
    )
    return engine


@pytest.fixture
def choice_tasks():
    return make_choice_tasks(60, seed=5)
