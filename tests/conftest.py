"""Shared fixtures.

The expensive artifacts (full-resolution solves and lattice reference
boundaries) are built once per session and reused by the module tests and
the acceptance suite.  Each fixture records its own wall-clock build time
so the acceptance tests can account runtime budgets honestly.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from stopbound import bounds as bounds_mod
from stopbound import fredholm, oracle, solver
from stopbound.problem import builtin


def _setup(p, n_nodes=60, n_c=40, iterations=3):
    t0 = time.perf_counter()
    grid = fredholm.BoundaryGrid.uniform(p, n_nodes)
    cgrid = fredholm.CGrid.for_problem(p, n_c)
    history = []
    env = bounds_mod.iterate(p, grid.nodes, cgrid, iterations, collect=history)
    return SimpleNamespace(
        problem=p,
        grid=grid,
        cgrid=cgrid,
        envelope=env,
        history=history,
        env_seconds=time.perf_counter() - t0,
    )


def _solve(setup, seed_mode="asymptotic"):
    t0 = time.perf_counter()
    report = solver.solve(setup.problem, setup.cgrid, setup.envelope, seed_mode)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def linear_problem():
    return builtin("linear")


@pytest.fixture(scope="session")
def put_problem():
    return builtin("american_put", rho=1.0, theta=0.5)


@pytest.fixture(scope="session")
def linear_setup(linear_problem):
    return _setup(linear_problem)


@pytest.fixture(scope="session")
def put_setup(put_problem):
    return _setup(put_problem)


@pytest.fixture(scope="session")
def linear_solution(linear_setup):
    report, seconds = _solve(linear_setup)
    return SimpleNamespace(report=report, seconds=seconds, **vars(linear_setup))


@pytest.fixture(scope="session")
def put_solution(put_setup):
    report, seconds = _solve(put_setup)
    return SimpleNamespace(report=report, seconds=seconds, **vars(put_setup))


@pytest.fixture(scope="session")
def put_solution_midpoint(put_setup):
    report, seconds = _solve(put_setup, seed_mode="envelope_midpoint")
    return SimpleNamespace(report=report, seconds=seconds, **vars(put_setup))


@pytest.fixture(scope="session")
def linear_oracle(linear_problem):
    t0 = time.perf_counter()
    ref = oracle.refined_boundary(linear_problem, -10.0, 2000, 2000)
    return SimpleNamespace(ref=ref, seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def put_oracle(put_problem):
    t0 = time.perf_counter()
    ref = oracle.refined_boundary(put_problem, -4.0, 2000, 3000)
    return SimpleNamespace(ref=ref, seconds=time.perf_counter() - t0)


def interval_gaps(ref, nodes, values):
    """Distance from each segment value to its oracle-implied interval."""
    d_lo, d_hi, truncated = oracle.d_intervals(ref, nodes)
    d = values[:-1]
    gap = np.maximum(np.maximum(d - d_hi, d_lo - d), 0.0)
    return gap, truncated
