"""Shared fixtures and the acceptance-summary reporter."""

import importlib.resources
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pjmp
import pjmp.cli
from pjmp import IntensityFunction, SynapticNetwork, network_from_json, simulate, spectral

# one record per acceptance criterion: (number, label, passed)
ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, label: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((number, label, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:>2} [{status}] {label}")


@pytest.fixture(autouse=True)
def fresh_seeded_walk():
    """Forget the last seeded walk, so no test reads a path an earlier one walked."""
    simulate._seeded_walk.cache_clear()


@pytest.fixture(autouse=True)
def fresh_solved_law():
    """Forget the last solved chain, so no test reads a law an earlier one solved."""
    pjmp.cli._solved_law.cache_clear()


# exit rates 2.2 and 2.3 at box 1, law (23, 22)/45: the kernel I + Q/Lambda
# has an eigenvalue near -1, and power iteration on it never settled
NEAR_EQUAL_RATES = {"n": 2, "weights": [[0, 0], [1, 0]], "intensity": {"delta": 2.2, "slope": 0.1}}


@pytest.fixture
def cross_check_calls(monkeypatch) -> dict:
    """Counts of the calls of the stationary law's two cross-check solvers, by name."""
    calls = {}
    for name in ("_lu_nullspace_solve", "_power_iteration_solve"):
        def counted(q_supp, name=name, solve=getattr(spectral, name)):
            calls[name] += 1
            return solve(q_supp)

        calls[name] = 0
        monkeypatch.setattr(spectral, name, counted)
    return calls


def child_env() -> dict:
    """Environment for a ``python -m pjmp`` child process.

    The directory that holds the imported ``pjmp`` package goes first on
    ``PYTHONPATH``, as an absolute path, so the child imports the same pjmp
    as this process whatever its working directory. Inherited entries follow.
    """
    env = dict(os.environ)
    package_root = str(Path(pjmp.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + inherited if inherited else "")
    return env


@pytest.fixture(scope="session")
def ring2() -> SynapticNetwork:
    """Two neurons, unit weights both ways, delta = slope = 1.5."""
    path = importlib.resources.files("pjmp") / "data" / "ring2.json"
    return network_from_json(str(path))


@pytest.fixture(scope="session")
def zero2() -> SynapticNetwork:
    """Two neurons with no interaction at all."""
    return SynapticNetwork(
        n_neurons=2,
        weights=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        intensity=IntensityFunction(delta=Fraction(3, 2), slope=Fraction(3, 2)),
    )


@pytest.fixture(scope="session")
def single1() -> SynapticNetwork:
    """A single neuron; every firing resets it to zero."""
    return SynapticNetwork(
        n_neurons=1,
        weights=((Fraction(0),),),
        intensity=IntensityFunction(delta=Fraction(3, 2), slope=Fraction(3, 2)),
    )


def make_random_net(seed: int, n: int = 3) -> SynapticNetwork:
    """Randomized small network with rational weights and delta, slope > 1."""
    rng = np.random.default_rng(seed)
    choices = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)]
    while True:
        w = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    w[i][j] = choices[rng.integers(0, len(choices))]
        if all(sum(row) > 0 for row in w):
            break
    delta = Fraction(int(rng.integers(11, 21)), 10)
    slope = Fraction(int(rng.integers(11, 21)), 10)
    return SynapticNetwork(
        n_neurons=n,
        weights=tuple(tuple(row) for row in w),
        intensity=IntensityFunction(delta=delta, slope=slope),
    )


@pytest.fixture(scope="session")
def random_nets():
    return [make_random_net(seed) for seed in (1, 2, 3)]
