"""Acceptance criteria, one test each, with a summary line per criterion.

Each test exercises its criterion at the stated tolerance and runtime budget
and registers a PASS/FAIL line that the terminal summary prints at the end
of the run.
"""

import importlib.resources
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from pjmp import (
    admissible_lambda,
    apply_generator,
    assemble_generator,
    carre_du_champ,
    check_lyapunov_pointwise,
    enumerate_states,
    ergodic_average,
    intensity_at,
    jump_map,
    jump_window_probabilities,
    lambda0_product,
    lyapunov_constants,
    network_from_json,
    path_method_C0,
    poincare_constant,
    semigroup_poincare_report,
    stationary,
    talagrand_verdict,
    total_intensity,
    variance_and_energy,
)
from conftest import child_env, record_acceptance

RING2_PATH = str(importlib.resources.files("pjmp") / "data" / "ring2.json")


class _Budget:
    """Tracks wall time of one criterion against its stated cap."""

    def __init__(self, seconds: float):
        self.cap = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.cap, f"runtime {elapsed:.1f}s exceeded the {self.cap}s budget"


def _register(number, label):
    def hook(passed):
        record_acceptance(number, label, passed)

    return hook


@pytest.fixture(scope="module")
def ring2_m(ring2):
    space = enumerate_states(ring2, ring2.zero_state(), 34.0)
    gen = assemble_generator(ring2, space)
    return space, gen, stationary(gen)


def test_criterion_1_carre_du_champ_identity(ring2, random_nets):
    done = _register(1, "carre-du-champ identity exact to 1e-12 on all enumerated states")
    budget = _Budget(5.0)
    try:
        rng = np.random.default_rng(2024)
        cases = [(ring2, 20.0)] + [(net, 6.0) for net in random_nets]
        for net, m_box in cases:
            space = enumerate_states(net, net.zero_state(), m_box)
            closure = set(space.states)
            for x in space.states:
                for i in range(net.n_neurons):
                    closure.add(jump_map(net, x, i))
            closure = sorted(closure, key=lambda s: s.numerators)
            for _ in range(100):
                table = dict(zip(closure, rng.standard_normal(len(closure))))
                f = table.__getitem__
                f_sq = lambda y: table[y] ** 2
                for x in space.states:
                    gamma = carre_du_champ(net, f, x)
                    ident = 0.5 * (
                        apply_generator(net, f_sq, x) - 2.0 * f(x) * apply_generator(net, f, x)
                    )
                    rel = abs(gamma - ident) / max(abs(gamma), abs(ident), 1e-300)
                    assert rel <= 1e-12, (net.n_neurons, x.numerators, rel)
        budget.check()
    except Exception:
        done(False)
        raise
    done(True)


def _mc_window(net, x, i, s_values, n, seed):
    """Vectorized two-stage race: no-jump and exactly-one-jump frequencies."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    total = total_intensity(net, x)
    rates = np.array([intensity_at(net, x, j) for j in range(net.n_neurons)])
    cuts = np.cumsum(rates) / total
    total_after = total_intensity(net, jump_map(net, x, i))
    tau1 = rng.exponential(1.0 / total, n)
    u = rng.random(n)
    lo = 0.0 if i == 0 else cuts[i - 1]
    fired_i = (u >= lo) & (u < cuts[i])
    tau2 = rng.exponential(1.0 / total_after, n)
    p_none = np.array([(tau1 > s).mean() for s in s_values])
    p_one = np.array([((tau1 <= s) & fired_i & (tau1 + tau2 > s)).mean() for s in s_values])
    return p_none, p_one


def test_criterion_2_window_probabilities_vs_monte_carlo(ring2):
    done = _register(2, "window probabilities vs 1e6-replica Monte Carlo; peak on grid")
    budget = _Budget(60.0)
    try:
        n = 1_000_000
        points = [
            ([0, 0], 0, 1.0),
            ([0, 0], 1, 0.5),
            ([1, 0], 0, 0.3),  # equal-totals branch
            ([1, 0], 1, 1.0),
            ([0, 2], 1, 0.7),
        ]
        for k, (coords, i, s) in enumerate(points):
            x = ring2.state(coords)
            w = jump_window_probabilities(ring2, x, i, s)
            p_none_hat, p_one_hat = _mc_window(ring2, x, i, [s], n, seed=100 + k)
            for exact, est in ((w.p_no_jump, p_none_hat[0]), (w.p_one_jump, p_one_hat[0])):
                se = math.sqrt(max(est * (1 - est), 1e-12) / n)
                assert abs(exact - est) <= 4 * se, (coords, i, s, exact, est)

        # peak location: common random numbers across a 100-point grid
        x = ring2.zero_state()
        t_peak = jump_window_probabilities(ring2, x, 0, 0.0).t_peak
        grid = np.linspace(0.05, 0.55, 100)
        _p_none, p_one = _mc_window(ring2, x, 0, grid, n, seed=321)
        s_hat = float(grid[int(np.argmax(p_one))])
        step = float(grid[1] - grid[0])
        assert abs(s_hat - t_peak) <= step, (s_hat, t_peak, step)
        budget.check()
    except Exception:
        done(False)
        raise
    done(True)


def test_criterion_3_stationarity(ring2):
    done = _register(3, "stationary law: solver agreement, residual, ergodic average")
    budget = _Budget(60.0)
    try:
        space = enumerate_states(ring2, ring2.zero_state(), 10.0)
        gen = assemble_generator(ring2, space)
        mu = stationary(gen)
        assert mu.dense_tv is not None and mu.dense_tv <= 1e-10
        assert mu.power_tv is not None and mu.power_tv <= 1e-10
        assert mu.residual <= 1e-10

        space_m = enumerate_states(ring2, ring2.zero_state(), 34.0)
        mu_m = stationary(assemble_generator(ring2, space_m))
        target = mu_m.expectation(space_m.totals())
        est = ergodic_average(ring2, lambda y: y.total(), 50.0, 3000.0, seed=2718)
        assert abs(est.mean - target) <= 4 * est.std_error, (est.mean, target, est.std_error)
        budget.check()
    except Exception:
        done(False)
        raise
    done(True)


def test_criterion_4_lyapunov_drift(ring2):
    done = _register(4, "drift constants exact and pointwise slack nonnegative")
    budget = _Budget(5.0)
    try:
        cert = lyapunov_constants(ring2, 0.8)
        assert cert.theta == 1.2
        assert cert.b == 10.2
        assert cert.m == 34.0
        space = enumerate_states(ring2, ring2.zero_state(), 2.0 * cert.m)
        min_slack = min(check_lyapunov_pointwise(ring2, cert, x) for x in space.states)
        assert min_slack >= -1e-12, min_slack
        budget.check()
    except Exception:
        done(False)
        raise
    done(True)


def test_criterion_5_invariant_poincare(ring2, random_nets, ring2_m):
    done = _register(5, "optimal constant: domination, oracle sup, sanity chain, path bound")
    budget = _Budget(120.0)
    try:
        space, gen, mu = ring2_m
        gap = poincare_constant(mu)
        rng = np.random.default_rng(99)
        sup_ratio = 0.0
        for _ in range(1000):
            f = rng.standard_normal(len(space))
            var, energy = variance_and_energy(mu, f)
            assert var <= gap.c_opt * energy + 1e-12
            if energy > 0:
                sup_ratio = max(sup_ratio, var / energy)
        assert sup_ratio <= gap.c_opt + 1e-12
        var_s, en_s = variance_and_energy(mu, gap.optimizer)
        assert abs(var_s / en_s - gap.c_opt) <= 1e-6 * gap.c_opt

        # at box 1 this chain has two states and the rates 0.7 and 2.3
        two = network_from_json(
            {"n": 2, "weights": [[0, 1], [0, 0]], "intensity": {"delta": 0.7, "slope": 1.6}}
        )
        mu2 = stationary(assemble_generator(two, enumerate_states(two, two.zero_state(), 1.0)))
        gap2 = poincare_constant(mu2)
        assert abs(gap2.c_opt - 1.0 / 3.0) <= 1e-10

        assert path_method_C0(mu).c0 >= gap.c_opt
        for net in random_nets:
            sp_r = enumerate_states(net, net.zero_state(), 8.0)
            gen_r = assemble_generator(net, sp_r)
            mu_r = stationary(gen_r)
            gap_r = poincare_constant(mu_r)
            assert path_method_C0(mu_r).c0 >= gap_r.c_opt
        budget.check()
    except Exception:
        done(False)
        raise
    done(True)


def test_criterion_6_concentration_pipeline(ring2, ring2_m):
    done = _register(6, "admissible rate, stable prefactor, certified tail domination")
    budget = _Budget(60.0)
    try:
        space, gen, mu = ring2_m
        gap = poincare_constant(mu)
        adm = admissible_lambda(mu, gap.c_opt, margin=0.1)
        assert 0.85 <= adm.q <= 0.95, adm.q

        lam0_a = lambda0_product(gap.c_opt, adm.c3, adm.lam, tol=1e-12)
        lam0_b = lambda0_product(gap.c_opt, adm.c3, adm.lam, tol=1e-14)
        assert abs(lam0_a - lam0_b) <= 1e-10 * lam0_a

        report = talagrand_verdict(adm, mu, range(1, 13))
        assert report.passed
        budget.check()
    except Exception:
        done(False)
        raise
    done(True)


def test_criterion_7_semigroup_growth_orders(ring2, ring2_m):
    done = _register(7, "measured weighted-inequality constants within growth caps")
    budget = _Budget(300.0)
    try:
        space, gen, mu = ring2_m
        report = semigroup_poincare_report(mu, suite_size=50, seed=7, inner_frac=0.5)
        assert len(report.t_grid) == 4
        assert report.t_grid[0] == pytest.approx(report.t1)
        assert report.slope_d1 is None or report.slope_d1 <= 3.25, report.slope_d1
        assert report.slope_d2 is None or report.slope_d2 <= 2.25, report.slope_d2
        assert report.outside_term_max <= 1e-12
        assert report.outside_one_term_ok
        assert report.fit_violation <= 1e-9
        budget.check()
    except Exception:
        done(False)
        raise
    done(True)


def test_criterion_8_truncation_robustness(ring2, ring2_m):
    done = _register(8, "box doubling moves the mean and the constant by < 1%")
    budget = _Budget(120.0)
    try:
        space_m, gen_m, mu_m = ring2_m
        mean_m = mu_m.expectation(space_m.totals())
        c_m = poincare_constant(mu_m).c_opt

        space_2m = enumerate_states(ring2, ring2.zero_state(), 68.0)
        gen_2m = assemble_generator(ring2, space_2m)
        mu_2m = stationary(gen_2m)
        mean_2m = mu_2m.expectation(space_2m.totals())
        c_2m = poincare_constant(mu_2m).c_opt

        assert abs(mean_m - mean_2m) / mean_m < 0.01
        assert abs(c_m - c_2m) / c_m < 0.01
        budget.check()
    except Exception:
        done(False)
        raise
    done(True)


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "pjmp", *args],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, (args, proc.returncode, proc.stderr)


def test_criterion_9_cli_determinism(tmp_path):
    done = _register(9, "every command byte-identical across runs")
    try:
        commands = {
            "simulate": ["simulate", RING2_PATH, "--t", "2", "--replicas", "60", "--seed", "3"],
            "stationary": ["stationary", RING2_PATH, "--m-box", "8"],
            "gap": ["gap", RING2_PATH, "--m-box", "8"],
            "verify-lyapunov": ["verify-lyapunov", RING2_PATH],
            "verify-poincare": ["verify-poincare", RING2_PATH, "--m-box", "12", "--n-functions", "40"],
            "concentration": ["concentration", RING2_PATH, "--m-box", "20"],
            "semigroup-report": ["semigroup-report", RING2_PATH, "--m-box", "20", "--suite-size", "12"],
        }
        for name, cmd in commands.items():
            for label in ("run1", "run2", "run3"):
                _run_cli(cmd + ["--out", str(tmp_path / name / label)], tmp_path)
            base = sorted((tmp_path / name / "run1").iterdir())
            assert base, name
            for label in ("run2", "run3"):
                for path in base:
                    other = tmp_path / name / label / path.name
                    assert path.read_bytes() == other.read_bytes(), (name, label, path.name)
    except Exception:
        done(False)
        raise
    done(True)
