"""Certificate constants: path bound, exponential-moment coefficients, tails."""

import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pjmp.certificates as certificates
import pjmp.spectral as spectral
from conftest import make_random_net
from pjmp import (
    DegenerateModelError,
    admissible_lambda,
    assemble_generator,
    compute_C3_sum_function,
    enumerate_states,
    lambda0_product,
    make_function_suite,
    max_peak_time,
    path_method_C0,
    poincare_constant,
    propagate_function,
    semigroup_poincare_report,
    semigroup_variance_profile,
    solve_admissible_lambda,
    stationary,
    talagrand_verdict,
)
from pjmp.statespace import DEFAULT_MAX_STATES
from test_spectral import profile_oracle
from test_tables import _adjacency_oracle, _bench_net


@pytest.fixture(scope="module")
def ring2_solved(ring2):
    space = enumerate_states(ring2, ring2.zero_state(), 34.0)
    gen = assemble_generator(ring2, space)
    mu = stationary(gen)
    return space, gen, mu


def _bfs_oracle(adj):
    """All-pairs breadth-first search in Python, one source at a time.

    adj is the firing graph on the support, from the object-walking
    ``_adjacency_oracle``, not from the generator path_method_C0 reads.
    Returns the longest shortest path, which the search through the hub must
    reproduce; the graph must be strongly connected.
    """
    ns = adj.shape[0]
    neighbours = [adj.indices[adj.indptr[j] : adj.indptr[j + 1]].tolist() for j in range(ns)]
    max_len = 0
    for src in range(ns):
        dist = [-1] * ns
        dist[src] = 0
        queue = [src]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in neighbours[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        assert min(dist) >= 0, "the firing graph is not strongly connected"
        max_len = max(max_len, *dist)
    return max_len


def _solved(net, m_box):
    space = enumerate_states(net, net.zero_state(), m_box)
    gen = assemble_generator(net, space)
    return space, gen, stationary(gen)


@functools.lru_cache(maxsize=None)
def _named_solved(name, m_box):
    """A bundled model, or make_random_net(1) for "random1", solved on a box."""
    return _solved(make_random_net(1) if name == "random1" else _bench_net(name), m_box)


class TestPathMethod:
    def test_single_state_degenerate(self, zero2):
        space = enumerate_states(zero2, zero2.zero_state(), 5.0)
        gen = assemble_generator(zero2, space)
        mu = stationary(gen)
        report = path_method_C0(mu)
        assert report.max_path_length == 0

    def test_ring_box5_diameter(self, ring2):
        # support is the two rays without the origin; the long way round goes
        # up one ray (4 firings), across (1), then up the other ray (4)
        space = enumerate_states(ring2, ring2.zero_state(), 5.0)
        gen = assemble_generator(ring2, space)
        mu = stationary(gen)
        report = path_method_C0(mu)
        assert len(mu.support) == 10
        assert report.max_path_length == 5

    @pytest.mark.parametrize(
        "model, m_box",
        [
            ("ring2", 10.0),
            ("ring2", 34.0),
            ("random1", 8.0),
            ("random1", 10.0),
            ("rand3", 24.0),
            ("rand4", 8.0),  # 27 searches into y, over three levels of d(h, y)
        ],
    )
    def test_matches_bfs_oracle(self, model, m_box):
        space, gen, mu = _named_solved(model, m_box)
        report = path_method_C0(mu)
        adj = _adjacency_oracle(space.net, space.states, m_box, mu.support)
        assert report.max_path_length == _bfs_oracle(adj)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        m_box=st.integers(1, 5),
    )
    def test_matches_bfs_oracle_on_random_nets(self, seed, n, m_box):
        # d(x, y) <= reach + d(h, y) is a theorem, so any mismatch is a bug
        net = make_random_net(seed, n)
        space, gen, mu = _solved(net, float(m_box))
        adj = _adjacency_oracle(net, space.states, float(m_box), mu.support)
        assert path_method_C0(mu).max_path_length == _bfs_oracle(adj)

    def test_searches_few_sources(self, monkeypatch):
        # the all-pairs search handed shortest_path all 4,791 support states
        sources = []
        search = certificates.csgraph.shortest_path

        def counted(*args, indices=None, **kwargs):
            sources.append(np.size(indices))
            return search(*args, indices=indices, **kwargs)

        monkeypatch.setattr(certificates.csgraph, "shortest_path", counted)
        space, gen, mu = _named_solved("rand3", 24.0)
        assert path_method_C0(mu).max_path_length == 72
        assert sum(sources) <= 10

    def test_dominates_optimal_constant(self, ring2_solved, random_nets):
        space, gen, mu = ring2_solved
        gap = poincare_constant(mu)
        assert path_method_C0(mu).c0 >= gap.c_opt
        for net in random_nets:
            sp_ = enumerate_states(net, net.zero_state(), 8.0)
            g_ = assemble_generator(net, sp_)
            m_ = stationary(g_)
            gp_ = poincare_constant(m_)
            assert path_method_C0(m_).c0 >= gp_.c_opt


class TestC3Sum:
    def test_zero_weights_degenerate(self, zero2):
        space = enumerate_states(zero2, zero2.zero_state(), 5.0)
        mu = stationary(assemble_generator(zero2, space))
        assert compute_C3_sum_function(mu, 0.3) == 0.0

    def test_boundary_term_dominates_at_large_lambda(self, ring2_solved):
        space, _gen, mu = ring2_solved
        # N0 = 1, phi(N0) = 3: at lambda = 10 the one-jump worst case term
        # 3 e^10 beats both moments of each of the two neurons
        assert compute_C3_sum_function(mu, 10.0) == 2 * (3 * math.exp(10.0))

    def test_monotone_in_lambda(self, ring2_solved):
        space, _gen, mu = ring2_solved
        grid = [0.0, 0.5, 1.0, 2.0, 5.0]
        totals = [compute_C3_sum_function(mu, lam) for lam in grid]
        assert all(a <= b for a, b in zip(totals, totals[1:]))

    def test_negative_lambda_rejected(self, ring2_solved):
        space, _gen, mu = ring2_solved
        with pytest.raises(ValueError):
            compute_C3_sum_function(mu, -1.0)


class TestLambda0:
    def test_empty_perturbation(self):
        assert lambda0_product(1.0, 1.0, 0.0) == 1.0

    def test_half_q_two_depths_agree(self):
        # q = 0.5 via c0=c3=1, lam=sqrt(0.5)
        lam = math.sqrt(0.5)
        a = lambda0_product(1.0, 1.0, lam, tol=1e-12)
        b = lambda0_product(1.0, 1.0, lam, tol=1e-14)
        assert a == pytest.approx(b, rel=1e-10)
        assert a > 1.0

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError, match="admissible"):
            lambda0_product(2.0, 2.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.99))
    def test_at_least_one_and_monotone(self, q):
        lam = math.sqrt(q)
        val = lambda0_product(1.0, 1.0, lam)
        assert val >= 1.0
        smaller = lambda0_product(1.0, 1.0, lam * 0.9)
        assert smaller <= val


class TestAdmissibleLambda:
    def test_constant_coefficient_closed_form(self):
        c0, c3, margin = 2.0, 5.0, 0.1
        lam = solve_admissible_lambda(c0, lambda _lam: c3, margin=margin)
        assert lam == pytest.approx(math.sqrt((1 - margin) / (c0 * c3)), rel=1e-9)

    def test_doubling_c0_reduces_lambda(self, ring2_solved):
        space, gen, mu = ring2_solved
        gap = poincare_constant(mu)
        a = admissible_lambda(mu, gap.c_opt)
        b = admissible_lambda(mu, 2 * gap.c_opt)
        assert b.lam < a.lam

    def test_no_admissible_lambda(self):
        with pytest.raises(DegenerateModelError, match="no admissible"):
            solve_admissible_lambda(1.0, lambda _lam: 1e20)

    def test_vanishing_coefficient_degenerate(self):
        with pytest.raises(DegenerateModelError, match="admissible"):
            solve_admissible_lambda(1.0, lambda _lam: 0.0)

    def test_zero_interaction_degenerate(self, zero2):
        space = enumerate_states(zero2, zero2.zero_state(), 5.0)
        mu = stationary(assemble_generator(zero2, space))
        with pytest.raises(DegenerateModelError, match="vanishes"):
            admissible_lambda(mu, 1.0)

    def test_ring_q_in_band(self, ring2_solved):
        space, gen, mu = ring2_solved
        gap = poincare_constant(mu)
        adm = admissible_lambda(mu, gap.c_opt)
        assert adm.q < 1.0
        assert 0.89 <= adm.q <= 0.9 + 1e-9


class TestTalagrand:
    def _certificate(self, ring2_solved):
        space, gen, mu = ring2_solved
        gap = poincare_constant(mu)
        return admissible_lambda(mu, gap.c_opt)

    def test_r_zero_bound_covers_everything(self, ring2_solved):
        space, _gen, mu = ring2_solved
        cert = self._certificate(ring2_solved)
        report = talagrand_verdict(cert, mu, [0.0])
        row = report.rows[0]
        assert row.bound >= 1.0 >= row.exact

    def test_domination_on_grid(self, ring2_solved):
        space, _gen, mu = ring2_solved
        cert = self._certificate(ring2_solved)
        report = talagrand_verdict(cert, mu, range(1, 13))
        assert report.passed
        for row in report.rows:
            assert row.exact <= row.bound

    def test_exponential_moment_premises(self, ring2_solved):
        # the two inequalities the tail bound is assembled from, checked
        # directly against the solved stationary law: the fluctuation form of
        # e^{lam F_r / 2} is dominated by C3 lam^2 times the exponential
        # moment, and the exponential moment by lam0 e^{lam mu(F_r)}
        import numpy as np
        from pjmp import gamma_vector

        space, gen, mu = ring2_solved
        cert = self._certificate(ring2_solved)
        p = mu.probabilities
        f = space.totals()
        for r in (1.0, 2.0, 4.0, 8.0, 12.0):
            f_r = np.minimum(f, r)
            half = np.exp(cert.lam * f_r / 2.0)
            carre = float(p @ gamma_vector(gen, half))
            moment = float(p @ np.exp(cert.lam * f_r))
            assert carre <= cert.c3 * cert.lam**2 * moment + 1e-12
            assert moment <= cert.lam0 * math.exp(cert.lam * float(p @ f_r))

    def test_log_linear_far_tail(self, ring2_solved):
        # beyond the largest observable total, mu(min(F, r)) saturates and the
        # log-bound decreases exactly linearly with slope -lambda
        space, _gen, mu = ring2_solved
        cert = self._certificate(ring2_solved)
        r_max = float(space.totals().max())
        report = talagrand_verdict(cert, mu, [r_max + 1, r_max + 2])
        drop = math.log(report.rows[1].bound) - math.log(report.rows[0].bound)
        assert drop == pytest.approx(-cert.lam, rel=1e-9)


def _assert_report_close(report, want):
    """The report walks its grid leg by leg and the oracle runs every time
    from 0: the coefficients agree to rounding, the slopes and the fit
    violation to an absolute bound (a slope over a constant sequence has no
    relative scale), and everything else exactly."""
    np.testing.assert_allclose(report.d1_hat, want.d1_hat, rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.d2_hat, want.d2_hat, rtol=1e-12, atol=0)
    for name in ("slope_d1", "slope_d2", "fit_violation"):
        got, ref = getattr(report, name), getattr(want, name)
        assert (got is None) == (ref is None)
        assert got is None or abs(got - ref) <= 1e-12
    loose = ("d1_hat", "d2_hat", "slope_d1", "slope_d2", "fit_violation")
    assert dataclasses.replace(report, **{k: getattr(want, k) for k in loose}) == want


def _fit_oracle(lhs_t, energies, wterm_t):
    """The fit as a loop over suite indices, one comparison at a time.

    The suite's last max(1, k // 5) columns are supported outside the
    enlarged box. Returns (d1_hat, d2_hat, outside_term_max,
    outside_one_term_ok, fit_violation).
    """
    k = len(energies)
    outside_idx = list(range(k - max(1, k // 5), k))
    inside_idx = [j for j in range(k) if j not in set(outside_idx)]
    d1_hat, d2_hat = [], []
    outside_term_max = 0.0
    outside_one_term_ok = True
    fit_violation = 0.0
    for lhs, wterm in zip(lhs_t, wterm_t):
        outside_term_max = max(outside_term_max, float(np.abs(wterm[outside_idx]).max()))
        d1 = 0.0
        for j in outside_idx:
            if energies[j] > 0:
                d1 = max(d1, lhs[j] / energies[j])
        d2 = 0.0
        for j in inside_idx:
            shortfall = lhs[j] - d1 * energies[j]
            if shortfall > 0 and wterm[j] > 0:
                d2 = max(d2, shortfall / wterm[j])
        for j in outside_idx:
            slack = lhs[j] - d1 * energies[j]
            if slack > 1e-9 * max(1.0, abs(lhs[j])):
                outside_one_term_ok = False
        resid = lhs - d1 * energies - d2 * wterm
        fit_violation = max(fit_violation, float(resid.max()))
        d1_hat.append(d1)
        d2_hat.append(d2)
    return d1_hat, d2_hat, outside_term_max, outside_one_term_ok, fit_violation


def _assert_fit_equals_oracle(report, profile):
    """Bit for bit, signed zeros included."""
    d1_hat, d2_hat, term_max, one_term_ok, violation = _fit_oracle(*profile)

    def bits(xs):
        return [float(x).hex() for x in xs]

    assert bits(report.d1_hat) == bits(d1_hat)
    assert bits(report.d2_hat) == bits(d2_hat)
    assert bits([report.outside_term_max, report.fit_violation]) == bits([term_max, violation])
    assert report.outside_one_term_ok is one_term_ok


class TestSemigroupReport:
    def test_theta_value(self, ring2_solved):
        space, gen, mu = ring2_solved
        report = semigroup_poincare_report(mu, suite_size=10)
        assert report.theta == pytest.approx((2 * math.e) ** 2, rel=1e-12)

    def test_peak_time_max(self, ring2):
        space = enumerate_states(ring2, ring2.zero_state(), 5.0)
        # the slowest race is at the origin
        assert max_peak_time(space) == pytest.approx(
            (math.log(4.5) - math.log(3.0)) / 1.5, rel=1e-12
        )

    def test_rejects_times_below_t1(self, ring2_solved):
        space, gen, mu = ring2_solved
        with pytest.raises(ValueError, match="below t1"):
            semigroup_poincare_report(mu, t_grid=[0.01])

    def test_single_state_support_refused(self, zero2):
        # no suite function is nonconstant on one state, so no box can help
        space = enumerate_states(zero2, zero2.zero_state(), 5.0)
        mu = stationary(assemble_generator(zero2, space))
        with pytest.raises(DegenerateModelError, match="single state"):
            semigroup_poincare_report(mu)

    def test_suite_requires_outside_states(self, ring2_solved):
        space, _gen, _mu = ring2_solved
        with pytest.raises(ValueError, match="outside"):
            make_function_suite(space, 20, 0, enlarged_box=1e9)

    def test_suite_size_floor(self, ring2_solved):
        space, _gen, _mu = ring2_solved
        with pytest.raises(ValueError, match="too small"):
            make_function_suite(space, 3, 0, enlarged_box=18.0)

    def test_suite_over_budget_refused_before_any_draw(self, ring2_solved):
        # 69 states and 300,000 functions: the walked [f, F_t] block and the
        # Gamma(f) 1_D block would hold about 41 million floats, 331 MB, and
        # the suite half of that again
        _space, _gen, mu = ring2_solved
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="suite size 300000 on 69 states needs more"):
                semigroup_poincare_report(mu, suite_size=300_000)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_suite_budget_edge(self, ring2_solved, monkeypatch):
        # the walked and Gamma(f) 1_D blocks hold n * (2 size + 1) floats:
        # that many fit, one column more does not
        space, _gen, _mu = ring2_solved
        monkeypatch.setattr(certificates, "SUITE_BUDGET", len(space) * (2 * 20 + 1))
        suite, _outside = make_function_suite(space, 20, 0, enlarged_box=18.0)
        assert suite.shape == (len(space), 20)
        with pytest.raises(ValueError, match="needs more than"):
            make_function_suite(space, 21, 0, enlarged_box=18.0)

    def test_default_suite_fits_the_state_cap(self):
        # the default suite of 50 runs on every box the enumeration admits
        assert DEFAULT_MAX_STATES * (2 * 50 + 1) <= certificates.SUITE_BUDGET

    @pytest.mark.parametrize("model", ["ring2", "rand3"])
    def test_report_equals_old_loop_oracle(self, ring2, monkeypatch, model):
        # the bench models: ring2 at its default box, rand3 at box 8, and the
        # bench's eight suite seeds. The oracle runs the old series loops
        # once per term and time on the whole suite; their columns equal the
        # one-function loops (tests/test_spectral.py, TestUniformizationKernel)
        net = ring2 if model == "ring2" else make_random_net(1)
        space, gen, mu = _solved(net, 34.0 if model == "ring2" else 8.0)
        for seed in range(8):
            report = semigroup_poincare_report(mu, seed=seed)
            with monkeypatch.context() as m:
                m.setattr(certificates, "semigroup_variance_profile", profile_oracle)
                want = semigroup_poincare_report(mu, seed=seed)
            _assert_report_close(report, want)

    @pytest.mark.parametrize("model", ["ring2", "rand3"])
    def test_fit_equals_index_loop(self, ring2, monkeypatch, model):
        # the bench models and suite seeds: the masked fit reads the profile
        # exactly as the per-index loop does
        net = ring2 if model == "ring2" else make_random_net(1)
        space, gen, mu = _solved(net, 34.0 if model == "ring2" else 8.0)
        seen = []

        def capture(*args):
            seen.append(semigroup_variance_profile(*args))
            return seen[-1]

        monkeypatch.setattr(certificates, "semigroup_variance_profile", capture)
        for seed in range(8):
            report = semigroup_poincare_report(mu, seed=seed)
            _assert_fit_equals_oracle(report, seen[-1])

    def test_fit_edge_cases_equal_index_loop(self, ring2_solved, monkeypatch):
        # a suite of 10 has its last two columns outside: column 8 has zero
        # energy and an lhs exactly at the one-term tolerance, inside column
        # 3 falls short with a zero weighted term, lhs dips slightly below 0,
        # and column 9's ratio is -0.0 at the first time; no division by a
        # zero may warn
        space, gen, mu = ring2_solved
        rng = np.random.default_rng(5)
        energies = rng.uniform(0.5, 2.0, 10)
        energies[8] = 0.0
        lhs_t = rng.uniform(0.0, 3.0, (4, 10))
        lhs_t[:, 3] = 50.0
        lhs_t[:, 8] = 1e-9
        lhs_t[0, 9] = -0.0
        lhs_t[1, 5] = -1e-17
        lhs_t[2, 9] = -3e-16
        wterm_t = rng.uniform(0.1, 1.0, (4, 10))
        wterm_t[:, 3] = 0.0
        wterm_t[:, 8:] = 0.0
        wterm_t[3, 9] = 1e-13
        profile = (lhs_t, energies, wterm_t)
        monkeypatch.setattr(certificates, "semigroup_variance_profile", lambda *a: profile)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = semigroup_poincare_report(mu, suite_size=10)
        assert report.n_outside == 2
        assert report.outside_one_term_ok and report.d1_hat[0] == 0.0
        assert report.fit_violation > 0  # column 3 is left uncovered
        _assert_fit_equals_oracle(report, profile)

    def test_one_series_pair_per_time(self, ring2_solved, monkeypatch):
        # each leg propagates [f, F_t]: k + 1 columns, neither f^2 nor
        # Gamma(f) 1_D; then one transposed series gives nu_t for all times
        space, gen, mu = ring2_solved
        calls = {"propagate_function": 0, "weighted_F_vector": 0}
        shapes = []
        for name in calls:
            real = getattr(spectral, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                if _name == "propagate_function":
                    shapes.append(args[1].shape)
                return _real(*args, **kwargs)

            monkeypatch.setattr(spectral, name, counted)
        transposed = []
        series = spectral._uniformized_sum

        def seen(op, v, weights):
            if op is not gen.kernel:
                assert (op.T != gen.kernel).nnz == 0
                transposed.append((v.shape, np.shape(weights)[1:]))
            return series(op, v, weights)

        monkeypatch.setattr(spectral, "_uniformized_sum", seen)
        report = semigroup_poincare_report(mu, suite_size=20)
        assert calls == {"propagate_function": 4, "weighted_F_vector": 4}
        assert len(report.t_grid) == 4
        assert shapes == [(gen.dimension, report.n_suite + 1)] * 4
        assert transposed == [((gen.dimension, 4), (4,))]

    @pytest.mark.parametrize("model", ["ring2", "rand3"])
    def test_stationary_mean_of_f2_is_kept(self, ring2, monkeypatch, model):
        # the walk reads mu(P_d f^2) as mu(f^2); check it on the bench suite
        # at every leg length of the default grid
        net = ring2 if model == "ring2" else make_random_net(1)
        space, gen, mu = _solved(net, 34.0 if model == "ring2" else 8.0)
        seen = {}

        def capture(mu, f, t_grid, eps, indicator):
            seen.update(f=f, t_grid=t_grid)
            return semigroup_variance_profile(mu, f, t_grid, eps, indicator)

        monkeypatch.setattr(certificates, "semigroup_variance_profile", capture)
        semigroup_poincare_report(mu)
        f2 = seen["f"] ** 2
        want = mu.probabilities @ f2
        for d in np.diff([0.0, *sorted(set(seen["t_grid"]))]):
            got = mu.probabilities @ propagate_function(gen, f2, d)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_full_report_passes(self, ring2_solved):
        space, gen, mu = ring2_solved
        report = semigroup_poincare_report(mu, suite_size=20, seed=1)
        assert report.passed
        assert report.outside_term_max <= 1e-12
        assert report.fit_violation <= 1e-9
        assert len(report.d1_hat) == 4
