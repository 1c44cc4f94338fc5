"""Exact event-driven simulation and the Monte Carlo estimators."""

import importlib.resources
import math
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from pjmp import (
    PotentialState,
    assemble_generator,
    empirical_tail,
    enumerate_states,
    ergodic_average,
    estimate_ensemble,
    estimate_semigroup,
    estimate_weight_F,
    intensity_at,
    jump_map,
    network_from_json,
    next_event,
    simulate_path,
    stationary,
    weighted_F_exact,
)
from pjmp import cli, simulate
from pjmp.simulate import replica_rng

from conftest import make_random_net


class TestNextEvent:
    def test_single_neuron_always_fires(self, single1):
        rng = replica_rng(0, 0)
        for _ in range(50):
            tau, i = next_event(single1, single1.state([2]), rng)
            assert i == 0 and tau > 0

    def test_deterministic_given_rng_state(self, ring2):
        a = next_event(ring2, ring2.state([1, 0]), replica_rng(9, 4))
        b = next_event(ring2, ring2.state([1, 0]), replica_rng(9, 4))
        assert a == b

    def test_race_statistics_at_origin(self, ring2):
        # rates 1.5/1.5: mean holding 1/3, each neuron picked half the time
        n = 1_000_000
        rng = replica_rng(1, 0)
        taus = np.empty(n)
        picks = np.empty(n, dtype=int)
        x = ring2.zero_state()
        for k in range(n):
            taus[k], picks[k] = next_event(ring2, x, rng)
        se_tau = taus.std(ddof=1) / math.sqrt(n)
        assert abs(taus.mean() - 1.0 / 3.0) <= 4 * se_tau
        p_hat = (picks == 0).mean()
        se_p = math.sqrt(0.5 * 0.5 / n)
        assert abs(p_hat - 0.5) <= 4 * se_p

    def test_race_statistics_tilted(self, ring2):
        # from (1,0) neuron 0 carries 3.0 of the total 4.5
        n = 200_000
        rng = replica_rng(2, 0)
        x = ring2.state([1, 0])
        hits = 0
        for _ in range(n):
            _tau, i = next_event(ring2, x, rng)
            hits += i == 0
        p_hat = hits / n
        p = 2.0 / 3.0
        assert abs(p_hat - p) <= 4 * math.sqrt(p * (1 - p) / n)


class TestSimulatePath:
    def test_zero_horizon(self, ring2):
        traj = simulate_path(ring2, ring2.state([2, 1]), 0.0, seed=0)
        assert traj.events == ()
        assert traj.final_state == ring2.state([2, 1])

    def test_zero_weights_stay_at_zero(self, zero2):
        traj = simulate_path(zero2, zero2.zero_state(), 5.0, seed=0)
        assert traj.final_state == zero2.zero_state()
        for ev in traj.events:
            assert ev.pre_state == zero2.zero_state()

    def test_bitwise_reproducible(self, ring2):
        a = simulate_path(ring2, ring2.zero_state(), 20.0, seed=123)
        b = simulate_path(ring2, ring2.zero_state(), 20.0, seed=123)
        assert a == b
        c = simulate_path(ring2, ring2.zero_state(), 20.0, seed=124)
        assert a != c

    def test_times_increase_and_jumps_consistent(self, ring2):
        traj = simulate_path(ring2, ring2.zero_state(), 30.0, seed=5)
        assert len(traj.events) > 10
        state = ring2.zero_state()
        last_t = 0.0
        for ev in traj.events:
            assert ev.time > last_t
            assert ev.pre_state == state
            state = jump_map(ring2, ev.pre_state, ev.neuron)
            last_t = ev.time
        assert traj.final_state == state

    def test_event_count_matches_expected_effort(self, ring2):
        # the mean number of firings in [0, T] equals the exact weighted
        # integral of the total rate
        space = enumerate_states(ring2, ring2.zero_state(), 30.0)
        gen = assemble_generator(ring2, space)
        k = space.position(ring2.zero_state())
        expected = weighted_F_exact(gen, space.total_rates(), k, 10.0)
        counts = np.array(
            [len(simulate_path(ring2, ring2.zero_state(), 10.0, seed=s).events) for s in range(400)]
        )
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - expected) <= 4 * se


class TestEstimators:
    def test_semigroup_constant_function(self, ring2):
        mean, var = estimate_semigroup(ring2, lambda y: 4.0, ring2.zero_state(), 1.0, 100, seed=0)
        assert mean.mean == 4.0 and mean.std_error == 0.0
        assert var.mean == 0.0

    def test_semigroup_time_zero(self, ring2):
        x = ring2.state([2, 0])
        mean, var = estimate_semigroup(ring2, lambda y: y.total(), x, 0.0, 100, seed=0)
        assert mean.mean == 2.0 and var.mean == 0.0

    def test_semigroup_needs_replicas(self, ring2):
        with pytest.raises(ValueError):
            estimate_semigroup(ring2, lambda y: 0.0, ring2.zero_state(), 1.0, 1, seed=0)

    def test_ergodic_constant(self, ring2):
        est = ergodic_average(ring2, lambda y: 2.5, 1.0, 50.0, seed=0)
        assert est.mean == pytest.approx(2.5, rel=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_ergodic_zero_weights(self, zero2):
        est = ergodic_average(zero2, lambda y: y.total(), 1.0, 50.0, seed=0)
        assert est.mean == 0.0

    def test_ergodic_requires_room(self, ring2):
        with pytest.raises(ValueError):
            ergodic_average(ring2, lambda y: 0.0, 10.0, 10.0, seed=0)

    def test_ergodic_matches_stationary(self, ring2):
        space = enumerate_states(ring2, ring2.zero_state(), 34.0)
        mu = stationary(assemble_generator(ring2, space))
        target = mu.expectation(space.totals())
        est = ergodic_average(ring2, lambda y: y.total(), 50.0, 3000.0, seed=21)
        assert abs(est.mean - target) <= 4 * est.std_error

    def test_ergodic_matches_stationary_three_neurons(self, random_nets):
        # same cross-check on a three-neuron model; truncation bias at this
        # box is ~1e-8, far below the Monte Carlo error
        net = random_nets[1]
        space = enumerate_states(net, net.zero_state(), 12.0)
        mu = stationary(assemble_generator(net, space))
        target = mu.expectation(space.totals())
        est = ergodic_average(net, lambda y: y.total(), 50.0, 2500.0, seed=31)
        assert abs(est.mean - target) <= 4 * est.std_error

    def test_tail_edges(self, ring2):
        tails = empirical_tail(ring2, [0.0, 1.0, 500.0], 1.0, 200.0, seed=3)
        assert tails[0] == 1.0
        assert tails[-1] == 0.0
        assert (np.diff(tails) <= 0).all()

    def test_tail_matches_stationary(self, ring2):
        space = enumerate_states(ring2, ring2.zero_state(), 34.0)
        mu = stationary(assemble_generator(ring2, space))
        totals = space.totals()
        exact = float(mu.probabilities[totals >= 3.0].sum())
        # crude binomial-style error scale on the occupation fraction
        grid = empirical_tail(ring2, [3.0], 50.0, 4000.0, seed=8)
        est = float(grid[0])
        se = math.sqrt(max(est * (1 - est), 1e-6) / 2000)
        assert abs(est - exact) <= 4 * se

    def test_tail_grid_validated(self, ring2):
        with pytest.raises(ValueError):
            empirical_tail(ring2, [2.0, 1.0], 0.0, 10.0, seed=0)

    @pytest.mark.parametrize("r_grid", [[math.nan], [math.inf], [1.0, math.nan], [-math.inf, 1.0]])
    def test_tail_levels_must_be_finite(self, ring2, r_grid):
        with pytest.raises(ValueError, match="tail levels must be finite"):
            empirical_tail(ring2, r_grid, 1.0, 50.0, seed=0)

    def test_weight_effort_zero_time(self, ring2):
        est = estimate_weight_F(ring2, ring2.zero_state(), 0.0, 10, seed=0)
        assert est.mean == 0.0

    def test_weight_effort_short_time(self, ring2):
        # first order the effort is (initial total rate) * t; the exact value
        # carries a second-order correction the estimator must also resolve
        t = 0.01
        est = estimate_weight_F(ring2, ring2.zero_state(), t, 20000, seed=1)
        assert est.mean == pytest.approx(3.0 * t, rel=0.02)
        space = enumerate_states(ring2, ring2.zero_state(), 10.0)
        gen = assemble_generator(ring2, space)
        exact = weighted_F_exact(gen, space.total_rates(), space.position(ring2.zero_state()), t)
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_weight_effort_counts_jumps(self, ring2):
        effort = estimate_weight_F(ring2, ring2.zero_state(), 5.0, 2000, seed=2)
        counts = np.array(
            [len(simulate_path(ring2, ring2.zero_state(), 5.0, seed=1000 + s).events) for s in range(2000)]
        )
        se_c = counts.std(ddof=1) / math.sqrt(len(counts))
        se = math.hypot(se_c, effort.std_error)
        assert abs(effort.mean - counts.mean()) <= 4 * se


class TestTimeValidation:
    # the shared prologue refuses these before any draw; nan and inf ran forever
    CALLS = {
        "simulate_path": lambda net, t: simulate_path(net, net.zero_state(), t, seed=0),
        "estimate_semigroup": lambda net, t: estimate_semigroup(
            net, lambda y: 0.0, net.zero_state(), t, 2, seed=0
        ),
        "estimate_weight_F": lambda net, t: estimate_weight_F(net, net.zero_state(), t, 2, seed=0),
        "ergodic_average": lambda net, t: ergodic_average(net, lambda y: 0.0, 1.0, t, seed=0),
        "empirical_tail": lambda net, t: empirical_tail(net, [1.0], 1.0, t, seed=0),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_horizon_refused(self, ring2, name, t):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            self.CALLS[name](ring2, t)

    @pytest.mark.parametrize("burn_in", [math.nan, math.inf, -1.0])
    def test_bad_burn_in_refused(self, ring2, burn_in):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ergodic_average(ring2, lambda y: 0.0, burn_in, 10.0, seed=0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            empirical_tail(ring2, [1.0], burn_in, 10.0, seed=0)

    def test_window_must_be_nonempty(self, ring2):
        with pytest.raises(ValueError, match="exceed burn_in"):
            empirical_tail(ring2, [1.0], 10.0, 10.0, seed=0)

    @pytest.mark.parametrize("n_batches", [0, 1, 2.5, "3", None])
    def test_ergodic_batches_validated(self, ring2, n_batches):
        with pytest.raises(ValueError, match="n_batches"):
            ergodic_average(ring2, lambda y: 0.0, 1.0, 10.0, seed=0, n_batches=n_batches)

    def test_ergodic_two_batches_suffice(self, ring2):
        est = ergodic_average(ring2, lambda y: y.total(), 1.0, 50.0, seed=0, n_batches=2)
        assert est.n_samples == 2 and math.isfinite(est.std_error)


class TestEventBudget:
    """A run expected to pass MAX_EVENTS is refused before it walks; a path
    that passes it all the same stops at a refill or a step."""

    @staticmethod
    def _no_walk(*args):
        raise AssertionError("walked a refused run")

    @pytest.mark.parametrize("name", sorted(TestTimeValidation.CALLS))
    def test_refused_before_walking(self, ring2, monkeypatch, name):
        # ring2's total rate is 3 at zero and 4.5 once both neurons fired,
        # so a horizon of 50 expects 225 events a replica
        monkeypatch.setattr(simulate, "MAX_EVENTS", 200)
        monkeypatch.setattr(simulate, "_walk", self._no_walk)
        monkeypatch.setattr(simulate, "_race_block", self._no_walk)
        with pytest.raises(RuntimeError, match="budget of 200"):
            TestTimeValidation.CALLS[name](ring2, 50.0)

    def test_within_budget_unchanged(self, ring2, monkeypatch):
        want = simulate_path(ring2, ring2.zero_state(), 40.0, 3)
        simulate._seeded_walk.cache_clear()
        monkeypatch.setattr(simulate, "MAX_EVENTS", 1 + 4.5 * 40.0)
        assert simulate_path(ring2, ring2.zero_state(), 40.0, 3) == want

    @pytest.mark.parametrize("t", [0.0, 1e-9])
    def test_each_replica_counts_its_first_event(self, ring2, t):
        # every replica draws the event that ends past t, so R replicas
        # expect at least R events however short the horizon
        x = ring2.zero_state()
        simulate._check_budget(ring2, x, t, simulate.MAX_EVENTS // 2)
        with pytest.raises(RuntimeError, match="budget"):
            simulate._check_budget(ring2, x, t, simulate.MAX_EVENTS + 1)

    @pytest.mark.parametrize("name", sorted(TestTimeValidation.CALLS))
    def test_path_past_the_budget_stops(self, ring2, monkeypatch, name):
        monkeypatch.setattr(simulate, "MAX_EVENTS", 100)
        monkeypatch.setattr(simulate, "_check_budget", lambda *args: None)
        with pytest.raises(RuntimeError, match="budget of 100"):
            TestTimeValidation.CALLS[name](ring2, 1000.0)


class TestLockstepKernel:
    """The block kernel, the scalar walker and next_event read one stream layout."""

    @pytest.fixture(scope="class")
    def rand4(self):
        return make_random_net(5, n=4)

    def test_replica_prefix_independent_of_count(self, rand4):
        k = 7
        few = simulate._replicas(rand4, rand4.zero_state(), 3.0, k, 11)
        many = simulate._replicas(rand4, rand4.zero_state(), 3.0, 5 * k, 11)
        for a, b in zip(few, many):
            assert np.array_equal(a, b[:k])

    def test_block_and_chunk_size_change_nothing(self, rand4, monkeypatch):
        x = rand4.state([1, 0, 2, 0.5])
        total = lambda y: y.total()

        def run():
            return (
                simulate._replicas(rand4, x, 3.0, 40, 5),
                estimate_semigroup(rand4, total, x, 3.0, 40, seed=5),
                estimate_weight_F(rand4, x, 3.0, 40, seed=5),
                simulate_path(rand4, x, 6.0, seed=5),
                ergodic_average(rand4, total, 1.0, 30.0, seed=5),
                empirical_tail(rand4, [2.0, 4.0], 1.0, 30.0, seed=5),
            )

        base = run()
        simulate._seeded_walk.cache_clear()
        monkeypatch.setattr(simulate, "BLOCK", 3)
        monkeypatch.setattr(simulate, "CHUNK", 1)
        monkeypatch.setattr(simulate, "_CHUNK_CAP", 3)
        small = run()
        for a, b in zip(base[0], small[0]):
            assert np.array_equal(a, b)
        assert base[1:4] == small[1:4]
        assert base[4] == small[4]
        assert np.array_equal(base[5], small[5])

    @pytest.mark.parametrize("seed", range(20))
    def test_replica_zero_is_simulate_path(self, rand4, seed, monkeypatch):
        # t = 20 takes about 300 events: ten refills of a 32-event chunk for
        # the replicas, and for the walk one of 32, then at least three at
        # its cap, lowered to 64
        monkeypatch.setattr(simulate, "_CHUNK_CAP", 64)
        finals, _effort = simulate._replicas(rand4, rand4.zero_state(), 20.0, 2, seed)
        traj = simulate_path(rand4, rand4.zero_state(), 20.0, seed)
        assert len(traj.events) > 3 * simulate.CHUNK
        assert len(traj.events) > simulate.CHUNK + 2 * simulate._CHUNK_CAP
        assert tuple(finals[0].tolist()) == traj.final_state.numerators

    def test_next_event_is_first_event_of_replica(self, rand4):
        # run each replica up to exactly its first firing time: the event at
        # t fires in the kernel and in simulate_path, one ulp earlier it does not
        x = rand4.state([1, 0, 2, 0.5])
        for r in range(5):
            tau, i = next_event(rand4, x, replica_rng(3, r))
            after = jump_map(rand4, x, i).numerators
            finals, effort = simulate._replicas(rand4, x, tau, max(r + 1, 2), 3)
            assert tuple(finals[r].tolist()) == after
            assert effort[r] == sum(intensity_at(rand4, x, j) for j in range(4)) * tau
            early, _ = simulate._replicas(rand4, x, math.nextafter(tau, 0.0), max(r + 1, 2), 3)
            assert tuple(early[r].tolist()) == x.numerators
            if r == 0:
                traj = simulate_path(rand4, x, tau, seed=3)
                assert [(ev.time, ev.neuron) for ev in traj.events] == [(tau, i)]

    def test_f_sees_python_ints(self, rand4):
        seen = []
        estimate_semigroup(rand4, lambda y: seen.append(y) or 0.0, rand4.zero_state(), 1.0, 5, seed=0)
        assert len(seen) == 5
        assert all(type(v) is int for y in seen for v in y.numerators)


# neuron 0 adds 1 = 2^62 / 2^62 to neuron 1, so its second firing in a row
# takes that numerator to 2^63, one past the int64 range
WRAP_RACE = {
    "n": 2,
    "weights": [[0, 1], ["1/4611686018427387904", 0]],
    "intensity": {"delta": 1, "slope": "1/4611686018427387904"},
}


class TestInt64Race:
    """The lockstep kernel refuses a race exactly when the scalar walker passes int64."""

    @pytest.mark.parametrize("t", [0.2, 0.5, 5.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_refused_exactly_when_the_walker_wraps(self, t, seed):
        net = network_from_json(WRAP_RACE)
        x = net.zero_state()
        walks = [
            simulate._walk(net, x.numerators, replica_rng(seed, r), t, simulate.CHUNK, 64)
            for r in range(20)
        ]
        wraps = any(max(map(max, table)) >= 2**63 for table, *_ in walks)
        if wraps:
            with pytest.raises(ValueError, match="potential numerators exceed the int64 range"):
                simulate._replicas(net, x, t, 20, seed)
        else:
            finals, _efforts = simulate._replicas(net, x, t, 20, seed)
            assert finals.tolist() == [list(table[ids[-1]]) for table, ids, *_ in walks]

    @pytest.mark.parametrize(
        "estimate", [estimate_ensemble, estimate_semigroup], ids=lambda fn: fn.__name__
    )
    def test_estimators_refuse(self, estimate):
        # replicas 1 and 2 wrapped to -2^63 and were scored as negative potentials
        net = network_from_json(WRAP_RACE)
        with pytest.raises(ValueError, match="potential numerators exceed the int64 range"):
            estimate(net, lambda y: y.total(), net.zero_state(), 5.0, 20, 0)


class TestKeyedStreams:
    """One repositioned Philox reads every replica's stream as replica_rng draws it."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("chunk", [1, 3, 32])
    def test_rows_match_replica_rng(self, monkeypatch, seed, chunk):
        monkeypatch.setattr(simulate, "CHUNK", chunk)
        read = simulate._keyed_uniforms(seed)
        replicas = [0, 511, 512, 513]
        # one reader, moved back and forth; k = 1, 31, 33 start mid-way
        # through a 4-uniform Philox block
        for k in (100, 0, 33, 1, 32, 31):
            rows = read(np.array(replicas), k)
            assert rows.shape == (len(replicas), 2 * chunk)
            for row, r in zip(rows, replicas):
                want = replica_rng(seed, r).random(2 * (k + chunk))[2 * k :]
                assert np.array_equal(row, want)


class TestSeedRange:
    CALLS = {
        "replica_rng": lambda net, seed: replica_rng(seed, 0),
        "simulate_path": lambda net, seed: simulate_path(net, net.zero_state(), 1.0, seed),
        "estimate_semigroup": lambda net, seed: estimate_semigroup(
            net, lambda y: 0.0, net.zero_state(), 1.0, 2, seed
        ),
        "estimate_weight_F": lambda net, seed: estimate_weight_F(
            net, net.zero_state(), 1.0, 2, seed
        ),
        "estimate_ensemble": lambda net, seed: estimate_ensemble(
            net, lambda y: 0.0, net.zero_state(), 1.0, 2, seed
        ),
        "ergodic_average": lambda net, seed: ergodic_average(net, lambda y: 0.0, 1.0, 10.0, seed),
        "empirical_tail": lambda net, seed: empirical_tail(net, [1.0], 1.0, 10.0, seed),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_refused(self, ring2, name, seed):
        # numpy's uint64 key conversion raised OverflowError
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            self.CALLS[name](ring2, seed)


class TestEnsembleRacedOnce:
    @pytest.mark.parametrize("net_name", ["ring2", "rand4"])
    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
    def test_equals_the_separate_estimators(self, ring2, net_name, seed):
        net = ring2 if net_name == "ring2" else make_random_net(5, n=4)
        x, total = net.zero_state(), lambda y: y.total()
        got = estimate_ensemble(net, total, x, 2.0, 700, seed)
        mean, var = estimate_semigroup(net, total, x, 2.0, 700, seed)
        assert got == (mean, var, estimate_weight_F(net, x, 2.0, 700, seed))

    def test_f_called_once_per_distinct_final(self):
        net = make_random_net(5, n=4)
        x, calls = net.zero_state(), []

        def total(y):
            calls.append(y.numerators)
            return y.total()

        mean, var, _effort = estimate_ensemble(net, total, x, 2.0, 2000, 7)
        finals, _efforts = simulate._replicas(net, x, 2.0, 2000, 7)
        distinct = {tuple(row) for row in finals.tolist()}
        assert len(calls) == len(set(calls)) == len(distinct) < len(finals) / 2
        # the values of f called on every final, as before the memo
        vals = np.array([_total(PotentialState(tuple(row), x.denominator)) for row in finals.tolist()])
        assert mean.mean == float(np.sum(vals) / len(vals))
        assert var.mean == float(np.sum((vals - mean.mean) ** 2) / (len(vals) - 1))

    @pytest.mark.parametrize("n_replicas", [2, 512, 1100])
    def test_simulate_races_each_block_once(self, tmp_path, monkeypatch, n_replicas):
        calls = []
        real = simulate._race_block

        def counted(net, x, t, replicas, read):
            calls.append(replicas.tolist())
            return real(net, x, t, replicas, read)

        monkeypatch.setattr(simulate, "_race_block", counted)
        model = str(importlib.resources.files("pjmp") / "data" / "ring2.json")
        argv = ["simulate", model, "--t", "1", "--replicas", str(n_replicas)]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        assert len(calls) == -(-n_replicas // simulate.BLOCK)
        assert sum(calls, []) == list(range(n_replicas))


class TestMarkovConsistency:
    def test_conditional_law_matches_fresh_start(self, ring2):
        # law of X_{t+s} given X_t = y vs a fresh run from y, chi-square at 1%
        t, s = 1.0, 0.8
        y = ring2.state([0, 1])
        n = 40_000
        conditioned = []
        rng_pool = 0
        while len(conditioned) < 5000 and rng_pool < n:
            traj = simulate_path(ring2, ring2.zero_state(), t + s, seed=50_000 + rng_pool)
            state_t = ring2.zero_state()
            for ev in traj.events:
                if ev.time <= t:
                    state_t = jump_map(ring2, ev.pre_state, ev.neuron)
                else:
                    break
            if state_t == y:
                at_end = traj.final_state
                conditioned.append(at_end.numerators)
            rng_pool += 1
        fresh = [
            simulate_path(ring2, y, s, seed=90_000 + k).final_state.numerators
            for k in range(len(conditioned))
        ]
        keys = sorted(set(conditioned) | set(fresh))
        table = np.array(
            [
                [sum(1 for v in conditioned if v == key) for key in keys],
                [sum(1 for v in fresh if v == key) for key in keys],
            ]
        )
        keep = table.sum(axis=0) >= 5
        table = table[:, keep]
        _chi2, pvalue, _dof, _ = scipy.stats.chi2_contingency(table)
        assert pvalue > 0.01


class TestDeterminism:
    def test_replica_streams_are_distinct(self):
        base = replica_rng(7, 0).random(100)
        other = replica_rng(7, 1).random(100)
        reseeded = replica_rng(7, 0).random(100)
        assert (base == reseeded).all()
        assert not (base == other).any()

    def test_identical_seeds_identical_estimates(self, ring2):
        a = estimate_weight_F(ring2, ring2.zero_state(), 2.0, 500, seed=77)
        b = estimate_weight_F(ring2, ring2.zero_state(), 2.0, 500, seed=77)
        assert a == b


# The per-event walker and loops the single-path functions used before the
# interned-state walker, kept as oracles. The only edit: the total rate is the
# left-to-right sum, because builtin sum() adds floats with compensation from
# Python 3.12 and the block kernel's cumsum does not.


def _walk_oracle(net, nums, rng, chunk):
    """Scalar race from numerators nums: yields (nums, holding time, neuron)."""
    n, den = net.n_neurons, net.denominator
    delta, slope = net._delta_f, net._slope_f
    wnum = net.weight_numerators
    while True:
        exps, us = simulate._draws(rng, chunk)
        for e, u in zip(exps[0].tolist(), us[0].tolist()):
            rates = [delta + slope * (v / den) for v in nums]
            total = 0.0
            for r in rates:
                total += r
            u *= total
            pick, acc = n - 1, 0.0
            for i in range(n - 1):
                acc += rates[i]
                if u < acc:
                    pick = i
                    break
            yield nums, e / total, pick
            row = wnum[pick]
            nums = tuple(0 if j == pick else nums[j] + row[j] for j in range(n))


def _path_oracle(net, x0, horizon, seed, chunk=32):
    den = x0.denominator
    t = 0.0
    events = []
    for nums, tau, i in _walk_oracle(net, x0.numerators, replica_rng(seed, 0), chunk):
        if t + tau > horizon:
            break
        t += tau
        events.append(simulate.TrajectoryEvent(time=t, neuron=i, pre_state=PotentialState(nums, den)))
    return simulate.Trajectory(
        events=tuple(events), final_state=PotentialState(nums, den), horizon=horizon
    )


def _ergodic_oracle(net, f, burn_in, horizon, seed, n_batches=50, chunk=32):
    den = net.denominator
    batch_len = (horizon - burn_in) / n_batches
    batch_acc = np.zeros(n_batches)
    t = 0.0
    for nums, tau, _i in _walk_oracle(net, (0,) * net.n_neurons, replica_rng(seed, 0), chunk):
        seg_a, seg_b = t, min(t + tau, horizon)
        if seg_b > burn_in:
            a = max(seg_a, burn_in)
            val = f(PotentialState(nums, den))
            ka = int((a - burn_in) / batch_len)
            kb = int((seg_b - burn_in) / batch_len)
            kb = min(kb, n_batches - 1)
            for k in range(ka, kb + 1):
                lo = burn_in + k * batch_len
                hi = lo + batch_len
                overlap = min(seg_b, hi) - max(a, lo)
                if overlap > 0:
                    batch_acc[k] += val * overlap
        t += tau
        if t >= horizon:
            break
    batch_means = batch_acc / batch_len
    mean = float(np.sum(batch_acc) / (horizon - burn_in))
    se = float(np.std(batch_means, ddof=1) / math.sqrt(n_batches))
    return simulate.EstimatorResult(mean=mean, std_error=se, n_samples=n_batches, seed=seed)


def _tail_oracle(net, r_grid, burn_in, horizon, seed, chunk=32):
    r_grid = np.asarray(r_grid, dtype=float)
    den = net.denominator
    occupation = np.zeros_like(r_grid)
    t = 0.0
    for nums, tau, _i in _walk_oracle(net, (0,) * net.n_neurons, replica_rng(seed, 0), chunk):
        seg = min(t + tau, horizon) - max(t, burn_in)
        if seg > 0:
            occupation += seg * (sum(nums) / den >= r_grid)
        t += tau
        if t >= horizon:
            break
    return occupation / (horizon - burn_in)


def _compensated_sum(xs):
    """builtin sum() of floats from Python 3.12 (Neumaier's compensation)."""
    hi = lo = 0.0
    for x in xs:
        t = hi + x
        lo += (hi - t) + x if abs(hi) >= abs(x) else (x - t) + hi
        hi = t
    return hi + lo if lo and math.isfinite(lo) else hi


def _total(y):
    return y.total()


def _square(y):
    return y.total() ** 2


class TestInternedWalker:
    """The interned-state walker and its array consumers against the old loops."""

    R_GRID = [1.0, 2.0, 3.5, 5.0]

    @pytest.fixture(scope="class", params=["ring2", "rand3", "rand4"])
    def net(self, request, ring2):
        if request.param == "ring2":
            return ring2
        return make_random_net(1) if request.param == "rand3" else make_random_net(5, n=4)

    def _assert_same(self, net, x0, horizon, burn_in, seed, n_batches=50, chunk=32):
        traj = simulate_path(net, x0, horizon, seed)
        assert traj == _path_oracle(net, x0, horizon, seed, chunk)
        assert all(type(ev.time) is float and type(ev.neuron) is int for ev in traj.events)
        if horizon > burn_in:
            for f in (_total, _square):
                got = ergodic_average(net, f, burn_in, horizon, seed, n_batches=n_batches)
                assert got == _ergodic_oracle(net, f, burn_in, horizon, seed, n_batches, chunk)
            got = empirical_tail(net, self.R_GRID, burn_in, horizon, seed)
            assert np.array_equal(got, _tail_oracle(net, self.R_GRID, burn_in, horizon, seed, chunk))
        return traj

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle(self, net, seed, monkeypatch):
        # with the cap lowered to 64 the walk reads refills of 32, then at
        # least three of 64 (TestTrajectoryEvents crosses the real cap)
        monkeypatch.setattr(simulate, "_CHUNK_CAP", 64)
        traj = self._assert_same(net, net.zero_state(), 60.0, 5.0, seed)
        assert len(traj.events) > 3 * simulate.CHUNK
        assert len(traj.events) > simulate.CHUNK + 2 * simulate._CHUNK_CAP

    def test_off_origin_start(self, net):
        x0 = PotentialState(tuple(range(1, net.n_neurons + 1)), net.denominator)
        for seed in range(5):
            self._assert_same(net, x0, 20.0, 1.0, seed)

    def test_zero_horizon(self, net):
        for seed in range(5):
            traj = self._assert_same(net, net.zero_state(), 0.0, 0.0, seed)
            assert traj.events == () and traj.final_state == net.zero_state()

    def test_horizon_at_an_event_time(self, net):
        # the event at exactly the horizon fires in simulate_path and closes
        # the occupation scans
        tau, _i = next_event(net, net.zero_state(), replica_rng(7, 0))
        assert len(self._assert_same(net, net.zero_state(), tau, 0.0, 7).events) == 1
        times = [ev.time for ev in simulate_path(net, net.zero_state(), 30.0, seed=7).events]
        for horizon in times[40:45]:
            traj = self._assert_same(net, net.zero_state(), horizon, 2.0, 7)
            assert traj.events[-1].time == horizon

    def _assert_states(self, net, horizon, seed):
        """The path and its scans match the oracles, and the interned states are
        the oracle's distinct pre-states in first-visit order, then the final state."""
        traj = self._assert_same(net, net.zero_state(), horizon, 0.0, seed)
        want = _path_oracle(net, net.zero_state(), horizon, seed)
        states = list(dict.fromkeys([ev.pre_state for ev in want.events] + [want.final_state]))
        assert list(traj.events.states) == states
        seen = []
        ergodic_average(net, lambda y: seen.append(y) or 1.0, 0.0, horizon, seed)
        assert seen == states
        return traj

    @pytest.mark.parametrize("seed", range(3))
    def test_cut_at_a_refill_boundary(self, net, seed, monkeypatch):
        # with the cap lowered to 64, refills start at events 32, 96 and 160;
        # the event that ends past the horizon is the last of one refill or
        # the first of the next
        monkeypatch.setattr(simulate, "_CHUNK_CAP", 64)
        times = simulate_path(net, net.zero_state(), 60.0, seed).events.times
        assert len(times) > 160
        for start in (32, 96, 160):
            for cut in (start - 1, start):
                # event cut - 1 fires at the horizon, so event cut ends past it
                traj = self._assert_states(net, float(times[cut - 1]), seed)
                assert len(traj.events) == cut

    @pytest.mark.parametrize("seed", range(3))
    def test_dropped_remainder_reaches_a_new_state(self, net, seed, monkeypatch):
        # the walk runs each refill to its end before the horizon cuts it, so
        # it interns the successor of the event that ends past the horizon;
        # here that is a state the path has not visited before
        monkeypatch.setattr(simulate, "_CHUNK_CAP", 64)
        events = simulate_path(net, net.zero_state(), 60.0, seed).events
        _states, first = np.unique(events.state_ids, return_index=True)
        j = int(first.max())  # the last event whose pre-state is new
        assert j >= 2
        traj = self._assert_states(net, float(events.times[j - 2] + events.times[j - 1]) / 2, seed)
        assert len(traj.events) == j - 1
        assert events[j].pre_state not in traj.events.states

    def test_burn_in_inside_a_segment(self, net):
        times = [ev.time for ev in simulate_path(net, net.zero_state(), 30.0, seed=9).events]
        for k in (5, 20, 60):
            burn_in = (times[k] + times[k + 1]) / 2
            self._assert_same(net, net.zero_state(), 30.0, burn_in, 9)

    def test_segments_span_many_windows(self, net):
        # windows of 0.004 are far shorter than a holding time
        for seed in range(3):
            self._assert_same(net, net.zero_state(), 4.0, 0.5, seed, n_batches=875)

    def test_chunk_of_one(self, net, monkeypatch):
        simulate._seeded_walk.cache_clear()
        monkeypatch.setattr(simulate, "CHUNK", 1)
        monkeypatch.setattr(simulate, "_CHUNK_CAP", 1)
        for seed in range(3):
            self._assert_same(net, net.zero_state(), 30.0, 3.0, seed)

    @pytest.mark.parametrize("scan_chunk", [1, 7, 64])
    def test_chunked_scans_match_oracle(self, net, scan_chunk, monkeypatch):
        monkeypatch.setattr(simulate, "SCAN_CHUNK", scan_chunk)
        for seed in range(3):
            self._assert_same(net, net.zero_state(), 30.0, 3.0, seed)

    def test_next_event_matches_oracle(self, net):
        # two uniforms per call, from any start
        x = PotentialState(tuple(range(net.n_neurons)), net.denominator)
        rng, ref = replica_rng(2, 3), replica_rng(2, 3)
        for _ in range(50):
            got = next_event(net, x, rng)
            nums, tau, i = next(_walk_oracle(net, x.numerators, ref, 1))
            assert got == (tau, i) and type(got[0]) is float and type(got[1]) is int
            x = jump_map(net, x, i)
        assert np.array_equal(rng.random(4), ref.random(4))

    def test_f_called_once_per_distinct_state(self, net):
        # once per state the path visits, those held only in the burn-in too
        seen = []
        ergodic_average(net, lambda y: seen.append(y) or 1.0, 1.0, 40.0, seed=3)
        traj = simulate_path(net, net.zero_state(), 40.0, seed=3)
        visited = {ev.pre_state for ev in traj.events} | {traj.final_state}
        assert len(seen) == len(set(seen)) and set(seen) == visited

    def test_total_rate_is_the_left_to_right_sum(self):
        # here builtin sum() from Python 3.12 differs from the left-to-right
        # sum in the last bit; the walker must keep the block kernel's total
        net = make_random_net(1)
        x = PotentialState((0, 2, 0), net.denominator)
        rates = [intensity_at(net, x, j) for j in range(3)]
        total = float(np.cumsum(rates)[-1])
        assert _compensated_sum(rates) != total
        exps, _us = simulate._draws(replica_rng(4, 0), 1)
        tau, _i = next_event(net, x, replica_rng(4, 0))
        assert tau == exps[0, 0] / total


class TestOccupationScans:
    """ergodic_average and empirical_tail read the path SCAN_CHUNK events at a time."""

    R_GRID = [1.0, 2.0, 4.0, 8.0]

    def _scans(self, net, horizon, seed):
        return (
            ergodic_average(net, _total, 100.0, horizon, seed),
            empirical_tail(net, self.R_GRID, 100.0, horizon, seed),
        )

    def test_long_path_matches_oracle(self):
        # rand3 at horizon 2,500: about 20,000 events, so two chunks
        net = make_random_net(1)
        assert len(simulate_path(net, net.zero_state(), 2500.0, 11).events) > simulate.SCAN_CHUNK
        average, tail = self._scans(net, 2500.0, 11)
        assert average == _ergodic_oracle(net, _total, 100.0, 2500.0, 11)
        assert np.array_equal(tail, _tail_oracle(net, self.R_GRID, 100.0, 2500.0, 11))

    def test_walk_keeps_16_bytes_an_event(self):
        # ids and picks as 4-byte integers, ends as 8-byte floats; the walk
        # joins the refills' pieces one column at a time
        net = make_random_net(1)
        simulate._seeded_walk.cache_clear()
        tracemalloc.start()
        try:
            _table, *columns = simulate._seeded_walk(
                net, net.zero_state().numerators, 15_000.0, 1001, simulate.CHUNK, simulate._CHUNK_CAP
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        events = len(columns[0])
        assert events > 100_000
        assert sum(column.nbytes for column in columns) == 16 * events
        assert peak <= 32.5 * events

    def test_peak_does_not_grow_with_the_horizon(self):
        # about 120,000 and 480,000 events; the walk is kept before tracing
        net = make_random_net(1)
        peaks = []
        for horizon in (15_000.0, 60_000.0):
            simulate_path(net, net.zero_state(), horizon, 1001)
            tracemalloc.start()
            try:
                self._scans(net, horizon, 1001)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[0] <= 40 * simulate.SCAN_CHUNK * 8


class TestTrajectoryEvents:
    """simulate_path keeps a path as columns and builds an event only when one is read."""

    HORIZON = 15_000.0  # about 120,000 events over under 200 distinct states
    SEED = 41

    @pytest.fixture(scope="class")
    def rand3(self):
        return make_random_net(1)

    @pytest.fixture(scope="class")
    def pair(self, rand3):
        x0 = rand3.zero_state()
        traj = simulate_path(rand3, x0, self.HORIZON, self.SEED)
        return traj, _path_oracle(rand3, x0, self.HORIZON, self.SEED)

    def test_reading_the_end_builds_one_event(self, rand3, monkeypatch):
        built = []
        event = simulate.TrajectoryEvent

        def counting(*args):
            built.append(args)
            return event(*args)

        monkeypatch.setattr(simulate, "TrajectoryEvent", counting)
        traj = simulate_path(rand3, rand3.zero_state(), self.HORIZON, self.SEED)
        n = len(traj.events)
        last = traj.events[-1]
        final = traj.final_state
        assert n > 100_000 and len(built) <= 1
        assert type(last) is event and last.time <= self.HORIZON
        assert final == jump_map(rand3, last.pre_state, last.neuron)

    def test_equal_to_the_tuple_of_events(self, pair):
        traj, want = pair
        events, ref = traj.events, want.events
        assert isinstance(ref, tuple) and not isinstance(events, tuple)
        assert traj == want and want == traj
        assert events == ref and ref == events and events == list(ref)
        assert hash(traj) == hash(want) and hash(events) == hash(ref)
        assert events != ref[:-1] and events != ref[:-1] + ref[:1] and events != ()
        assert all(type(ev.time) is float and type(ev.neuron) is int for ev in events[:50])

    def test_indices_and_slices(self, pair):
        traj, want = pair
        events, ref = traj.events, want.events
        n = len(ref)
        assert len(events) == n and events
        for k in (0, 1, n // 2, n - 1, -1, -2, -n, np.int64(7)):
            assert events[k] == ref[k]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                events[k]
        for key in (slice(0, 5), slice(-3, None), slice(None, None, 997), slice(40, 2, -3),
                    slice(n + 5, None)):
            got = events[key]
            assert type(got) is tuple and got == ref[key]
        assert next(reversed(events)) == ref[-1] and events.index(ref[2]) == 2

    def test_columns_are_read_only(self, rand3, pair):
        events = pair[0].events
        copied = pickle.loads(pickle.dumps(pair[0]))
        assert copied == pair[0] and copied.events == events
        for column in (events.times, events.neurons, events.state_ids,
                       copied.events.times, copied.events.state_ids):
            with pytest.raises(ValueError):
                column[0] = 1
        assert type(events.states) is tuple and len(events.states) < 200
        assert not simulate_path(rand3, rand3.zero_state(), 0.0, 0).events


class TestSeededWalk:
    """simulate_path and the occupation scans of one (net, horizon, seed) share one walk."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        walk = simulate._walk

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(simulate, "_walk", counted)
        return calls

    def test_one_walk_serves_all_three(self, ring2, walks):
        simulate_path(ring2, ring2.zero_state(), 30.0, 4)
        ergodic_average(ring2, _total, 1.0, 30.0, 4)
        ergodic_average(ring2, _square, 2.0, 30.0, 4, n_batches=7)
        empirical_tail(ring2, [1.0, 2.0], 1.0, 30.0, 4)
        assert len(walks) == 1

    def test_each_input_walks_again(self, ring2, walks, monkeypatch):
        rand3 = make_random_net(1)
        x = rand3.state([1, 0, 2])
        runs = [
            lambda: simulate_path(ring2, ring2.zero_state(), 30.0, 4),
            lambda: simulate_path(rand3, rand3.zero_state(), 30.0, 4),  # the net
            lambda: simulate_path(rand3, x, 30.0, 4),  # the start
            lambda: simulate_path(rand3, x, 31.0, 4),  # the horizon
            lambda: simulate_path(rand3, x, 31.0, 5),  # the seed
        ]
        for k, run in enumerate(runs, 1):
            run()
            run()
            assert len(walks) == k
        monkeypatch.setattr(simulate, "_CHUNK_CAP", 64)
        runs[-1]()
        assert len(walks) == len(runs) + 1
        monkeypatch.setattr(simulate, "CHUNK", 16)
        runs[-1]()
        assert len(walks) == len(runs) + 2

    def test_columns_cannot_be_made_writeable(self, ring2):
        traj = simulate_path(ring2, ring2.zero_state(), 30.0, 4)
        events = traj.events
        for column in (events.times, events.neurons, events.state_ids):
            with pytest.raises(ValueError):
                column.flags.writeable = True
        assert simulate_path(ring2, ring2.zero_state(), 30.0, 4) == traj
