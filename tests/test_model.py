"""Core model: rates, jumps, generator algebra, drift constants, jump windows."""

import ast
import importlib
import inspect
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pjmp
from pjmp import (
    IntensityFunction,
    PotentialState,
    SynapticNetwork,
    apply_generator,
    carre_du_champ,
    check_lyapunov_pointwise,
    intensity_at,
    jump_map,
    jump_window_probabilities,
    lyapunov_constants,
    network_from_json,
    network_to_json,
    total_intensity,
)


def V(y):
    return 1.0 + y.total()


class TestRationals:
    def test_json_accepts_int_string_and_decimal(self):
        net = network_from_json(
            {
                "n": 2,
                "weights": [[0, "1/2"], ["0.25", 0]],
                "intensity": {"delta": "1.5", "slope": 2},
            }
        )
        assert net.weights[0][1] == Fraction(1, 2)
        assert net.weights[1][0] == Fraction(1, 4)
        assert net.intensity.delta == Fraction(3, 2)
        assert net.denominator == 4

    def test_roundtrip(self, ring2):
        assert network_from_json(network_to_json(ring2)) == ring2

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative weight"):
            network_from_json(
                {"n": 2, "weights": [[0, "-1"], [1, 0]], "intensity": {"delta": 1, "slope": 1}}
            )

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            network_from_json(
                {"n": 2, "weights": [[1, 1], [1, 0]], "intensity": {"delta": 1, "slope": 1}}
            )

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(ValueError):
            IntensityFunction(delta=Fraction(0), slope=Fraction(1))

    def test_values_must_fit_int64_and_float(self):
        # the race kernel's int64 weight table holds a numerator of 2**63 - 1,
        # over the shared denominator 3 here, and no more
        def net(w, delta=Fraction(3, 2)):
            weights = ((Fraction(0), Fraction(1, 3)), (w, Fraction(0)))
            return SynapticNetwork(2, weights, IntensityFunction(delta, Fraction(3, 2)))

        assert net(Fraction(2**63 - 1, 3)).weight_numerators[1][0] == 2**63 - 1
        for w in (Fraction(2**63, 3), Fraction(10**300), Fraction(10**400)):
            with pytest.raises(ValueError, match=r"weight at \(1,0\) .* int64 range"):
                net(w)
        with pytest.raises(ValueError, match="delta and slope must lie within float range"):
            net(Fraction(1), delta=Fraction(10**400))

    def test_state_must_be_on_lattice(self, ring2):
        with pytest.raises(ValueError):
            ring2.state([0.5, 0])


class TestIntensity:
    def test_direct_values(self, ring2):
        assert intensity_at(ring2, ring2.state([1, 0]), 0) == 3.0
        assert intensity_at(ring2, ring2.state([2, 0]), 0) == 4.5

    def test_floor_at_zero(self, ring2):
        assert intensity_at(ring2, ring2.zero_state(), 0) == float(ring2.intensity.delta)

    def test_index_out_of_range(self, ring2):
        with pytest.raises(IndexError):
            intensity_at(ring2, ring2.zero_state(), 2)

    def test_strictly_increasing_in_potential(self, ring2):
        vals = [intensity_at(ring2, ring2.state([k, 0]), 0) for k in range(10)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_total_intensity(self, ring2, single1):
        assert total_intensity(ring2, ring2.zero_state()) == 3.0
        assert total_intensity(ring2, ring2.state([1, 0])) == 4.5
        assert total_intensity(single1, single1.zero_state()) == 1.5


class TestJumpMap:
    def test_ring_examples(self, ring2):
        x = ring2.state([1, 0])
        assert jump_map(ring2, x, 0).numerators == (0, 1)
        assert jump_map(ring2, x, 1).numerators == (2, 0)

    def test_zero_weights_only_reset(self, zero2):
        x = zero2.state([3, 4])
        assert jump_map(zero2, x, 0).numerators == (0, 4)
        assert jump_map(zero2, x, 1).numerators == (3, 0)

    @given(
        nums=st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3),
        i=st.integers(min_value=0, max_value=2),
    )
    def test_lattice_closure(self, nums, i):
        # half-integer weights: every jump must stay on the shared lattice
        net = SynapticNetwork(
            n_neurons=3,
            weights=tuple(
                tuple(Fraction(0) if a == b else Fraction(1, 2) for b in range(3))
                for a in range(3)
            ),
            intensity=IntensityFunction(delta=Fraction(2), slope=Fraction(2)),
        )
        x = PotentialState(tuple(nums), net.denominator)
        y = jump_map(net, x, i)
        assert y.denominator == x.denominator
        assert all(isinstance(v, int) and v >= 0 for v in y.numerators)
        assert y.numerators[i] == 0


class TestGenerator:
    def test_sum_function_at_origin(self, ring2):
        assert apply_generator(ring2, lambda y: y.total(), ring2.zero_state()) == pytest.approx(3.0)

    def test_constant_function_vanishes(self, ring2):
        assert apply_generator(ring2, lambda y: 7.25, ring2.state([3, 1])) == 0.0

    def test_drift_function_example(self, ring2):
        assert apply_generator(ring2, V, ring2.state([1, 0])) == pytest.approx(1.5)

    def test_carre_du_champ_example(self, ring2):
        got = carre_du_champ(ring2, lambda y: y.value(0), ring2.state([1, 0]))
        assert got == pytest.approx(2.25)

    def test_carre_du_champ_constant(self, ring2):
        assert carre_du_champ(ring2, lambda y: -2.0, ring2.state([4, 2])) == 0.0

    def test_carre_du_champ_nonnegative_and_identity(self, ring2, random_nets):
        rng = np.random.default_rng(42)
        for net in [ring2] + random_nets:
            for _ in range(20):
                nums = tuple(int(v) for v in rng.integers(0, 6, net.n_neurons))
                x = PotentialState(nums, net.denominator)
                nearby = [x] + [jump_map(net, x, i) for i in range(net.n_neurons)]
                table = {y: float(rng.standard_normal()) for y in nearby}
                f = table.__getitem__

                gamma = carre_du_champ(net, f, x)
                ident = 0.5 * (
                    apply_generator(net, lambda y: f(y) ** 2, x)
                    - 2.0 * f(x) * apply_generator(net, f, x)
                )
                assert gamma >= 0.0
                assert gamma == pytest.approx(ident, rel=1e-12, abs=1e-12)


class TestLyapunov:
    def test_exact_reference_constants(self, ring2):
        cert = lyapunov_constants(ring2, 0.8)
        assert cert.theta == 1.2
        assert cert.b == 10.2
        assert cert.m == 34.0
        assert cert.strong

    def test_zero_weights_leave_b_at_theta(self, zero2):
        cert = lyapunov_constants(zero2, 0.8)
        assert cert.b == cert.theta

    def test_m_blows_up_as_alpha_approaches_one(self, ring2):
        ms = [lyapunov_constants(ring2, a).m for a in (0.9, 0.99, 0.999, 0.9999)]
        assert all(a < b for a, b in zip(ms, ms[1:]))
        assert ms[-1] > 1e4

    def test_alpha_range_enforced(self, ring2):
        for bad in (0, 1, -0.1, 1.5):
            with pytest.raises(ValueError):
                lyapunov_constants(ring2, bad)

    def test_pointwise_slack_examples(self, ring2):
        cert = lyapunov_constants(ring2, 0.8)
        assert check_lyapunov_pointwise(ring2, cert, ring2.state([1, 0])) == pytest.approx(6.3)
        assert check_lyapunov_pointwise(ring2, cert, ring2.zero_state()) == pytest.approx(6.0)

    def test_slack_nonnegative_far_out(self, ring2):
        cert = lyapunov_constants(ring2, 0.8)
        for k in (10, 50, 200, 1000):
            assert check_lyapunov_pointwise(ring2, cert, ring2.state([k, 0])) >= 0.0
            assert check_lyapunov_pointwise(ring2, cert, ring2.state([k, k])) >= 0.0

    def test_slack_sweep_strong_drift(self, random_nets):
        # delta, slope > 1 on these nets, so alpha = 0.95 pushes the drift
        # rate above 1; the inequality must still hold at every box state
        from pjmp import enumerate_states

        for net in random_nets:
            cert = lyapunov_constants(net, 0.95)
            assert cert.strong
            space = enumerate_states(net, net.zero_state(), 4.0)
            for x in space.states:
                assert check_lyapunov_pointwise(net, cert, x) >= -1e-12

    def test_slack_past_int64_is_refused(self):
        # every weight 2^61: at x = (0, 2^61, 2^61) neuron 0's firing lands on
        # a total of 2^63, which an int64 sum wraps to -2^63 (a finite slack);
        # one below, it lands on 2^63 - 1 and the slack is exact
        w = 2**61
        net = network_from_json(
            {"n": 3, "weights": [[0, w, w], [w, 0, w], [w, w, 0]],
             "intensity": {"delta": 1, "slope": Fraction(1, 2**62)}}
        )
        cert = lyapunov_constants(net)
        refused = "^potential numerator sums exceed the int64 range$"
        with pytest.raises(ValueError, match=refused):
            check_lyapunov_pointwise(net, cert, net.state([0, w, w]))
        with pytest.raises(ValueError, match=refused):  # the array form, one row past
            check_lyapunov_pointwise(net, cert, np.array([[0, w - 1, w - 1], [0, w, w]]))
        x = (0, w, w - 1)
        v = 1 + sum(x)
        lv = sum((1 + Fraction(xi, 2**62)) * (2 * w - xi) for xi in x)
        exact = -Fraction(cert.theta) * v + (Fraction(cert.b) if sum(x) <= cert.m else 0) - lv
        assert check_lyapunov_pointwise(net, cert, net.state(x)) == float(exact)


class TestJumpWindow:
    def test_reference_values(self, ring2):
        w = jump_window_probabilities(ring2, ring2.zero_state(), 0, 1.0)
        assert w.p_no_jump == pytest.approx(math.exp(-3.0), rel=1e-12)
        assert w.p_one_jump == pytest.approx(math.exp(-3.0) - math.exp(-4.5), rel=1e-12)
        assert w.t_peak == pytest.approx((math.log(4.5) - math.log(3.0)) / 1.5, rel=1e-12)

    def test_zero_window(self, ring2):
        w = jump_window_probabilities(ring2, ring2.zero_state(), 1, 0.0)
        assert w.p_no_jump == 1.0
        assert w.p_one_jump == 0.0

    def test_negative_window_rejected(self, ring2):
        with pytest.raises(ValueError):
            jump_window_probabilities(ring2, ring2.zero_state(), 0, -0.5)

    def test_probabilities_in_unit_interval(self, ring2):
        for s in np.linspace(0.0, 5.0, 40):
            for i in (0, 1):
                w = jump_window_probabilities(ring2, ring2.state([2, 1]), i, float(s))
                assert 0.0 <= w.p_no_jump <= 1.0
                assert 0.0 <= w.p_one_jump <= 1.0

    def test_equal_totals_branch(self, ring2):
        # firing neuron 0 from (1, 0) preserves the total potential, so the
        # two total rates coincide and the peak sits at 1/total
        x = ring2.state([1, 0])
        assert total_intensity(ring2, x) == total_intensity(ring2, jump_map(ring2, x, 0))
        w = jump_window_probabilities(ring2, x, 0, 0.5)
        assert w.t_peak == pytest.approx(1.0 / 4.5, rel=1e-12)
        assert w.p_one_jump == pytest.approx(0.5 * 3.0 * math.exp(-0.5 * 4.5), rel=1e-12)

    def test_unimodal_in_s(self, ring2):
        peak = jump_window_probabilities(ring2, ring2.zero_state(), 0, 0.0).t_peak
        grid = np.linspace(1e-4, 4 * peak, 100)
        vals = [
            jump_window_probabilities(ring2, ring2.zero_state(), 0, float(s)).p_one_jump
            for s in grid
        ]
        for k in range(len(grid) - 1):
            if grid[k + 1] <= peak:
                assert vals[k + 1] > vals[k]
            elif grid[k] >= peak:
                assert vals[k + 1] < vals[k]

    @pytest.mark.parametrize("denom_pow", [9, 12])
    def test_near_equal_totals_is_stable(self, denom_pow):
        # totals differing around the branch tolerance, on either side, must
        # both land on the equal-totals limit value without cancellation
        big = 10**denom_pow
        net = SynapticNetwork(
            n_neurons=2,
            weights=((Fraction(0), Fraction(big, big + 1)), (Fraction(1), Fraction(0))),
            intensity=IntensityFunction(delta=Fraction(3, 2), slope=Fraction(3, 2)),
        )
        x = PotentialState((net.denominator, 0), net.denominator)  # x0 = 1, row sum ~ 1
        w = jump_window_probabilities(net, x, 0, 0.7)
        limit = 0.7 * intensity_at(net, x, 0) * math.exp(-0.7 * total_intensity(net, x))
        assert w.p_one_jump == pytest.approx(limit, rel=1e-8)


# the package's public names: each module's __all__, and the five modules
PUBLIC_NAMES = """
    ConcentrationCertificate DegenerateModelError
    EnumeratedSpace EstimatorResult GapResult IntensityFunction JumpWindow
    LyapunovCertificate PathMethodReport PotentialState SemigroupReport SparseGenerator
    StateSpaceCapExceeded StationaryDistribution SynapticNetwork TalagrandReport
    TalagrandRow Trajectory TrajectoryEvent TrajectoryEvents admissible_lambda
    apply_generator assemble_generator carre_du_champ certificates
    check_lyapunov_pointwise compute_C3_sum_function empirical_tail
    enumerate_states ergodic_average estimate_ensemble estimate_semigroup
    estimate_weight_F gamma_vector intensity_at jump_map jump_window_probabilities
    lambda0_product lyapunov_constants make_function_suite max_peak_time
    model network_from_json network_to_json next_event
    path_method_C0 poincare_constant propagate_function saturate
    semigroup_poincare_report semigroup_variance_profile simulate simulate_path
    solve_admissible_lambda spectral statespace stationary talagrand_verdict
    total_intensity transient_distribution variance_and_energy weighted_F_exact
    weighted_F_vector
""".split()


BENCH = Path(__file__).resolve().parent.parent / "bench"

# the parameters bench/tracing.py binds by name to count series terms and replicas
TRACER_READS = {
    ("spectral", "propagate_function"): {"gen", "t", "eps", "f"},
    ("spectral", "weighted_F_vector"): {"gen", "t", "eps", "phibar"},
    ("simulate", "estimate_semigroup"): {"n_replicas"},
    ("simulate", "estimate_weight_F"): {"n_replicas"},
}


def _pjmp_dotted(node):
    """'pjmp.a.b' for an attribute chain rooted at the name pjmp, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if parts and isinstance(node, ast.Name) and node.id == "pjmp":
        return ".".join(["pjmp", *reversed(parts)])
    return None


class TestPublicNames:
    def test_package_republishes_each_module(self):
        modules = ("model", "simulate", "statespace", "spectral", "certificates")
        names = {name for mod in modules for name in getattr(pjmp, mod).__all__}
        assert pjmp.__all__ == sorted(names | set(modules)) == PUBLIC_NAMES

    def test_functions_of_the_law_take_the_law_alone(self):
        # mu carries the generator it was solved from, so a function that
        # also took a generator or space could be handed one mu was not
        for mod in (pjmp.spectral, pjmp.certificates):
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    params = set(inspect.signature(obj).parameters)
                    assert "mu" not in params or not params & {"gen", "space"}, name

    def test_benchmark_names_resolve(self):
        # bench/*.py reads these; bench/make_reference.py runs in no CI step
        names = set()
        for path in sorted(BENCH.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "pjmp":
                            importlib.import_module(alias.name)
                elif (name := _pjmp_dotted(node)) is not None:
                    names.add(name)
        assert "pjmp.weighted_F_exact" in names and "pjmp.simulate.ergodic_average" in names
        for name in sorted(names):
            obj = pjmp
            for attr in name.split(".")[1:]:
                assert hasattr(obj, attr), f"bench/ reads {name}"
                obj = getattr(obj, attr)

    def test_benchmark_traced_functions(self):
        tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
        (traced,) = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
        ]
        pairs = {(mod, fn_name) for mod, fn_name, _metric in traced}
        assert set(TRACER_READS) <= pairs
        for mod, fn_name in sorted(pairs):
            fn = getattr(importlib.import_module(f"pjmp.{mod}"), fn_name)
            assert fn.__name__ == fn_name  # the tracer finds its counters by __name__
            params = set(inspect.signature(fn).parameters)
            missing = TRACER_READS.get((mod, fn_name), set()) - params
            assert not missing, f"bench/tracing.py binds {sorted(missing)} of {mod}.{fn_name}"
