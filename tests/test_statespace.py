"""Enumeration, saturation policy, generator assembly."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pjmp import (
    PotentialState,
    StateSpaceCapExceeded,
    apply_generator,
    assemble_generator,
    enumerate_states,
    jump_map,
    network_from_json,
    saturate,
)
from pjmp.model import _jumped_totals


class TestSaturate:
    def test_inside_box_untouched(self, ring2):
        x = ring2.state([2, 0])
        assert saturate(x, 34.0) is x

    def test_cap_applied(self, ring2):
        assert saturate(ring2.state([40, 0]), 34.0).numerators == (34, 0)

    def test_fractional_box_on_half_lattice(self):
        # denominator 2: largest lattice value <= 2.3 is 2.0 (numerator 4)
        x = PotentialState((7, 1), 2)
        assert saturate(x, 2.3).numerators == (4, 1)

    def test_rejects_nonpositive_box(self, ring2):
        with pytest.raises(ValueError):
            saturate(ring2.zero_state(), 0.0)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=2))
    def test_idempotent(self, nums):
        x = PotentialState(tuple(nums), 1)
        once = saturate(x, 7.0)
        assert saturate(once, 7.0) == once


class TestEnumerate:
    def test_ring2_box5_is_two_rays(self, ring2):
        space = enumerate_states(ring2, ring2.zero_state(), 5.0)
        got = {s.numerators for s in space.states}
        expected = {(0, 0)} | {(k, 0) for k in range(1, 6)} | {(0, k) for k in range(1, 6)}
        assert got == expected
        assert len(space) == 11

    def test_zero_weights_single_state(self, zero2):
        space = enumerate_states(zero2, zero2.zero_state(), 5.0)
        assert len(space) == 1

    def test_single_neuron_two_states(self, single1):
        space = enumerate_states(single1, single1.state([3]), 5.0)
        assert {s.numerators for s in space.states} == {(3,), (0,)}

    def test_box_monotone_ring(self, ring2):
        small = enumerate_states(ring2, ring2.zero_state(), 4.0)
        large = enumerate_states(ring2, ring2.zero_state(), 8.0)
        assert set(small.states) <= set(large.states)

    def test_box_monotone_within_box_reachability(self, random_nets):
        # Saturation can manufacture boundary states that a larger box never
        # visits, so inclusion is asserted for the states reachable through
        # paths that stay inside the box (no saturation involved).
        def reachable_inside(net, m_box):
            start = net.zero_state()
            seen = {start}
            queue = [start]
            while queue:
                x = queue.pop()
                for i in range(net.n_neurons):
                    y = jump_map(net, x, i)
                    if saturate(y, m_box) == y and y not in seen:
                        seen.add(y)
                        queue.append(y)
            return seen

        for net in random_nets:
            r_small = reachable_inside(net, 4.0)
            r_large = reachable_inside(net, 8.0)
            space_small = enumerate_states(net, net.zero_state(), 4.0)
            space_large = enumerate_states(net, net.zero_state(), 8.0)
            assert r_small <= r_large
            assert r_small <= set(space_small.states)
            assert r_large <= set(space_large.states)

    def test_deterministic_ordering(self, random_nets):
        net = random_nets[0]
        a = enumerate_states(net, net.zero_state(), 6.0)
        b = enumerate_states(net, net.zero_state(), 6.0)
        assert a.states == b.states

    def test_no_duplicates(self, random_nets):
        for net in random_nets:
            space = enumerate_states(net, net.zero_state(), 6.0)
            assert len(set(space.states)) == len(space)

    def test_cap_enforced(self, ring2):
        with pytest.raises(StateSpaceCapExceeded):
            enumerate_states(ring2, ring2.zero_state(), 50.0, max_states=20)

    def test_numerator_past_int64_is_refused(self):
        # a firing of neuron 0 adds 2^62: from 2^62 - 1 the next one lands on
        # 2^63 - 1, the largest int64, and from 2^62 it would pass it
        net = network_from_json(
            {"n": 2, "weights": [[0, 2**62], [0, 0]], "intensity": {"delta": 1, "slope": 1}}
        )
        assert enumerate_states(net, net.zero_state(), 2**62 - 1).numerators.max() == 2**62 - 1
        with pytest.raises(ValueError, match="^potential numerators exceed the int64 range$"):
            enumerate_states(net, net.zero_state(), 2**62)

    def test_total_past_int64_is_refused(self):
        # three neurons, every weight 2^61: at box c the largest total is 2c
        # and a firing adds 2^62, so 2^61 - 1 fits (2^63 - 2) and 2^61 does not
        w = 2**61
        weights = [[0, w, w], [w, 0, w], [w, w, 0]]
        net = network_from_json(
            {"n": 3, "weights": weights, "intensity": {"delta": 1, "slope": "1/4611686018427387904"}}
        )
        space = enumerate_states(net, net.zero_state(), 2**61 - 1)
        rows = space.numerators.tolist()
        totals = [sum(row) for row in rows]
        assert max(totals) == 2**62 - 2
        assert space.numerators.sum(axis=1).tolist() == totals
        jumped = [[t - x + 2 * w for x in row] for t, row in zip(totals, rows)]
        assert _jumped_totals(net, space.numerators).tolist() == jumped
        for m_box in (2**61, 2**62):
            with pytest.raises(ValueError, match="^potential numerator sums exceed the int64 range$"):
                enumerate_states(net, net.zero_state(), m_box)

    def test_origin_saturated(self, ring2):
        space = enumerate_states(ring2, ring2.state([99, 0]), 5.0)
        assert space.origin.numerators == (5, 0)


class TestGenerator:
    def test_rows_sum_to_zero(self, ring2, random_nets):
        for net in [ring2] + random_nets:
            space = enumerate_states(net, net.zero_state(), 6.0)
            gen = assemble_generator(net, space)
            assert np.abs(gen.matrix.sum(axis=1)).max() <= 1e-12

    def test_origin_row(self, ring2):
        space = enumerate_states(ring2, ring2.zero_state(), 5.0)
        gen = assemble_generator(ring2, space)
        k = space.position(ring2.zero_state())
        row = gen.matrix.getrow(k).toarray().ravel()
        assert row[space.position(ring2.state([0, 1]))] == pytest.approx(1.5)
        assert row[space.position(ring2.state([1, 0]))] == pytest.approx(1.5)
        assert row[k] == pytest.approx(-3.0)
        assert np.count_nonzero(row) == 3

    def test_at_most_n_offdiagonals_per_row(self, random_nets):
        for net in random_nets:
            space = enumerate_states(net, net.zero_state(), 5.0)
            gen = assemble_generator(net, space)
            q = gen.matrix.toarray()
            np.fill_diagonal(q, 0.0)
            assert (np.count_nonzero(q, axis=1) <= net.n_neurons).all()

    def test_boundary_self_jump_dropped(self, ring2):
        space = enumerate_states(ring2, ring2.zero_state(), 5.0)
        gen = assemble_generator(ring2, space)
        k = space.position(ring2.state([5, 0]))
        row = gen.matrix.getrow(k).toarray().ravel()
        # neuron 1 would push past the cap and lands back on the same state;
        # only the reset by neuron 0 remains visible
        assert row[space.position(ring2.state([0, 1]))] == pytest.approx(9.0)
        assert row[k] == pytest.approx(-9.0)
        assert np.count_nonzero(row) == 2

    def test_matrix_matches_generator_on_interior(self, ring2, random_nets):
        rng = np.random.default_rng(5)
        for net in [ring2] + random_nets:
            space = enumerate_states(net, net.zero_state(), 6.0)
            gen = assemble_generator(net, space)
            interior = space.interior_mask()
            assert interior.any()
            fvec = rng.standard_normal(len(space))
            table = dict(zip(space.states, fvec))
            lf = gen.matrix @ fvec
            for k, x in enumerate(space.states):
                if not interior[k]:
                    continue
                direct = apply_generator(net, table.__getitem__, x)
                assert lf[k] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_wrong_space_rejected(self, ring2, zero2):
        space = enumerate_states(ring2, ring2.zero_state(), 5.0)
        with pytest.raises(ValueError):
            assemble_generator(zero2, space)

