"""The enumeration tables against the object-walking loops they replaced.

Every function that reads ``EnumeratedSpace``'s numerator, target and
saturation tables once walked ``PotentialState`` objects state by state and
neuron by neuron. Those loops live on here as oracles, and the array forms
must reproduce them bit for bit: enumeration order, generator CSR arrays,
masks, drift slacks, peak times and the support firing graph.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import pjmp.certificates as certificates
from conftest import make_random_net
from pjmp import (
    IntensityFunction,
    PotentialState,
    StateSpaceCapExceeded,
    SynapticNetwork,
    apply_generator,
    assemble_generator,
    check_lyapunov_pointwise,
    enumerate_states,
    intensity_at,
    jump_map,
    jump_window_probabilities,
    lyapunov_constants,
    network_from_json,
    saturate,
)
from pjmp.statespace import DEFAULT_MAX_STATES

# -- oracles: the loops as they stood before the tables -------------------------


def _enumerate_oracle(net, x0, m_box, max_states=DEFAULT_MAX_STATES):
    """Breadth-first closure, one PotentialState at a time."""
    origin = saturate(x0, m_box)
    seen = {origin}
    order = [origin]
    frontier = [origin]
    while frontier:
        discovered = set()
        for x in sorted(frontier, key=lambda s: s.numerators):
            for i in range(net.n_neurons):
                y = saturate(jump_map(net, x, i), m_box)
                if y not in seen:
                    seen.add(y)
                    discovered.add(y)
        frontier = sorted(discovered, key=lambda s: s.numerators)
        order.extend(frontier)
        if len(order) > max_states:
            raise StateSpaceCapExceeded(
                f"box m_box={m_box} holds more than {max_states} reachable states; "
                f"raise max_states or shrink the box"
            )
    return order


def _assemble_oracle(net, states, m_box):
    position = {s: k for k, s in enumerate(states)}
    rows, cols, vals = [], [], []
    diag = np.zeros(len(states))
    for k, x in enumerate(states):
        for i in range(net.n_neurons):
            y = saturate(jump_map(net, x, i), m_box)
            if y == x:
                continue
            rows.append(k)
            cols.append(position[y])
            vals.append(intensity_at(net, x, i))
            diag[k] -= vals[-1]
    n = len(states)
    off = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    q = (off + sp.diags(diag)).tocsr()
    q.sum_duplicates()
    return q


def _interior_oracle(net, states, m_box):
    out = np.zeros(len(states), dtype=bool)
    for k, x in enumerate(states):
        targets = [jump_map(net, x, i) for i in range(net.n_neurons)]
        out[k] = all(saturate(y, m_box) == y for y in targets)
    return out


def _slack_oracle(net, cert, x):
    v = 1.0 + x.total()
    in_b = x.total() <= cert.m
    lv = apply_generator(net, lambda y: 1.0 + y.total(), x)
    return (-cert.theta * v + (cert.b if in_b else 0.0)) - lv


def _adjacency_oracle(net, states, m_box, support):
    position = {s: k for k, s in enumerate(states)}
    pos_in_supp = {int(k): j for j, k in enumerate(support)}
    src, dst = [], []
    for j, k in enumerate(support):
        x = states[int(k)]
        for i in range(net.n_neurons):
            y = saturate(jump_map(net, x, i), m_box)
            tj = pos_in_supp.get(position[y])
            if tj is not None and tj != j:
                src.append(j)
                dst.append(tj)
    ns = len(support)
    return sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(ns, ns))


def _max_peak_time_oracle(net, states):
    worst = 0.0
    for x in states:
        for i in range(net.n_neurons):
            worst = max(worst, jump_window_probabilities(net, x, i, 0.0).t_peak)
    return worst


# -- the comparison -------------------------------------------------------------


def assert_tables_match(net, m_box, x0=None, seed=0):
    x0 = net.zero_state() if x0 is None else x0
    states = _enumerate_oracle(net, x0, m_box)
    space = enumerate_states(net, x0, m_box)

    want = np.array([s.numerators for s in states], dtype=np.int64)
    assert space.numerators.dtype == np.int64
    assert np.array_equal(space.numerators, want)
    assert space.states == tuple(states)
    assert space.origin == states[0]

    gen = assemble_generator(net, space)
    q = gen.matrix
    q_want = _assemble_oracle(net, states, m_box)
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(q, name), getattr(q_want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name

    assert np.array_equal(space.interior_mask(), _interior_oracle(net, states, m_box))
    cert = lyapunov_constants(net)
    slacks = check_lyapunov_pointwise(net, cert, space.numerators)
    assert np.array_equal(slacks, [_slack_oracle(net, cert, x) for x in states])
    assert certificates.max_peak_time(space) == _max_peak_time_oracle(net, states)

    # a random support (the origin kept, so it is never empty): jumps that
    # leave it must drop out of the firing graph, which the path method
    # reads as the positive pattern of the support generator
    rng = np.random.default_rng(seed)
    n = len(states)
    support = np.union1d(np.flatnonzero(rng.random(n) < 0.7), [0])
    adj = q[support][:, support] > 0
    adj_want = _adjacency_oracle(net, states, m_box, support) > 0
    assert (adj != adj_want).nnz == 0


BENCH_MODELS = Path(__file__).resolve().parent.parent / "bench" / "models"


def _bench_net(name):
    return network_from_json(str(BENCH_MODELS / f"{name}.json"))


LADDER = [
    ("ring2", None),
    ("ring2", 10.0),
    ("rand3", 8.0),
    ("rand3", 10.0),
    ("rand3", 40.0),
    ("rand4", 8.0),
    ("rand4", 12.0),
]


class TestTablesMatchOracle:
    @pytest.mark.parametrize("model, m_box", LADDER)
    def test_bench_ladder(self, model, m_box):
        net = _bench_net(model)
        if m_box is None:  # the CLI default: drift m
            m_box = lyapunov_constants(net).m
        assert_tables_match(net, m_box)

    def test_origin_off_zero_and_saturated(self, ring2):
        assert_tables_match(ring2, 5.0, x0=ring2.state([99, 2]))
        assert_tables_match(make_random_net(2), 3.5, x0=make_random_net(2).state([1, 4, 0.5]))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        weights=st.lists(st.sampled_from(["0", "1/2", "1", "3/2", "2"]), min_size=16, max_size=16),
        rates=st.tuples(st.sampled_from(["1/2", "1", "3/2", "11/5"]), st.sampled_from(["1/3", "1", "2"])),
        box=st.sampled_from([0.5, 1.0, 1.5, 2.3, 2.5, 3.0, 3.75, 4.0]),
        start=st.lists(st.integers(0, 12), min_size=4, max_size=4),
    )
    def test_random_small_nets(self, n, weights, rates, box, start):
        w = [[Fraction(0) if i == j else Fraction(weights[4 * i + j]) for j in range(n)] for i in range(n)]
        net = SynapticNetwork(
            n_neurons=n,
            weights=tuple(map(tuple, w)),
            intensity=IntensityFunction(delta=Fraction(rates[0]), slope=Fraction(rates[1])),
        )
        box = min(box, 6.0 / n)  # keeps the N = 4 boxes to a few hundred states
        x0 = PotentialState(tuple(start[:n]), net.denominator)
        assert_tables_match(net, box, x0=x0)


class TestHugeBox:
    """Boxes whose cap numerator (and so any mixed-radix key) overflows int64."""

    @pytest.mark.parametrize("m_box", [1e300, 10**30, Fraction(10**40, 3)])
    def test_finite_closure_as_oracle(self, single1, zero2, m_box):
        assert_tables_match(single1, m_box, x0=single1.state([3]))
        assert_tables_match(zero2, m_box, x0=zero2.state([2, 7]))

    def test_cap_exceeded_as_oracle(self, ring2):
        with pytest.raises(StateSpaceCapExceeded) as want:
            _enumerate_oracle(ring2, ring2.zero_state(), 1e300, max_states=500)
        with pytest.raises(StateSpaceCapExceeded) as got:
            enumerate_states(ring2, ring2.zero_state(), 1e300, max_states=500)
        assert str(got.value) == str(want.value)

    def test_numerators_beyond_int64_refused(self):
        big = Fraction(2**62)
        net = SynapticNetwork(
            n_neurons=2,
            weights=((Fraction(0), big), (big, Fraction(0))),
            intensity=IntensityFunction(delta=Fraction(1), slope=Fraction(1)),
        )
        with pytest.raises(ValueError, match="int64"):
            enumerate_states(net, net.zero_state(), 1e300)


class TestBoxValidation:
    @pytest.mark.parametrize("m_box", [float("inf"), float("nan"), -1.0, 0.0, float("-inf")])
    def test_refused_once(self, ring2, m_box):
        with pytest.raises(ValueError, match="finite and positive"):
            enumerate_states(ring2, ring2.zero_state(), m_box)
        with pytest.raises(ValueError, match="finite and positive"):
            saturate(ring2.zero_state(), m_box)

    def test_origin_off_lattice_refused(self, ring2):
        with pytest.raises(ValueError, match="lattice"):
            enumerate_states(ring2, PotentialState((1, 0), 2), 5.0)
