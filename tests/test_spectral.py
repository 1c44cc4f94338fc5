"""Stationary laws, uniformization, quadratic forms, optimal constants."""

import importlib.resources
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pjmp.spectral as spectral
from conftest import NEAR_EQUAL_RATES, make_random_net
from pjmp import (
    DegenerateModelError,
    IntensityFunction,
    SparseGenerator,
    SynapticNetwork,
    assemble_generator,
    enumerate_states,
    estimate_weight_F,
    gamma_vector,
    jump_map,
    network_from_json,
    poincare_constant,
    propagate_function,
    saturate,
    semigroup_poincare_report,
    semigroup_variance_profile,
    stationary,
    transient_distribution,
    variance_and_energy,
    weighted_F_exact,
    weighted_F_vector,
)


def _dense_gth_oracle(q_supp: np.ndarray) -> np.ndarray:
    """GTH elimination on a dense copy, updating the whole leading block.

    The reference the solver must reproduce bit for bit up to
    GTH_DENSE_STATES states, where it runs no elimination round.
    """
    n = q_supp.shape[0]
    if n == 1:
        return np.ones(1)
    a = np.array(q_supp, dtype=float)
    np.fill_diagonal(a, 0.0)
    exit_rate = np.zeros(n)
    for k in range(n - 1, 0, -1):
        s = a[k, :k].sum()
        if s <= 0:
            raise ValueError(
                f"state {k} cannot reach earlier states; generator not irreducible"
            )
        exit_rate[k] = s
        a[k, :k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    mu = np.zeros(n)
    mu[0] = 1.0
    for k in range(1, n):
        mu[k] = (mu[:k] @ a[:k, k]) / exit_rate[k]
    return mu / mu.sum()


def _dense_eigen_oracle(mu) -> float:
    """C_opt from a dense eigh of the mu-symmetrised generator, built from a
    dense copy of Q: the reference poincare_constant's sparse branches match."""
    support = mu.support
    q = mu.generator.matrix[np.ix_(support, support)].toarray()
    sq = np.sqrt(mu.probabilities[support])
    b = -(sq[:, None] * q / sq[None, :])
    vals = sla.eigh(0.5 * (b + b.T), subset_by_index=[0, 1], eigvals_only=True)
    return 1.0 / vals[1]


def _dense_nullspace_oracle(q_supp) -> np.ndarray:
    """Dense LU solve of mu^T Q = 0 with sum(mu) = 1 in place of the last
    equation: the reference _lu_nullspace_solve matches."""
    a = q_supp.T.toarray()
    a[-1] = 1.0
    rhs = np.zeros(a.shape[0])
    rhs[-1] = 1.0
    mu = np.clip(sla.solve(a, rhs), 0.0, None)
    return mu / mu.sum()


def _exact_gth_oracle(rows) -> np.ndarray:
    """GTH elimination in exact rationals, rounded to floats at the end.

    rows[k] maps each state j != k to the rate k -> j as a Fraction. The
    elimination runs from the last state to the first, as in the dense
    oracle, so every entry of the result is the correctly rounded
    stationary probability.
    """
    a = [dict(row) for row in rows]
    n = len(a)
    exit_rate = [None] * n
    for k in range(n - 1, 0, -1):
        row = {j: v for j, v in a[k].items() if j < k}
        exit_rate[k] = sum(row.values())
        for i in range(k):
            a_ik = a[i].get(k)
            if a_ik:
                for j, v in row.items():
                    a[i][j] = a[i].get(j, 0) + a_ik * v / exit_rate[k]
    mu = [Fraction(1)]
    for k in range(1, n):
        mu.append(sum(mu[i] * a[i].get(k, 0) for i in range(k)) / exit_rate[k])
    total = sum(mu)
    return np.array([float(m / total) for m in mu])


def _exact_rates(net, m_box):
    """Rows of rational rates k -> j on the closed class of the box, in the
    order stationary() gives its support, and the matching float generator."""
    space = enumerate_states(net, net.zero_state(), m_box)
    gen = assemble_generator(net, space)
    q = gen.matrix
    support = stationary(gen).support
    position = {int(k): j for j, k in enumerate(support)}
    delta, slope = net.intensity.delta, net.intensity.slope
    rows = []
    for k in support.tolist():
        row = {}
        for i, target in enumerate(space.targets[k].tolist()):
            if target != k:
                x = Fraction(int(space.numerators[k, i]), net.denominator)
                row[position[target]] = row.get(position[target], 0) + delta + slope * x
        rows.append(row)
    return rows, q[support][:, support]


def _max_relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want) / want))


def _support_generator(net, m_box) -> sp.csr_matrix:
    """Rate matrix restricted to the closed class: the block stationary() solves."""
    return assemble_generator(net, enumerate_states(net, net.zero_state(), m_box)).support_matrix


def _closed_classes(q: sp.csr_matrix):
    """Strongly connected components of the positive-rate graph, split into
    closed (no outgoing rate) and open ones. Returns (closed_labels, labels).

    The reference for the support stationary() takes from the reset hub.
    """
    adj = sp.csr_matrix((q > 0).astype(np.int8))
    ncc, labels = csgraph.connected_components(adj, connection="strong")
    coo = q.tocoo()
    leaves = (coo.data > 0) & (labels[coo.row] != labels[coo.col])
    has_exit = np.zeros(ncc, dtype=bool)
    has_exit[labels[coo.row[leaves]]] = True
    closed = np.flatnonzero(~has_exit).tolist()
    return closed, labels


def _uniform(q_supp):
    return np.full(q_supp.shape[0], 1.0 / q_supp.shape[0]), q_supp.shape[0]


def _check_hub_and_support(net, m_box) -> None:
    """Every state lands on space.hub when neurons 0..N-1 fire once each, in
    order; gen.support is the one closed class of the chain, the law reads
    it, and gen.support_matrix is Q sliced to it, array for array.

    The GTH solve does not touch the support, so a uniform stand-in replaces
    it: that keeps the large boxes fast.
    """
    space = enumerate_states(net, net.zero_state(), m_box)
    hub = space.states[space.hub]
    for x in space.states:
        for i in range(net.n_neurons):
            x = saturate(jump_map(net, x, i), m_box)
        assert x == hub
    gen = assemble_generator(net, space)
    closed, labels = _closed_classes(gen.matrix)
    assert len(closed) == 1
    support = gen.support
    assert np.array_equal(support, np.flatnonzero(labels == closed[0]))
    sliced = gen.matrix[support][:, support]
    assert gen.support_matrix.shape == sliced.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(gen.support_matrix, name), getattr(sliced, name))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_gth_solve", _uniform)
        assert stationary(gen).support is support


@st.composite
def irreducible_generators(draw):
    """Small dense generators: a random Hamiltonian cycle plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=12))
    rate = st.floats(min_value=1e-8, max_value=1e8)
    perm = draw(st.permutations(range(n)))
    q = np.zeros((n, n))
    for a, b in zip(perm, perm[1:] + perm[:1]):
        q[a, b] = draw(rate)
    edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), rate)
    for i, j, r in draw(st.lists(edges, max_size=3 * n)):
        if i != j:
            q[i, j] = r
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def _eliminated_by_rounds(q_supp):
    """_gth_solve with every state but the anchor eliminated in rounds.

    Every round must shrink the matrix, so a round that picked no state
    fails here instead of looping forever. Returns the solution and the
    sizes the rounds went through.
    """
    sizes = []
    off_diagonal = spectral._off_diagonal

    def shrinking(m):
        assert not sizes or m.shape[0] < sizes[-1], "a round picked no state"
        sizes.append(m.shape[0])
        return off_diagonal(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "GTH_DENSE_STATES", 1)
        mp.setattr(spectral, "GTH_DENSE_FILL", 2.0)
        mp.setattr(spectral, "_off_diagonal", shrinking)
        return spectral._gth_solve(q_supp)[0], sizes


def _random_block(k: int, seed: int) -> np.ndarray:
    """A k-state generator: a random cycle through every state plus about a
    third of the other entries, rates log-uniform in [1e-8, 1e8]."""
    rng = np.random.default_rng(seed)
    q = np.where(rng.random((k, k)) < 0.3, 10.0 ** rng.uniform(-8, 8, (k, k)), 0.0)
    perm = rng.permutation(k)
    q[perm, np.roll(perm, -1)] = 10.0 ** rng.uniform(-8, 8, k)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def _dense_only(q) -> np.ndarray:
    """_gth_solve with no round, so the whole block is its dense tail."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "GTH_DENSE_FILL", 0.0)
        return spectral._gth_solve(sp.csr_matrix(q))[0]


def _dense_tail(q_supp) -> sp.csr_matrix:
    """The rates _gth_solve densifies: what its rounds leave of q_supp."""
    a, rest = spectral._off_diagonal(q_supp), np.arange(q_supp.shape[0])
    while len(rest) > spectral.GTH_DENSE_STATES and (step := spectral._gth_round(a, rest)):
        a, (_s_idx, c_idx, _a_cs, _exit_rate) = step
        rest = rest[c_idx]
    return a


def _force_branch(monkeypatch, factorise: bool) -> None:
    """Send every law to shift-invert and the LU check, or to LOBPCG and no LU
    check, by patching the one predicate both read."""
    monkeypatch.setattr(spectral, "_factorises", lambda mu: factorise)


def _law(net, m_box):
    return stationary(assemble_generator(net, enumerate_states(net, net.zero_state(), m_box)))


def _traced_peak(fn):
    """fn() and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


RAND4 = (5, 4)  # make_random_net arguments of bench/models/rand4.json

REDUCIBLE = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]])


class TestGTHSolver:
    @pytest.mark.parametrize("m_box", [34.0, 68.0])
    def test_bitwise_equal_to_dense_oracle(self, ring2, m_box):
        # at most GTH_DENSE_STATES support states: no round runs
        q_supp = _support_generator(ring2, m_box)
        assert q_supp.shape[0] <= spectral.GTH_DENSE_STATES
        mu, _k = spectral._gth_solve(q_supp)
        assert np.array_equal(mu, _dense_gth_oracle(q_supp.toarray()))

    @pytest.mark.parametrize("m_box", [8.0, 10.0, 12.0])
    def test_rounds_match_dense_oracle(self, m_box):
        q_supp = _support_generator(make_random_net(1), m_box)
        assert q_supp.shape[0] > spectral.GTH_DENSE_STATES
        mu, _k = spectral._gth_solve(q_supp)
        assert _max_relative_error(mu, _dense_gth_oracle(q_supp.toarray())) <= 1e-13

    @pytest.mark.parametrize("model, m_box", [("ring2", 10.0), ("rand3", 6.0)])
    def test_matches_exact_oracle(self, ring2, model, m_box):
        # rand3 at box 6 has 282 support states, so rounds run before the tail
        net = ring2 if model == "ring2" else make_random_net(1)
        rows, q_supp = _exact_rates(net, m_box)
        mu, _k = spectral._gth_solve(q_supp)
        assert _max_relative_error(mu, _exact_gth_oracle(rows)) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(irreducible_generators())
    def test_bitwise_equal_on_random_generators(self, q):
        mu, _k = spectral._gth_solve(sp.csr_matrix(q))
        assert np.array_equal(mu, _dense_gth_oracle(q))

    @settings(max_examples=200, deadline=None)
    @given(irreducible_generators())
    def test_rounds_down_to_the_anchor(self, q):
        mu, sizes = _eliminated_by_rounds(sp.csr_matrix(q))
        assert sizes[0] == len(q) and sizes[-1] == 1
        rows = [{j: Fraction(v) for j, v in enumerate(r) if j != k and v} for k, r in enumerate(q)]
        assert _max_relative_error(mu, _exact_gth_oracle(rows)) <= 1e-13

    def test_reducible_generator_rejected(self):
        # state 1 only leads to state 2, which only leads back to state 1
        with pytest.raises(ValueError, match="not irreducible"):
            spectral._gth_solve(sp.csr_matrix(REDUCIBLE))

    def test_reducible_generator_rejected_in_rounds(self):
        with pytest.raises(ValueError, match="not irreducible"):
            _eliminated_by_rounds(sp.csr_matrix(REDUCIBLE))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, spectral.GTH_DENSE_STATES + 1), st.integers(0, 2**32 - 1))
    def test_single_panel_bitwise_equal_to_dense_oracle(self, k, seed):
        # a tail of at most GTH_DENSE_STATES + 1 states is one panel
        q = _random_block(k, seed)
        assert np.array_equal(_dense_only(q), _dense_gth_oracle(q))

    @pytest.mark.parametrize("k, seed", [(202, 0), (203, 1), (265, 2), (513, 3), (1000, 4)])
    def test_panels_match_dense_oracle(self, k, seed):
        q = _random_block(k, seed)
        assert _max_relative_error(_dense_only(q), _dense_gth_oracle(q)) <= 1e-13

    @pytest.mark.parametrize("m_box, k", [(8.0, 714), (12.0, 1838)])
    def test_model_tails_match_dense_oracle(self, m_box, k):
        # rand4's rounds stop at a pattern 10% dense, so its tails are large
        law = _law(make_random_net(*RAND4), m_box)
        tail = _dense_tail(law.generator.support_matrix)
        assert tail.shape == (k, k) and law.tail_states == k
        mu, _k = spectral._gth_solve(tail)
        assert _max_relative_error(mu, _dense_gth_oracle(tail.toarray())) <= 1e-13

    def test_dense_tail_over_budget_refused(self, monkeypatch):
        q_supp = _support_generator(make_random_net(*RAND4), 8.0)
        monkeypatch.setattr(spectral, "GTH_TAIL_BYTES", 8 * 714**2 - 1)
        with pytest.raises(MemoryError, match="dense GTH tail of 714 states"):
            spectral._gth_solve(q_supp)
        monkeypatch.setattr(spectral, "GTH_TAIL_BYTES", 8 * 714**2)
        assert spectral._gth_solve(q_supp)[0].sum() == pytest.approx(1.0)

    def test_dense_tail_holds_one_copy(self):
        # the 714-state tail of rand4 at box 8: 8 k^2 bytes, about 4.1 MB
        q_supp = _support_generator(make_random_net(*RAND4), 8.0)
        _mu, peak = _traced_peak(lambda: spectral._gth_solve(q_supp))
        assert peak <= 1.25 * 8 * 714**2

    def test_no_dense_copy_where_lu_is_skipped(self):
        # rand4 at box 8 has a 3250-state support that SuperLU does not
        # factorise; a dense copy of it alone would take 8 n^2 bytes
        net = make_random_net(*RAND4)
        space = enumerate_states(net, net.zero_state(), 8.0)
        gen = assemble_generator(net, space)
        tracemalloc.start()
        try:
            mu = stationary(gen)
            dense_tv, power_tv = mu.dense_tv, mu.power_tv
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(mu.support)
        assert n == 3250 and not spectral._factorises(mu)
        assert peak < 0.5 * 8 * n * n
        assert dense_tv is None
        assert power_tv <= 1e-10


def _log_pmf(m: float, k: int) -> float:
    return -m if k == 0 else -m + k * math.log(m) - math.lgamma(k + 1)


def _uniformized(q):
    lam = float(-q.diagonal().min())
    return lam, sp.eye(q.shape[0], format="csr") + q / lam


def _transient_oracle(q, x0, t, eps=1e-12):
    """One Poisson-series loop per call, on the row vector of x0.

    This and the next two oracles are the separate loops the shared
    uniformization kernel replaced; it must reproduce them bit for bit.
    """
    v = np.zeros(q.shape[0])
    v[x0] = 1.0
    lam, p = _uniformized(q)
    if t == 0 or lam == 0:
        return v
    m = lam * t
    acc = np.zeros_like(v)
    cum, k = 0.0, 0
    while cum < 1.0 - eps:
        w = math.exp(_log_pmf(m, k))
        acc += w * v
        cum += w
        v = v @ p
        k += 1
    return acc + (1.0 - cum) * v


def _propagate_oracle(q, f, t, eps=1e-12):
    v = np.asarray(f, dtype=float).copy()
    lam, p = _uniformized(q)
    if t == 0 or lam == 0:
        return v
    m = lam * t
    acc = np.zeros_like(v)
    cum, k = 0.0, 0
    while cum < 1.0 - eps:
        w = math.exp(_log_pmf(m, k))
        acc += w * v
        cum += w
        v = p @ v
        k += 1
    return acc + (1.0 - cum) * v


def _weighted_oracle(q, phibar, t, eps=1e-12):
    phibar = np.asarray(phibar, dtype=float)
    if t == 0:
        return np.zeros_like(phibar)
    lam, p = _uniformized(q)
    if lam == 0:
        return phibar * t
    m = lam * t
    bound = float(np.abs(phibar).max())
    acc = np.zeros_like(phibar)
    v = phibar.copy()
    cdf, remaining, k = 0.0, m, 0
    while True:
        cdf += math.exp(_log_pmf(m, k))
        tail = max(1.0 - cdf, 0.0)
        acc += tail * v
        remaining -= tail
        if remaining * bound / lam <= eps or tail == 0.0:
            break
        v = p @ v
        k += 1
    return acc / lam


def _weights_oracle(m, eps):
    """The Poisson weights, then the leftover 1 - sum, by the propagate builder's own loop."""
    weights = []
    cum = 0.0
    k_cap = int(20 * m) + 500
    while cum < 1.0 - eps:
        weights.append(math.exp(_log_pmf(m, len(weights))))
        cum += weights[-1]
        if len(weights) > k_cap:
            raise RuntimeError("uniformization series failed to accumulate mass")
    return weights + [1.0 - cum]


def _tail_weights_oracle(lam, t, bound, eps):
    """The upper tails, by the time integral's own loop and cap."""
    m = lam * t
    weights = []
    cdf = 0.0
    remaining = m
    k_cap = int(20 * m) + 500
    while True:
        cdf += math.exp(_log_pmf(m, len(weights)))
        weights.append(max(1.0 - cdf, 0.0))
        remaining -= weights[-1]
        if remaining * bound / lam <= eps or weights[-1] == 0.0:
            return weights
        if len(weights) > k_cap:
            raise RuntimeError("time-integral series failed to accumulate mass")


def _outcome(fn, *args):
    """fn's result, or the type of the RuntimeError it raised."""
    try:
        return fn(*args)
    except RuntimeError as exc:
        return type(exc)


def _count_eye(monkeypatch) -> list:
    """Record every scipy.sparse.eye call; statespace and spectral share the module."""
    calls = []
    eye = sp.eye
    monkeypatch.setattr(sp, "eye", lambda *a, **kw: calls.append(a) or eye(*a, **kw))
    return calls


def _column_dots(p, block):
    return np.array([float(p @ col) for col in np.ascontiguousarray(block.T)])


def profile_oracle(mu, f, t_grid, eps=1e-12, indicator=None, phibar=None):
    """The variance profile of the columns of an (n, k) block f.

    One series loop per term and time on the block; every reduction runs
    on a contiguous column, as a one-function call would run it.
    """
    gen = mu.generator
    q, p = gen.matrix, mu.probabilities
    ind = np.ones(len(p)) if indicator is None else indicator
    phibar = gen.space.total_rates() if phibar is None else phibar
    gam = gamma_vector(gen, f)
    lhs, weighted = [], []
    for t in t_grid:
        ptf = _propagate_oracle(q, f, t, eps)
        ptf2 = _propagate_oracle(q, f * f, t, eps)
        lhs.append(_column_dots(p, ptf2 - ptf**2))
        fv = _weighted_oracle(q, phibar, t, eps)
        pt_loc = _propagate_oracle(q, gam * ind[:, None], t, eps)
        weighted.append(_column_dots(p, fv[:, None] * pt_loc))
    return np.array(lhs), _column_dots(p, gam), np.array(weighted)


def walked_profile_oracle(mu, f, t_grid, eps=1e-12, indicator=None):
    """The profile of an (n, k) block f by walking [f, Gamma(f) 1_D, F_t].

    Leg by leg, as the profile walks [f, F_t], but with Gamma(f) 1_D
    propagated too, so the weighted term is mu(F_t * P_t(Gamma(f) 1_D))
    read at each time rather than through nu_t = (mu F_t) P_t.
    """
    gen, p = mu.generator, mu.probabilities
    phibar = gen.space.total_rates()
    k = f.shape[1]
    ind = np.ones(len(p)) if indicator is None else indicator
    gam = gamma_vector(gen, f)
    mean_f2 = _column_dots(p, f * f)
    cur = np.hstack([f, gam * ind[:, None], np.zeros((len(p), 1))])
    rows = {}
    t_prev = 0.0
    for t in sorted(set(t_grid)):
        cur = propagate_function(gen, cur, t - t_prev, eps)
        cur[:, -1] += weighted_F_vector(gen, phibar, t - t_prev, eps)
        t_prev = t
        ptf, pt_loc, fv = np.split(cur, [k, 2 * k], axis=1)
        rows[t] = (mean_f2 - _column_dots(p, ptf**2), _column_dots(p, fv * pt_loc))
    lhs = np.array([rows[t][0] for t in t_grid])
    weighted = np.array([rows[t][1] for t in t_grid])
    return lhs, _column_dots(p, gam), weighted


@pytest.fixture(scope="module", params=[("ring2", 10.0), ("rand3", 8.0)], ids=str)
def kernel_case(request, ring2):
    name, m_box = request.param
    net = ring2 if name == "ring2" else make_random_net(1)
    space = enumerate_states(net, net.zero_state(), m_box)
    gen = assemble_generator(net, space)
    rng = np.random.default_rng(12)
    block = rng.standard_normal((len(space), 3))
    return space, gen, stationary(gen), block


class TestUniformizationKernel:
    TIMES = (0.3, 1.7, 5.0)

    @pytest.mark.parametrize("t", TIMES)
    def test_transient_bitwise_equal_to_oracle(self, kernel_case, t):
        space, gen, _mu, _block = kernel_case
        for x0 in (0, len(space) // 2):
            got = transient_distribution(gen, x0, t)
            assert np.array_equal(got, _transient_oracle(gen.matrix, x0, t))

    @pytest.mark.parametrize("t", TIMES)
    def test_propagate_bitwise_equal_to_oracle(self, kernel_case, t):
        _space, gen, _mu, block = kernel_case
        got = propagate_function(gen, block, t)
        assert np.array_equal(got, _propagate_oracle(gen.matrix, block, t))
        for j in range(block.shape[1]):
            col = propagate_function(gen, block[:, j], t)
            assert np.array_equal(col, _propagate_oracle(gen.matrix, block[:, j], t))
            # a block propagates each column exactly as it would alone
            assert np.array_equal(col, got[:, j])

    @pytest.mark.parametrize("t", TIMES)
    def test_weighted_bitwise_equal_to_oracle(self, kernel_case, t):
        space, gen, _mu, block = kernel_case
        phibar = space.total_rates()
        got = weighted_F_vector(gen, phibar, t)
        assert np.array_equal(got, _weighted_oracle(gen.matrix, phibar, t))
        rates = np.abs(block)
        got = weighted_F_vector(gen, rates, t)
        assert np.array_equal(got, _weighted_oracle(gen.matrix, rates, t))

    def test_profile_matches_oracle(self, kernel_case):
        # the profile walks the grid leg by leg; the oracle runs every time
        # from 0, so the two agree to rounding, with the energy exact
        space, gen, mu, block = kernel_case
        t_grid = list(self.TIMES)
        indicator = (np.arange(len(space)) % 3 == 0).astype(float)
        got = semigroup_variance_profile(mu, block, t_grid, indicator=indicator)
        want = profile_oracle(mu, block, t_grid, indicator=indicator)
        assert got[0].shape == got[2].shape == (3, 3) and got[1].shape == (3,)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
        assert np.array_equal(got[1], want[1])
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=0)
        for j in range(block.shape[1]):
            # one function alone gives its column of the block profile
            one = semigroup_variance_profile(mu, block[:, j], t_grid, indicator=indicator)
            assert one[0].shape == one[2].shape == (3,) and isinstance(one[1], float)
            assert np.array_equal(one[0], got[0][:, j]) and one[1] == got[1][j]
            assert np.array_equal(one[2], got[2][:, j])

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0, -1e-12, float("nan"), float("inf")])
    def test_eps_outside_unit_interval_rejected(self, kernel_case, eps):
        space, gen, mu, block = kernel_case
        for t in (0.0, 1.0):
            with pytest.raises(ValueError, match="eps"):
                transient_distribution(gen, 0, t, eps=eps)
            with pytest.raises(ValueError, match="eps"):
                propagate_function(gen, block, t, eps=eps)
            with pytest.raises(ValueError, match="eps"):
                weighted_F_vector(gen, space.total_rates(), t, eps=eps)
        for t_grid in ([], [0.0, 1.0]):
            with pytest.raises(ValueError, match="eps"):
                semigroup_variance_profile(mu, block, t_grid, eps=eps)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_time_not_finite_and_nonnegative_rejected(self, kernel_case, t):
        space, gen, mu, block = kernel_case
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            transient_distribution(gen, 0, t)
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            propagate_function(gen, block, t)
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            weighted_F_vector(gen, space.total_rates(), t)
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            semigroup_variance_profile(mu, block, [1.0, t])

    def test_profile_rows_follow_the_grid(self, kernel_case):
        # an unsorted grid with a repeat walks the same legs as its sorted,
        # distinct form; 0 takes no series step, so its row is the oracle's
        _space, gen, mu, block = kernel_case
        got = semigroup_variance_profile(mu, block, [5.0, 0.0, 1.7, 0.3, 1.7])
        walk = semigroup_variance_profile(mu, block, [0.0, 0.3, 1.7, 5.0])
        order = [3, 0, 2, 1, 2]
        assert np.array_equal(got[0], walk[0][order]) and np.array_equal(got[1], walk[1])
        assert np.array_equal(got[2], walk[2][order])
        want = profile_oracle(mu, block, [0.0])
        assert np.array_equal(got[0][1], want[0][0]) and np.array_equal(got[2][1], want[2][0])

    def test_long_grid_matches_oracle(self, kernel_case):
        # eight legs, each dropping at most eps of the series
        _space, gen, mu, block = kernel_case
        t_grid = [0.1, 0.3, 0.7, 1.2, 2.0, 3.1, 4.5, 6.0]
        got = semigroup_variance_profile(mu, block, t_grid)
        want = profile_oracle(mu, block, t_grid)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-11, atol=0)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-11, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        m_box=st.integers(1, 6),
        t_grid=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4),
    )
    @example(seed=437, n=4, m_box=6, t_grid=[6.103515625e-05])
    def test_adjoint_weighted_term_matches_the_walk(self, seed, n, m_box, t_grid):
        # nu_t = (mu F_t) P_t read against Gamma(f) 1_D, against walking
        # Gamma(f) 1_D beside f and F_t; lhs and energy are the same bits.
        # Both fold each cut's tail onto the last power, so a one-time grid
        # differs only by rounding; with the tail dropped instead, the
        # example below differed by 1.1e-12
        net = make_random_net(seed, n)
        space = enumerate_states(net, net.zero_state(), float(m_box))
        mu = stationary(assemble_generator(net, space))
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((len(space), 3))
        indicator = (space.coordinate_values().max(axis=0) <= m_box / 2).astype(float)
        got = semigroup_variance_profile(mu, block, t_grid, indicator=indicator)
        want = walked_profile_oracle(mu, block, t_grid, indicator=indicator)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.floats(1e-3, 2000.0),
        lam=st.floats(1e-2, 1e2),
        eps=st.floats(1e-15, 0.5),
        bound=st.floats(0.0, 1e3),
    )
    def test_weight_builders_equal_their_own_loops(self, m, lam, eps, bound):
        # both builders read one Poisson stream; the lists, with the
        # leftover mass last, must be the separate loops' bit for bit
        got = _outcome(spectral._poisson_weights, m, eps)
        assert repr(got) == repr(_outcome(_weights_oracle, m, eps))
        t = m / lam
        got = _outcome(spectral._tail_weights, lam, t, bound, eps)
        assert repr(got) == repr(_outcome(_tail_weights_oracle, lam, t, bound, eps))

    def test_one_kernel_per_chain(self, ring2, monkeypatch):
        # the transient law, the semigroup and the time integral share one P
        space = enumerate_states(ring2, ring2.zero_state(), 10.0)
        gen = assemble_generator(ring2, space)
        calls = _count_eye(monkeypatch)
        transient_distribution(gen, 0, 1.0)
        propagate_function(gen, space.totals(), 1.0)
        weighted_F_vector(gen, space.total_rates(), 1.0)
        assert len(calls) == 1
        lam, p = _uniformized(gen.matrix)
        assert gen.rate == lam and gen.kernel is gen.kernel
        assert (gen.kernel != p).nnz == 0 and np.array_equal(gen.kernel.data, p.data)

    def test_one_kernel_per_semigroup_report(self, ring2, monkeypatch):
        # ring2 at its default box: four legs, each a propagation and a time
        # integral, all on one kernel
        space = enumerate_states(ring2, ring2.zero_state(), 34.0)
        mu = stationary(assemble_generator(ring2, space))
        calls = _count_eye(monkeypatch)
        semigroup_poincare_report(mu)
        assert len(calls) == 1

    def test_series_cap(self, kernel_case):
        # at Lambda t = 50 the accumulated Poisson mass never passes 1 - 1e-17
        _space, gen, _mu, block = kernel_case
        lam = float(-gen.matrix.diagonal().min())
        with pytest.raises(RuntimeError, match="failed to accumulate"):
            propagate_function(gen, block, 50.0 / lam, eps=1e-17)

    @pytest.mark.parametrize(
        "name",
        ["transient_distribution", "propagate_function", "weighted_F_vector",
         "semigroup_variance_profile"],
    )
    def test_series_past_its_bound_is_refused(self, ring2_box10, name):
        # at t = 1e300 every Poisson weight underflows to 0, and the weight
        # loops ran on towards a cap of 20 * Lambda * t terms as their lists grew
        space, gen, mu = ring2_box10
        calls = {
            "transient_distribution": lambda: transient_distribution(gen, 0, 1e300),
            "propagate_function": lambda: propagate_function(gen, space.totals(), 1e300),
            "weighted_F_vector": lambda: weighted_F_vector(gen, space.total_rates(), 1e300),
            "semigroup_variance_profile": lambda: semigroup_variance_profile(
                mu, space.totals(), [1e300]
            ),
        }
        with pytest.raises(ValueError, match="exceeds the series bound"):
            calls[name]()


@pytest.fixture(scope="module")
def ring2_box10(ring2):
    space = enumerate_states(ring2, ring2.zero_state(), 10.0)
    gen = assemble_generator(ring2, space)
    return space, gen, stationary(gen)


@pytest.fixture(scope="module")
def rand3_box10():
    """The law of rand3 at box 10: 808 support states, a dense copy 5.2 MB."""
    net = make_random_net(1)
    mu = stationary(assemble_generator(net, enumerate_states(net, net.zero_state(), 10.0)))
    assert len(mu.support) == 808
    return mu


class TestStationary:
    @pytest.mark.parametrize("m_box", [10.0, 24.0])
    def test_lu_cross_check_holds_no_dense_copy(self, m_box):
        # tracemalloc sees numpy's arrays but not SuperLU's C allocations; at
        # box 24, 4791 support states, the LU check runs by GTH's fill
        mu = _law(make_random_net(1), m_box)
        n = len(mu.support)
        dense_tv, peak = _traced_peak(lambda: mu.dense_tv)
        assert dense_tv <= 1e-10
        assert peak <= 0.25 * 8 * n * n

    def test_law_arrays_refuse_writes(self, ring2_box10):
        # one law may be handed to many readers, so none may write into it,
        # nor into the chain it was solved from
        space, gen, mu = ring2_box10
        csr = [getattr(m, name) for m in (gen.matrix, gen.kernel, gen.support_matrix)
               for name in ("data", "indices", "indptr")]
        tables = [space.numerators, space.targets, space.saturated]
        laws = (mu.probabilities, mu.support, gen.support, mu.gap.optimizer)
        for array in (*laws, *tables, *csr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert mu.gap is mu.gap

    def test_residual_and_cross_checks(self, ring2_box10):
        _space, _gen, mu = ring2_box10
        assert mu.residual <= 1e-10
        assert mu.dense_tv is not None and mu.dense_tv <= 1e-10
        assert mu.power_tv is not None and mu.power_tv <= 1e-10

    def test_solve_runs_no_cross_check(self, ring2_box10, cross_check_calls):
        _space, gen, _mu = ring2_box10
        stationary(gen)
        assert cross_check_calls == {"_lu_nullspace_solve": 0, "_power_iteration_solve": 0}

    def test_each_cross_check_runs_once_when_read(self, ring2_box10, cross_check_calls):
        _space, gen, _mu = ring2_box10
        mu = stationary(gen)
        first = (mu.residual, mu.dense_tv, mu.power_tv)
        assert (mu.residual, mu.dense_tv, mu.power_tv) == first
        assert cross_check_calls == {"_lu_nullspace_solve": 1, "_power_iteration_solve": 1}

    def test_power_iteration_settles_on_near_equal_rates(self):
        net = network_from_json(NEAR_EQUAL_RATES)
        space = enumerate_states(net, net.zero_state(), 1.0)
        mu = stationary(assemble_generator(net, space))
        assert mu.power_tv <= 1e-10
        assert mu.dense_tv <= 1e-10
        assert sorted(mu.probabilities) == pytest.approx([22 / 45, 23 / 45], rel=1e-14)

    def test_law_carries_its_generator(self, ring2_box10):
        _space, gen, mu = ring2_box10
        assert mu.generator is gen
        assert "generator" not in repr(mu)

    def test_residual_is_relative_to_the_rate_scale(self, ring2_box10):
        # the same chain with every rate times 1e290: the same law, and a
        # residual and a dense cross-check that do not see the scale
        _space, gen, mu = ring2_box10
        scaled = SparseGenerator(gen.matrix * 1e290, gen.space)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # scipy's LinAlgWarning on an unscaled solve
            big = stationary(scaled)
            assert big.residual <= 1e-12
            assert big.dense_tv <= 1e-10
        assert np.allclose(big.probabilities, mu.probabilities, rtol=1e-12, atol=0)

    def test_zero_inflow_state_is_transient(self, ring2_box10):
        space, _gen, mu = ring2_box10
        k = space.position(space.net.zero_state())
        assert mu.probabilities[k] == 0.0
        assert k not in set(int(j) for j in mu.support)

    def test_swap_symmetry(self, ring2, ring2_box10):
        space, _gen, mu = ring2_box10
        for k in range(1, 11):
            a = mu.probabilities[space.position(ring2.state([k, 0]))]
            b = mu.probabilities[space.position(ring2.state([0, k]))]
            assert a == pytest.approx(b, rel=1e-12)

    def test_zero_weights_point_mass(self, zero2):
        space = enumerate_states(zero2, zero2.zero_state(), 5.0)
        gen = assemble_generator(zero2, space)
        mu = stationary(gen)
        assert mu.probabilities[space.position(zero2.zero_state())] == 1.0

    def test_absorbing_from_positive_start(self, single1):
        space = enumerate_states(single1, single1.state([3]), 5.0)
        gen = assemble_generator(single1, space)
        mu = stationary(gen)
        assert mu.probabilities[space.position(single1.zero_state())] == 1.0

    def test_probabilities_normalized(self, ring2_box10):
        _space, _gen, mu = ring2_box10
        assert mu.probabilities.sum() == pytest.approx(1.0, abs=1e-14)
        assert (mu.probabilities >= 0).all()

    def test_lu_check_skipped_where_not_factorised(self, ring2_box10, monkeypatch):
        _space, gen, _mu = ring2_box10
        _force_branch(monkeypatch, False)
        mu = stationary(gen)
        assert mu.dense_tv is None
        assert mu.power_tv is not None and mu.power_tv <= 1e-10


HUB_RUNGS = {
    "ring2-m10": (None, 10.0),
    "ring2-m34": (None, 34.0),
    "ring2-m68": (None, 68.0),
    "rand3-m10": ((1, 3), 10.0),
    "rand3-m24": ((1, 3), 24.0),
    "rand3-m48": ((1, 3), 48.0),
    "rand4-m8": ((5, 4), 8.0),
    "rand4-m12": ((5, 4), 12.0),
    "n5-m4": ((7, 5), 4.0),
}


@st.composite
def small_nets(draw):
    """Nets of 2-4 neurons with lattice weights, and a box of a few hundred
    states at most."""
    n = draw(st.integers(min_value=2, max_value=4))
    weight = st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)])
    w = tuple(tuple(Fraction(0) if i == j else draw(weight) for j in range(n)) for i in range(n))
    rate = st.fractions(min_value=Fraction(1, 10), max_value=3, max_denominator=10)
    intensity = IntensityFunction(delta=draw(rate), slope=draw(rate))
    m_box = draw(st.integers(min_value=1, max_value=2 * (6 - n))) / 2
    return SynapticNetwork(n_neurons=n, weights=w, intensity=intensity), m_box


class TestHub:
    @pytest.mark.parametrize("rung", list(HUB_RUNGS))
    def test_hub_reach_is_the_closed_class(self, ring2, rung):
        seed_n, m_box = HUB_RUNGS[rung]
        net = ring2 if seed_n is None else make_random_net(*seed_n)
        _check_hub_and_support(net, m_box)

    @settings(max_examples=60, deadline=None)
    @given(small_nets())
    def test_hub_reach_is_the_closed_class_on_random_nets(self, net_and_box):
        _check_hub_and_support(*net_and_box)

    @settings(max_examples=40, deadline=None)
    @given(small_nets(), st.integers(1, 6))
    def test_chain_owns_its_closed_class_at_integer_boxes(self, net_and_box, m_box):
        # small_nets' own boxes stop at 2 (four neurons) to 4 (two)
        _check_hub_and_support(net_and_box[0], m_box)


class TestTransient:
    def test_time_zero_point_mass(self, ring2_box10):
        space, gen, _mu = ring2_box10
        k = space.position(space.net.zero_state())
        v = transient_distribution(gen, k, 0.0)
        assert v[k] == 1.0 and v.sum() == 1.0

    def test_no_jump_probability(self, ring2, ring2_box10):
        # the origin has no inflow, so its mass at time t is exactly the
        # probability of total silence, e^{-3t}
        space, gen, _mu = ring2_box10
        k = space.position(ring2.zero_state())
        v = transient_distribution(gen, k, 1.0, eps=1e-13)
        assert v[k] == pytest.approx(math.exp(-3.0), rel=1e-10)

    def test_mass_within_eps(self, ring2_box10):
        space, gen, _mu = ring2_box10
        rng = np.random.default_rng(0)
        for _ in range(5):
            k = int(rng.integers(0, len(space)))
            t = float(rng.uniform(0.1, 3.0))
            v = transient_distribution(gen, k, t, eps=1e-9)
            assert (v >= 0).all()
            assert abs(v.sum() - 1.0) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        m_box=st.integers(1, 6),
        t=st.floats(0.0, 4.0),
    )
    def test_law_keeps_its_mass_and_is_the_adjoint(self, seed, n, m_box, t):
        # both series fold the tail of one Poisson cut onto one more power,
        # so the law has mass 1 and reads f as the semigroup does, to
        # rounding; with the tail dropped, both missed by up to eps = 1e-12
        net = make_random_net(seed, n)
        space = enumerate_states(net, net.zero_state(), float(m_box))
        gen = assemble_generator(net, space)
        rng = np.random.default_rng(seed)
        x0 = int(rng.integers(len(space)))
        f = rng.standard_normal(len(space))
        law = transient_distribution(gen, x0, t)
        assert abs(law.sum() - 1.0) <= 1e-13
        gap = abs(float(law @ f) - float(propagate_function(gen, f, t)[x0]))
        assert gap <= 1e-13 * np.abs(f).max()

    def test_duality_with_function_propagation(self, ring2_box10):
        space, gen, _mu = ring2_box10
        f = np.cos(np.arange(len(space)))
        k = space.position(space.net.zero_state())
        lhs = float(transient_distribution(gen, k, 1.7, eps=1e-13) @ f)
        rhs = float(propagate_function(gen, f, 1.7, eps=1e-13)[k])
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_negative_time_rejected(self, ring2_box10):
        _space, gen, _mu = ring2_box10
        with pytest.raises(ValueError):
            transient_distribution(gen, 0, -1.0)

    def test_matches_simulation_frequencies(self, ring2):
        # full-distribution cross-check between uniformization and the
        # event-driven simulator: every state with nonnegligible mass within
        # 4 binomial standard errors
        from pjmp import simulate_path

        space = enumerate_states(ring2, ring2.zero_state(), 25.0)
        gen = assemble_generator(ring2, space)
        t = 1.2
        exact = transient_distribution(gen, space.position(ring2.zero_state()), t, eps=1e-12)
        n = 20000
        counts = {}
        for s in range(n):
            fin = simulate_path(ring2, ring2.zero_state(), t, seed=700_000 + s).final_state
            counts[fin] = counts.get(fin, 0) + 1
        for k, x in enumerate(space.states):
            p = exact[k]
            if p < 1e-4:
                continue
            p_hat = counts.get(x, 0) / n
            se = math.sqrt(p * (1 - p) / n)
            assert abs(p_hat - p) <= 4 * se, (x.numerators, p, p_hat)


class TestQuadraticForms:
    def test_block_columns_bitwise_equal_single_functions(self, ring2_box10):
        _space, gen, mu = ring2_box10
        block = np.random.default_rng(4).standard_normal((gen.dimension, 9))
        var, energy = variance_and_energy(mu, block)
        for j in range(block.shape[1]):
            assert (var[j], energy[j]) == variance_and_energy(mu, block[:, j].copy())

    def test_constant_function(self, ring2_box10):
        _space, gen, mu = ring2_box10
        var, energy = variance_and_energy(mu, np.full(gen.dimension, 3.3))
        assert var == pytest.approx(0.0, abs=1e-14)
        assert energy == pytest.approx(0.0, abs=1e-12)

    def test_integration_by_parts(self, ring2_box10):
        # -mu(f Qf) equals mu(Gamma(f,f)) under stationarity
        _space, gen, mu = ring2_box10
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.standard_normal(gen.dimension)
            _var, energy = variance_and_energy(mu, f)
            direct = float(mu.probabilities @ gamma_vector(gen, f))
            assert energy == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_coordinate_function_strictly_positive(self, ring2_box10):
        space, gen, mu = ring2_box10
        f = space.coordinate_values()[0]
        var, energy = variance_and_energy(mu, f)
        assert var > 0 and energy > 0

    def test_symmetrized_operator_self_adjoint(self, ring2_box10):
        _space, gen, mu = ring2_box10
        supp = mu.support
        q = gen.matrix[np.ix_(supp, supp)].toarray()
        p = mu.probabilities[supp]
        s_op = -(q + np.diag(1.0 / p) @ q.T @ np.diag(p)) / 2.0
        rng = np.random.default_rng(2)
        for _ in range(10):
            f = rng.standard_normal(len(supp))
            g = rng.standard_normal(len(supp))
            left = float(p @ ((s_op @ f) * g))
            right = float(p @ (f * (s_op @ g)))
            assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


# at box 1 the origin fires neuron 0 into (0, 1) at rate 0.7, (0, 1) fires
# neuron 1 back at rate 0.7 + 1.6 = 2.3, and every other firing is a no-op
TWO_STATE = {"n": 2, "weights": [[0, 1], [0, 0]], "intensity": {"delta": 0.7, "slope": 1.6}}
RING2 = str(importlib.resources.files("pjmp") / "data" / "ring2.json")


class TestPoincare:
    def test_two_state_closed_form(self):
        net = network_from_json(TWO_STATE)
        gen = assemble_generator(net, enumerate_states(net, net.zero_state(), 1.0))
        assert gen.matrix.toarray().tolist() == [[-0.7, 0.7], [2.3, -2.3]]
        mu = stationary(gen)
        gap = poincare_constant(mu)
        assert gap.c_opt == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_degenerate_single_state(self, zero2):
        space = enumerate_states(zero2, zero2.zero_state(), 5.0)
        gen = assemble_generator(zero2, space)
        mu = stationary(gen)
        with pytest.raises(DegenerateModelError, match="single state"):
            poincare_constant(mu)

    def test_shift_invert_holds_no_dense_copy(self, rand3_box10):
        # tracemalloc sees numpy's arrays but not SuperLU's C allocations
        n = len(rand3_box10.support)
        gap, peak = _traced_peak(lambda: poincare_constant(rand3_box10))
        assert gap.method == "shift-invert" and gap.residual <= 1e-12
        assert peak <= 0.25 * 8 * n * n

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.sampled_from([1.0, 2.0, 4.0, 6.0]))
    @example(model=TWO_STATE, n=None, m_box=1.0)
    @example(model=NEAR_EQUAL_RATES, n=None, m_box=1.0)  # a two-state support
    @example(model=RING2, n=None, m_box=10.0)
    @example(model=RING2, n=None, m_box=30.0)
    @example(model=RING2, n=None, m_box=34.0)
    @example(model=1, n=3, m_box=10.0)  # rand3, 808 support states
    def test_sparse_layers_match_dense_oracles(self, model, n, m_box):
        # model is a make_random_net seed, whose nets of 2 or 3 neurons have
        # supports of 2 to about 300 states, or, with n None, the model of
        # another test of this class
        net = make_random_net(model, n) if n else network_from_json(model)
        gen = assemble_generator(net, enumerate_states(net, net.zero_state(), m_box))
        mu = stationary(gen)
        assume(len(mu.support) > 1)
        c_opt = _dense_eigen_oracle(mu)
        assert abs(poincare_constant(mu).c_opt - c_opt) <= 1e-12 * c_opt
        q_supp = gen.matrix[mu.support][:, mu.support] / gen.rate
        lu = spectral._lu_nullspace_solve(q_supp)
        assert 0.5 * np.abs(lu - _dense_nullspace_oracle(q_supp)).sum() <= 1e-12

    def test_rayleigh_oracle(self, ring2_box10):
        _space, gen, mu = ring2_box10
        gap = poincare_constant(mu)
        rng = np.random.default_rng(3)
        sup_ratio = 0.0
        for _ in range(1000):
            f = rng.standard_normal(gen.dimension)
            var, energy = variance_and_energy(mu, f)
            assert var <= gap.c_opt * energy + 1e-12
            sup_ratio = max(sup_ratio, var / energy)
        var_s, en_s = variance_and_energy(mu, gap.optimizer)
        assert sup_ratio <= gap.c_opt + 1e-12
        assert var_s / en_s == pytest.approx(gap.c_opt, rel=1e-6)

    def test_iterative_agrees_with_shift_invert(self, ring2, monkeypatch):
        space = enumerate_states(ring2, ring2.zero_state(), 30.0)
        gen = assemble_generator(ring2, space)
        mu = stationary(gen)
        direct = poincare_constant(mu)
        _force_branch(monkeypatch, False)
        iterative = poincare_constant(mu)
        assert (direct.method, iterative.method) == ("shift-invert", "iterative")
        assert iterative.c_opt == pytest.approx(direct.c_opt, rel=1e-8)

    def test_both_branches_build_one_operator(self, ring2, monkeypatch):
        # the shift-invert factorisation of B + I and LOBPCG must start from
        # the same symmetrised operator B, bit for bit, not two formulas that
        # round differently
        space = enumerate_states(ring2, ring2.zero_state(), 34.0)
        gen = assemble_generator(ring2, space)
        mu = stationary(gen)
        seen = {}
        for name in ("splu", "lobpcg"):
            real = getattr(spectral.spla, name)

            def capture(a, *args, _real=real, _name=name, **kwargs):
                seen[_name] = a.copy()
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(spectral.spla, name, capture)
        assert poincare_constant(mu).method == "shift-invert"
        _force_branch(monkeypatch, False)
        assert poincare_constant(mu).method == "iterative"
        n = len(mu.support)
        assert n == 68
        assert np.array_equal(seen["lobpcg"].toarray() + np.eye(n), seen["splu"].toarray())

    @pytest.mark.parametrize(
        "net_args, m_box, k, method",
        [
            ((1,), 16.0, 283, "shift-invert"),  # 2107 support states, k^2 / nnz(B) 5.5
            (RAND4, 8.0, 714, "iterative"),  # 3250 support states, 17.5
            ((3,), 10.0, 189, "shift-invert"),  # no round: k is the support, 27.7
        ],
    )
    def test_fill_rule_picks_the_branch(self, monkeypatch, net_args, m_box, k, method):
        mu = _law(make_random_net(*net_args), m_box)
        gap = poincare_constant(mu)
        assert mu.tail_states == k and gap.method == method
        factorised = method == "shift-invert"
        assert (mu.dense_tv is not None) == factorised
        assert not factorised or mu.dense_tv <= 1e-12
        _force_branch(monkeypatch, not factorised)
        other = poincare_constant(mu)
        assert other.method != method
        assert abs(other.c_opt - gap.c_opt) <= 1e-12 * gap.c_opt

    def test_eigenpair_residual_reported(self, ring2_box10, monkeypatch):
        _space, gen, mu = ring2_box10
        for factorise, method in ((True, "shift-invert"), (False, "iterative")):
            _force_branch(monkeypatch, factorise)
            gap = poincare_constant(mu)
            assert gap.method == method
            assert gap.residual is not None
            assert gap.residual <= spectral.EIGEN_RESIDUAL_TOL

    @pytest.mark.parametrize("solver, factorise", [("eigsh", True), ("lobpcg", False)])
    def test_inflated_ritz_value_rejected(self, ring2_box10, monkeypatch, solver, factorise):
        # a Ritz value 1% too large would shrink C_opt by 1%; the residual
        # check must refuse it rather than report a non-conservative constant
        _space, gen, mu = ring2_box10
        real = getattr(spectral.spla, solver)

        def inflated(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            return vals * 1.01, vecs

        monkeypatch.setattr(spectral.spla, solver, inflated)
        _force_branch(monkeypatch, factorise)
        with pytest.raises(RuntimeError, match="residual"):
            poincare_constant(mu)


class TestWeightedIntegral:
    def test_zero_time(self, ring2_box10):
        space, gen, _mu = ring2_box10
        assert weighted_F_exact(gen, space.total_rates(), 0, 0.0) == 0.0

    def test_short_time_derivative(self, ring2, ring2_box10):
        space, gen, _mu = ring2_box10
        k = space.position(ring2.zero_state())
        h = 1e-4
        deriv = weighted_F_exact(gen, space.total_rates(), k, h, eps=1e-14) / h
        assert deriv == pytest.approx(3.0, abs=1e-2)

    def test_matches_monte_carlo(self, ring2):
        space = enumerate_states(ring2, ring2.zero_state(), 25.0)
        gen = assemble_generator(ring2, space)
        k = space.position(ring2.zero_state())
        exact = weighted_F_exact(gen, space.total_rates(), k, 5.0, eps=1e-12)
        est = estimate_weight_F(ring2, ring2.zero_state(), 5.0, 4000, seed=11)
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_vector_matches_pointwise(self, ring2_box10):
        space, gen, _mu = ring2_box10
        vec = weighted_F_vector(gen, space.total_rates(), 2.0)
        for k in (0, 3, 7):
            assert vec[k] == weighted_F_exact(gen, space.total_rates(), k, 2.0)


class TestVarianceProfile:
    def test_constant_function_zero(self, ring2_box10):
        _space, gen, mu = ring2_box10
        lhs, energy, weighted = semigroup_variance_profile(
            mu, np.full(gen.dimension, 2.0), [0.5, 1.0]
        )
        assert np.allclose(lhs, 0.0, atol=1e-12)
        assert energy == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(weighted, 0.0, atol=1e-12)

    def test_short_time_slope_is_twice_energy(self, ring2_box10):
        # first-order expansion: Var under P_t is t*(L f^2 - 2 f Lf) + O(t^2),
        # which is 2 t Gamma(f,f); the slope of the averaged variance is
        # therefore twice the energy
        _space, gen, mu = ring2_box10
        rng = np.random.default_rng(4)
        f = rng.standard_normal(gen.dimension)
        t = 1e-3
        lhs, energy, _w = semigroup_variance_profile(mu, f, [t], eps=1e-14)
        assert lhs[0] / t == pytest.approx(2.0 * energy, rel=0.1)

    def test_pointwise_variance_vs_monte_carlo(self, ring2):
        from pjmp import estimate_semigroup

        space = enumerate_states(ring2, ring2.zero_state(), 20.0)
        gen = assemble_generator(ring2, space)
        totals = space.totals()
        t = 1.5
        for start in ([0, 0], [3, 0]):
            x = ring2.state(start)
            k = space.position(x)
            pf = propagate_function(gen, totals, t, eps=1e-13)[k]
            pf2 = propagate_function(gen, totals**2, t, eps=1e-13)[k]
            exact_var = pf2 - pf**2
            mean_est, var_est = estimate_semigroup(
                ring2, lambda y: y.total(), x, t, 20000, seed=7
            )
            assert abs(mean_est.mean - pf) <= 4 * mean_est.std_error
            assert abs(var_est.mean - exact_var) <= 4 * var_est.std_error
