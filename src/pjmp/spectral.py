"""Exact numerics on the truncated chain.

Everything here works on the rate matrix of an enumerated box: stationary
vectors, transient distributions through uniformization, quadratic forms
under the stationary law, and the optimal variance-to-energy constant.
The solvers take the chain as a SparseGenerator, which carries its
enumerated space and its closed class; a function of the stationary law
takes the law alone and reads ``mu.generator``. Every series reads the chain's ``rate`` and
``kernel``, and its weights from one Poisson stream with one term cap; each
Poisson cut folds its dropped tail onto one more power, so a transient law
keeps mass 1 and is the exact adjoint of the semigroup on functions.

Conventions. The chain is not reversible; the energy form
``-mu(f * Qf) = mu(Gamma(f, f))`` only sees the symmetric part of the
generator in the mu-weighted inner product, so the optimal constant is the
inverse of the smallest nonzero eigenvalue of that symmetrized operator
restricted to the support of mu. Transient states (no inflow) carry zero
stationary mass and are excluded from all spectral computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .statespace import EnumeratedSpace, SparseGenerator

__all__ = [
    "DegenerateModelError",
    "StationaryDistribution",
    "GapResult",
    "stationary",
    "transient_distribution",
    "propagate_function",
    "variance_and_energy",
    "gamma_vector",
    "poincare_constant",
    "weighted_F_exact",
    "weighted_F_vector",
    "semigroup_variance_profile",
]

SPLU_FILL = 16.0  # largest k^2 / nnz(B) SuperLU factorises at: past GTH's rounds, fill tracks it
SPLU_ORDERING = "MMD_AT_PLUS_A"  # both factorised patterns are near symmetric: 1/3 of COLAMD's fill
GTH_DENSE_STATES = 200
GTH_DENSE_FILL = 0.1
GTH_PANEL = 64  # pivots per panel of a dense tail above GTH_DENSE_STATES + 1 states
GTH_TAIL_BYTES = 2**29  # bytes the dense tail may hold, 512 MiB: at most 8,192 states
POWER_TOL = 1e-15
POWER_MAXITER = 500_000
EIGEN_RESIDUAL_TOL = 1e-10
MAX_LAMBDA_T = 1e6  # largest Poisson mean Lambda * t a series is summed for


class DegenerateModelError(RuntimeError):
    """The request is well-posed only on a richer model (e.g. one-point support)."""


def _off_diagonal(m) -> sp.csr_matrix:
    """The nonzero off-diagonal entries of m, as CSR."""
    coo = sp.coo_matrix(m, dtype=float)
    off = (coo.row != coo.col) & (coo.data != 0)
    return sp.csr_matrix((coo.data[off], (coo.row[off], coo.col[off])), shape=coo.shape)


def _gth_solve(q_supp: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """Stationary vector of an irreducible generator by GTH elimination.

    The elimination never subtracts, so every component comes out with full
    relative accuracy even when the stationary mass spans hundreds of orders
    of magnitude.

    While more than GTH_DENSE_STATES states remain and their symmetrised
    pattern is less than GTH_DENSE_FILL dense, a round eliminates the set S
    of states whose (degree, index) is below that of every neighbour; state
    0, the anchor, is never picked and never blocks a neighbour. S has no
    inner edges, so with s_S the rates from S into the rest C, one sparse
    product A_CC += A_CS diag(1/s_S) A_SC eliminates it; the diagonal it
    makes is dropped. Up to GTH_DENSE_STATES states no round runs.

    The k states left are eliminated densely, in one k x k array, from the
    last to the first, in panels of GTH_PANEL pivots (one panel if
    k <= GTH_DENSE_STATES + 1). Pivot j's rank-1 update touches the panel
    rows, over every live column, and the earlier rows C, over the panel
    columns P; after the panel one product A_CC += A_CP A_PC, in column
    strips, adds the rest. Products are formed in one (panel, k) work array,
    never a k x k one. A single panel is bitwise the rank-1 elimination of
    the whole block. Every term is nonnegative, and exit rates are sums of
    live columns, so no step subtracts. The rounds are then undone in
    reverse as mu_S = mu_C A_CS / s_S. A tail whose 8 k^2 bytes exceed
    GTH_TAIL_BYTES is refused with MemoryError before it is densified. Returns (mu, k).
    """
    a = _off_diagonal(q_supp)
    rest = np.arange(a.shape[0])  # support indices not yet eliminated
    rounds = []
    while len(rest) > GTH_DENSE_STATES and (step := _gth_round(a, rest)):
        a, record = step
        rounds.append(record)
        rest = rest[record[1]]

    k = len(rest)
    if 8 * k * k > GTH_TAIL_BYTES:
        raise MemoryError(
            f"the dense GTH tail of {k} states needs {8 * k * k / 2**20:.0f} MiB, "
            f"more than the budget of {GTH_TAIL_BYTES / 2**20:.0f} MiB"
        )
    a = a.toarray()
    panel = k if k <= GTH_DENSE_STATES + 1 else GTH_PANEL
    work = np.empty(panel * k)
    exit_rate = np.zeros(k)
    for hi in range(k, 1, -panel):
        lo = max(hi - panel, 0)  # the panel is lo..hi-1; C is 0..lo-1
        for j in range(hi - 1, max(lo, 1) - 1, -1):
            s = a[j, :j].sum()
            if s <= 0:
                raise ValueError(
                    f"state {rest[j]} cannot reach earlier states; generator not irreducible"
                )
            exit_rate[j] = s
            a[j, :j] /= s
            rows = work[: (j - lo) * j].reshape(j - lo, j)
            np.multiply(a[lo:j, j, None], a[j, :j], out=rows)
            a[lo:j, :j] += rows
            if lo:
                cols = work[: lo * (j - lo)].reshape(lo, j - lo)
                np.multiply(a[:lo, j, None], a[j, lo:j], out=cols)
                a[:lo, lo:j] += cols
        for c in range(0, lo, panel):
            e = min(c + panel, lo)
            strip = work[: lo * (e - c)].reshape(lo, e - c)
            np.matmul(a[:lo, lo:hi], a[lo:hi, c:e], out=strip)
            a[:lo, c:e] += strip
    mu = np.zeros(k)
    mu[0] = 1.0
    for j in range(1, k):
        mu[j] = (mu[:j] @ a[:j, j]) / exit_rate[j]
    for s_idx, c_idx, a_cs, exit_rate in reversed(rounds):
        full = np.empty(len(s_idx) + len(c_idx))
        full[c_idx] = mu
        full[s_idx] = (a_cs.T @ mu) / exit_rate
        mu = full
    return mu / mu.sum(), k


def _gth_round(a: sp.csr_matrix, rest: np.ndarray):
    """One sparse round of _gth_solve on the off-diagonal rates a between the
    support states rest: (A_CC after the round, (s_idx, c_idx, A_CS, s_S)),
    or None if the symmetrised pattern is GTH_DENSE_FILL dense or more. Its
    work arrays end with the call, so none is held beside the dense tail."""
    k = len(rest)
    pattern = (a + a.T).tocsr()
    if pattern.nnz >= GTH_DENSE_FILL * k * k:
        return None
    degree = np.diff(pattern.indptr).astype(np.int64)
    key = degree * k + np.arange(k)
    key[0] = np.iinfo(np.int64).max  # the anchor is below no neighbour
    lowest = np.full(k, np.iinfo(np.int64).max)
    np.minimum.at(lowest, np.repeat(np.arange(k), degree), key[pattern.indices])
    picked = key < lowest
    s_idx, c_idx = np.flatnonzero(picked), np.flatnonzero(~picked)
    a_sc = a[s_idx][:, c_idx]
    exit_rate = np.asarray(a_sc.sum(axis=1)).ravel()
    if not exit_rate.min() > 0:
        bad = rest[s_idx[exit_rate.argmin()]]
        raise ValueError(f"state {bad} cannot reach the others; generator not irreducible")
    a_cs = a[c_idx][:, s_idx]
    a_cc = _off_diagonal(a[c_idx][:, c_idx] + a_cs @ (sp.diags(1.0 / exit_rate) @ a_sc))
    return a_cc, (s_idx, c_idx, a_cs, exit_rate)


def _lu_nullspace_solve(q_supp: sp.csr_matrix) -> np.ndarray:
    """Sparse LU solve of mu^T Q = 0, sum(mu) = 1 on an irreducible support:
    with mu_0 = 1, (Q^T)_{rest,rest} mu_rest = -(Q^T)_{rest,0}, whose matrix is
    minus a nonsingular M-matrix, then normalised. Q should be scaled to rates
    of order one."""
    a = q_supp.T.tocsc()
    rest = spla.splu(a[1:, 1:], permc_spec=SPLU_ORDERING).solve(-a[1:, 0].toarray().ravel())
    mu = np.clip(np.concatenate([[1.0], rest]), 0.0, None)
    return mu / mu.sum()


def _power_iteration_solve(q_supp: sp.csr_matrix) -> np.ndarray:
    """Stationary vector from power iteration on the kernel
    P = I + Q/(c Lambda), c = 1.25. The eigenvalues of Q/Lambda lie in the
    disc of radius 1 about -1, so those of P lie in the disc of radius 1/c
    about 1 - 1/c, at or above 1 - 2/c = -0.6. c is above 1 because at
    c = 1 an eigenvalue can sit at or near -1, where the iterates oscillate
    and never settle; the larger c, the closer the slow eigenvalues move to
    1 and the more steps the iteration takes, so c stays near 1."""
    n = q_supp.shape[0]
    if n == 1:
        return np.ones(1)
    lam = float(-q_supp.diagonal().min())  # the support's own Lambda
    if lam <= 0:
        raise ValueError("support has no motion; power iteration undefined")
    # v @ P, as the transposed kernel applied to v; built once
    p_t = (sp.eye(n, format="csr") + q_supp / (1.25 * lam)).T.tocsr()
    v = np.full(n, 1.0 / n)
    for _ in range(POWER_MAXITER):
        v2 = p_t @ v
        delta = 0.5 * np.abs(v2 - v).sum()
        v = v2
        if delta < POWER_TOL:
            break
    else:
        raise RuntimeError(f"power iteration did not settle below {POWER_TOL}")
    v = np.clip(v, 0.0, None)
    return v / v.sum()


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary law of the truncated chain.

    ``probabilities`` (read-only) spans the whole enumeration, with exact
    zeros off ``support``, the closed class of ``generator``, the chain the
    law was solved from; ``tail_states`` is k, the size of GTH's dense tail.
    The rest is computed when first read, and kept: ``residual`` is
    max |mu Q| / Lambda, the residual under the uniformized kernel
    P = I + Q/Lambda, so it does not scale with the rates; ``dense_tv`` /
    ``power_tv`` are the total variation distances to the sparse LU null-space
    solve (None where _factorises refuses; the report keys keep the dense
    solve's name) and to power iteration; ``gap`` is ``poincare_constant``.
    """

    probabilities: np.ndarray
    generator: SparseGenerator = field(repr=False)
    tail_states: int

    def expectation(self, f: np.ndarray) -> float:
        return float(self.probabilities @ np.asarray(f, dtype=float))

    @property
    def space(self) -> EnumeratedSpace:
        """The enumerated space of ``generator``."""
        return self.generator.space

    @property
    def support(self) -> np.ndarray:
        """The closed class of ``generator``."""
        return self.generator.support

    @cached_property
    def residual(self) -> float:
        q = self.generator.matrix
        return float(np.abs(self.probabilities @ q).max() / (self.generator.rate or 1.0))

    @cached_property
    def dense_tv(self) -> float | None:
        if not _factorises(self):
            return None
        q_supp = self.generator.support_matrix / (self.generator.rate or 1.0)
        return self._tv(_lu_nullspace_solve(q_supp))

    @cached_property
    def power_tv(self) -> float:
        return self._tv(_power_iteration_solve(self.generator.support_matrix))

    @cached_property
    def gap(self) -> GapResult:
        return poincare_constant(self)

    def _tv(self, other: np.ndarray) -> float:
        return float(0.5 * np.abs(self.probabilities[self.support] - other).sum())


def stationary(gen: SparseGenerator) -> StationaryDistribution:
    """Stationary distribution of the truncated chain.

    The solve on the chain's closed class, ``gen.support``, is GTH
    elimination, sparse rounds and then a dense tail (see _gth_solve), with
    componentwise relative accuracy, needed because tail states can carry
    mass far below the absolute float noise floor of a dense LU solve. The
    residual and the cross-checks run when read (see StationaryDistribution).
    """
    mu = np.zeros(gen.dimension)
    mu[gen.support], tail_states = _gth_solve(gen.support_matrix)
    mu.flags.writeable = False
    return StationaryDistribution(mu, gen, tail_states)


def _factorises(mu: StationaryDistribution) -> bool:
    """Whether SuperLU factorises mu's support: GTH's tail of k states is small (k <=
    GTH_DENSE_STATES, the whole support if no round ran) or k^2 <= SPLU_FILL * nnz(B)."""
    k, q = mu.tail_states, mu.generator.support_matrix
    return k <= GTH_DENSE_STATES or k * k <= SPLU_FILL * (q + q.T).nnz


# -- uniformization -----------------------------------------------------------

def _poisson_stream(m: float):
    """P(Pois(m) = k), k = 0, 1, ..., in log space; raises past 20 m + 500 terms."""
    log_m = math.log(m)
    for k in range(int(20 * m) + 500):
        yield math.exp(-m + k * log_m - math.lgamma(k + 1))
    raise RuntimeError("uniformization series failed to accumulate mass")


def _poisson_weights(m: float, eps: float) -> list:
    """Poisson(m) weights of 0, 1, ... until their sum, added in order, reaches
    1 - eps, then the leftover 1 - sum: the dropped tail, put on one more power."""
    weights, cum = [], 0.0
    for w in _poisson_stream(m):
        weights.append(w)
        cum += w
        if cum >= 1.0 - eps:
            return weights + [1.0 - cum]


def _tail_weights(lam: float, t: float, bound: float, eps: float) -> list:
    """Upper tails P(Pois(lam t) > k), k = 0, 1, ..., which sum to lam t.

    Stops once the tail mass not yet used, times bound / lam, is at most
    eps, or the tail underflows.
    """
    weights, cdf, remaining = [], 0.0, lam * t
    for w in _poisson_stream(lam * t):
        cdf += w
        weights.append(max(1.0 - cdf, 0.0))
        remaining -= weights[-1]
        if remaining * bound / lam <= eps or weights[-1] == 0.0:
            return weights


def _uniformized_sum(op, v: np.ndarray, weights) -> np.ndarray:
    """sum_k weights[k] * op^k v for a vector or an (n, k) block v.

    A block takes one sparse product per power, and its column j is
    bitwise the result for v[:, j] alone. weights[k] is one number, or a
    row of k numbers, one per column of the block.
    """
    acc = np.zeros_like(v)
    for k, w in enumerate(weights):
        if k:
            v = op @ v
        acc += w * v
    return acc


def _series_rate(gen, times, eps: float) -> float:
    """Lambda for series up to each of times with truncation error eps. Refuses a
    time that is not finite and nonnegative, eps outside (0, 1), and Lambda * t past
    MAX_LAMBDA_T: more terms than that, and far past it every weight underflows."""
    for t in times:
        if not 0.0 <= t < math.inf:  # also refuses nan
            raise ValueError(f"time must be finite and nonnegative, got {t}")
    if not 0.0 < eps < 1.0:  # also refuses nan
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    lam = gen.rate
    reach = lam * max(times, default=0.0)
    if reach > MAX_LAMBDA_T:
        raise ValueError(f"Lambda * t = {reach:.6g} exceeds the series bound {MAX_LAMBDA_T:g}")
    return lam


def transient_distribution(gen, x0: int, t: float, eps: float = 1e-12) -> np.ndarray:
    """Distribution at time t started from state index x0.

    Uniformization: the law at time t is a Poisson mixture over powers of the
    discrete kernel P = I + Q/Lambda, applied to the row vector of x0. The
    series is cut once the accumulated Poisson mass reaches 1 - eps, and the
    dropped tail, at most eps, is folded onto one more power: the law keeps
    mass 1 to rounding and, read through the same weights, is the exact
    adjoint of propagate_function. eps must lie in (0, 1).
    """
    lam = _series_rate(gen, [t], eps)
    v = np.zeros(gen.dimension)
    v[x0] = 1.0
    if t == 0 or lam == 0:
        return v
    # v @ P, as the transposed kernel applied to v
    return _uniformized_sum(gen.kernel.T, v, _poisson_weights(lam * t, eps))


def propagate_function(gen, f: np.ndarray, t: float, eps: float = 1e-12) -> np.ndarray:
    """E[f(X_t)] started from every state at once (the semigroup applied to f).

    f is one function of shape (n,) or a block of shape (n, k), propagated
    together. The dropped tail of the Poisson cut is folded onto one more
    power, so a constant stays constant to rounding. eps must lie in (0, 1).
    """
    lam = _series_rate(gen, [t], eps)
    v = np.asarray(f, dtype=float).copy()
    if t == 0 or lam == 0:
        return v
    return _uniformized_sum(gen.kernel, v, _poisson_weights(lam * t, eps))


# -- quadratic forms ----------------------------------------------------------

def gamma_vector(gen, f: np.ndarray) -> np.ndarray:
    """Carre-du-champ of the truncated chain, tabulated: 0.5*(Q f^2 - 2 f Qf)."""
    q = gen.matrix
    f = np.asarray(f, dtype=float)
    return 0.5 * (q @ (f * f) - 2.0 * f * (q @ f))


def variance_and_energy(mu: StationaryDistribution, f: np.ndarray):
    """(Var_mu(f), mu(Gamma(f,f))). Under stationarity the energy equals -mu(f*Qf).

    f is one function of shape (n,), which gives two floats, or k functions
    as the columns of an (n, k) block, which gives two arrays of shape (k,)
    from one sparse product. Column j is bitwise the result for f[:, j] alone.
    """
    q = mu.generator.matrix
    f = np.asarray(f, dtype=float)
    fs = f.reshape(f.shape[0], -1)
    p = mu.probabilities
    fbar = _column_means(p, fs)
    var = _column_means(p, (fs - fbar) ** 2)
    energy = -_column_means(p, fs * (q @ fs))
    if f.ndim == 1:
        return float(var[0]), float(energy[0])
    return var, energy


@dataclass(frozen=True)
class GapResult:
    """Optimal variance-to-energy constant and the function achieving it.

    ``c_opt`` is the largest possible ratio Var_mu(f) / mu(Gamma(f,f)) over
    nonconstant f on the support; ``gap = 1/c_opt`` is the smallest nonzero
    eigenvalue of the symmetrized generator. ``optimizer`` spans the full
    enumeration with zeros off the support, and is read-only. ``residual``
    is ||Bv - gap v|| for the symmetrized operator B and the unit
    eigenvector v behind ``gap``. ``method`` names the eigensolver, "shift-invert" or "iterative".
    """

    c_opt: float
    gap: float
    optimizer: np.ndarray
    method: str
    residual: float


def poincare_constant(mu: StationaryDistribution) -> GapResult:
    """Best constant C with Var_mu(f) <= C * mu(Gamma(f,f)) on the support.

    Computed as 1/lambda_1, with lambda_1 the smallest nonzero eigenvalue of
    the mu-symmetrized negative generator. The similarity transform by
    diag(sqrt(mu)) makes that operator an ordinary symmetric matrix whose
    entries involve only square roots of stationary-mass ratios between
    neighbouring states, which stay moderate even when the masses themselves
    do not.

    Where _factorises(mu) holds, Lanczos runs on the inverse of the
    SuperLU-factorised B + I with the kernel deflated (shift-invert); elsewhere
    LOBPCG runs on B. Neither has a convergence guarantee, and a Ritz value
    that is too large would make C too small, so the residual
    ||Bv - lambda_1 v||, formed with the sparse B, is reported, and a result
    is refused with RuntimeError when it exceeds EIGEN_RESIDUAL_TOL.
    A one-state support has no nonconstant f and is refused with
    DegenerateModelError.
    """
    support = mu.support
    ns = len(support)
    if ns == 1:
        raise DegenerateModelError("support has a single state; no gap defined")
    mu_s = mu.probabilities[support]
    if np.any(mu_s <= 0):
        raise ValueError("stationary mass underflowed to zero on the support")
    sq = np.sqrt(mu_s)
    # B = sym(-diag(sq) Q diag(1/sq)), built once, entry by entry
    m = mu.generator.support_matrix.tocoo()
    m.data = m.data * -(sq[m.row] / sq[m.col])
    b = (0.5 * (m + m.T)).tocsr()

    method = "shift-invert" if _factorises(mu) else "iterative"
    if method == "shift-invert":
        # B + I is positive definite; its inverse, with the kernel sqrt(mu)
        # projected out, has 1 / (1 + lambda_1) as its largest eigenvalue
        lu = spla.splu((b + sp.eye(ns)).tocsc(), permc_spec=SPLU_ORDERING)
        u = sq / np.linalg.norm(sq)

        def deflated_solve(x):
            y = lu.solve(x - u * (u @ x))
            return y - u * (u @ y)

        op = spla.LinearOperator((ns, ns), matvec=deflated_solve, dtype=float)
        # a fixed start: ARPACK's own start vector moves with its earlier calls
        v0 = np.random.default_rng(0).standard_normal(ns)
        vals, vecs = spla.eigsh(b, k=1, sigma=-1.0, which="LM", OPinv=op, v0=v0, tol=0)
        lam1 = float(vals[0])
        vec = vecs[:, 0]
    else:
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((ns, 2))
        kernel = sq.reshape(-1, 1)
        vals, vecs = spla.lobpcg(
            b, x0, Y=kernel, largest=False, tol=1e-12, maxiter=5000
        )
        order = np.argsort(vals)
        lam1 = float(vals[order[0]])
        vec = vecs[:, order[0]]

    residual = float(np.linalg.norm(b @ vec - lam1 * vec))
    if not residual <= EIGEN_RESIDUAL_TOL:
        raise RuntimeError(
            f"{method} eigensolve residual {residual:.3e} exceeds {EIGEN_RESIDUAL_TOL}"
        )
    if lam1 <= 0:
        raise RuntimeError(f"nonpositive spectral gap {lam1}; eigensolve failed")
    f_supp = vec / sq
    f_supp = f_supp - (mu_s @ f_supp)
    f_full = np.zeros(mu.generator.dimension)
    f_full[support] = f_supp
    f_full.flags.writeable = False
    return GapResult(
        c_opt=1.0 / lam1,
        gap=lam1,
        optimizer=f_full,
        method=method,
        residual=residual,
    )


# -- weighted time integrals --------------------------------------------------

def weighted_F_vector(gen, phibar: np.ndarray, t: float, eps: float = 1e-12) -> np.ndarray:
    """integral_0^t E[phibar(X_s)] ds from every state at once.

    Integrating the uniformization mixture term by term turns the Poisson
    weights into upper tail probabilities: the integral equals
    (1/Lambda) * sum_k P(Pois(Lambda t) > k) * (P^k phibar). The series stops
    once the remaining tail mass, multiplied by max phibar / Lambda, is below
    eps, so the truncation error is at most eps. eps must lie in (0, 1).
    """
    lam = _series_rate(gen, [t], eps)
    phibar = np.asarray(phibar, dtype=float)
    if t == 0:
        return np.zeros_like(phibar)
    if lam == 0:
        return phibar * t
    weights = _tail_weights(lam, t, float(np.abs(phibar).max()), eps)
    return _uniformized_sum(gen.kernel, phibar, weights) / lam


def weighted_F_exact(gen, phibar: np.ndarray, x0: int, t: float, eps: float = 1e-12) -> float:
    """integral_0^t E[phibar(X_s)] ds from state index x0."""
    return float(weighted_F_vector(gen, phibar, t, eps)[x0])


def _column_means(p: np.ndarray, block: np.ndarray) -> np.ndarray:
    """p @ each column of block, copied contiguous: BLAS reduces a strided
    column in another order, and a one-function call reduces a contiguous one."""
    return np.array([float(p @ col) for col in np.ascontiguousarray(block.T)])


def semigroup_variance_profile(
    mu: StationaryDistribution,
    f: np.ndarray,
    t_grid,
    eps: float = 1e-12,
    indicator: np.ndarray | None = None,
):
    """Per-time functionals entering the weighted variance inequality.

    For each t in t_grid returns the triple
        lhs(t)      = mu( Var under P_t of f ),
        energy      = mu( Gamma(f, f) ),
        weighted(t) = mu( F_t * P_t(Gamma(f, f) * 1_D) ),
    where F_t is the state-wise expected firing effort up to t (the time
    integral of phibar, the total firing rate, read from mu.space) and 1_D
    the supplied indicator (all-ones when None).

    f is one function of shape (n,) or k functions as the columns of an
    (n, k) block; lhs and weighted then have shape (len(t_grid), k) and
    energy shape (k,). Rows follow t_grid, which may be unsorted and hold
    repeats; times must be finite and nonnegative.

    The distinct times are walked in increasing order, one leg d = t' - t
    at a time, by the Markov property: P_t' = P_d P_t and
    F_t' = F_d + P_d F_t. F_t rides as the last column of the block
    [f, F_t], so each leg takes one propagation of the block and one time
    integral of phibar, and the walk costs Lambda * max(t_grid) series
    terms instead of Lambda * sum(t_grid). Each leg's series drops at most
    eps, relative to the size of what it carries, and P_d does not enlarge
    an earlier leg's error, so the walk is within (number of legs) * eps
    of running every time from 0.

    The weighted term is linear in g = Gamma(f, f) * 1_D, so it is read
    through the adjoint: mu(F_t * P_t g) = nu_t(g) with the measure
    nu_t = (mu F_t) P_t, which does not depend on f. After the walk, one
    transposed series on the (n, J) block [mu F_t1, ..., mu F_tJ] of the J
    distinct times gives every nu_t, column j weighted by Poisson(Lambda
    t_j) and cut where that mass reaches 1 - eps. The cut folds its tail,
    as every series does, so nu_t keeps the mass of mu F_t and a grid of
    one time is the exact adjoint of walking g beside F_t. P_t moves
    mass without adding any, so the weighted term is within
    max|g| * (mu(|error of F_t|) + 2 eps mu(F_t)) of exact: about
    (number of legs + 2) * eps relative to mu(F_t) max|g|. A grid whose
    largest time needs a series past MAX_LAMBDA_T is refused before any
    series runs.
    f^2 needs no walk: mu P_t = mu, so lhs(t) = mu(f^2) - mu((P_t f)^2),
    exact to t * Lambda * |support| * mu.residual * max f^2.
    """
    t_grid = [float(t) for t in t_grid]
    gen = mu.generator
    lam = _series_rate(gen, t_grid, eps)
    times = sorted(set(t_grid))
    f = np.asarray(f, dtype=float)
    phibar = mu.space.total_rates()
    fs = f.reshape(f.shape[0], -1)
    k = fs.shape[1]
    ind = np.ones(f.shape[0]) if indicator is None else np.asarray(indicator, dtype=float)
    p = mu.probabilities
    loc = gamma_vector(gen, fs)
    energy = _column_means(p, loc)
    loc *= ind[:, None]
    mean_f2 = _column_means(p, fs * fs)
    cur = np.hstack([fs, np.zeros((f.shape[0], 1))])
    rows, mu_ft = {}, np.empty((f.shape[0], len(times)))
    t_prev = 0.0
    for j, t in enumerate(times):
        cur = propagate_function(gen, cur, t - t_prev, eps)
        cur[:, -1] += weighted_F_vector(gen, phibar, t - t_prev, eps)
        t_prev = t
        rows[t] = mean_f2 - _column_means(p, cur[:, :k] ** 2)
        mu_ft[:, j] = p * cur[:, -1]
    nu = mu_ft
    if lam:
        # column j's weights end at its own cut, with the tail folded on;
        # t = 0 (where F_0 = 0) takes P^0 alone
        cols = [_poisson_weights(lam * t, eps) if t else [1.0] for t in times]
        weights = np.zeros((max(map(len, cols), default=0), len(times)))
        for j, w in enumerate(cols):
            weights[: len(w), j] = w
        nu = _uniformized_sum(gen.kernel.T, mu_ft, weights)
    terms = {t: _column_means(nu_t, loc) for t, nu_t in zip(times, np.ascontiguousarray(nu.T))}
    lhs = np.array([rows[t] for t in t_grid]).reshape(len(t_grid), k)
    weighted = np.array([terms[t] for t in t_grid]).reshape(len(t_grid), k)
    if f.ndim == 1:
        return lhs[:, 0], float(energy[0]), weighted[:, 0]
    return lhs, energy, weighted
