"""Concentration and weighted-variance certificates.

This module turns the solved stationary law into explicit, checkable
constants: a graph-path upper bound for the variance-to-energy constant, the
carre-du-champ coefficient for the exponential of the summed potential, the
admissible exponential rate and its infinite-product prefactor, certified
tail curves, and measured growth constants for the weighted semigroup
variance inequality. Each certificate takes the law alone and reads the
chain it was solved from, ``mu.generator``, and that chain's enumerated
space, ``mu.space``.

Triple-bar norms (sup of mu(f g) over densities g with mu(g) <= 1) reduce on
a finite support to the plain maximum of f over that support; all of them are
computed that way here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.csgraph as csgraph

from .model import _jumped_totals, _peak_time
from .spectral import (
    DegenerateModelError,
    StationaryDistribution,
    semigroup_variance_profile,
)
from .statespace import EnumeratedSpace

__all__ = [
    "PathMethodReport",
    "path_method_C0",
    "compute_C3_sum_function",
    "lambda0_product",
    "solve_admissible_lambda",
    "admissible_lambda",
    "ConcentrationCertificate",
    "TalagrandRow",
    "TalagrandReport",
    "talagrand_verdict",
    "max_peak_time",
    "SemigroupReport",
    "make_function_suite",
    "semigroup_poincare_report",
]


# -- path-method constant -----------------------------------------------------

@dataclass(frozen=True)
class PathMethodReport:
    """Graph-path upper bound for the variance-to-energy constant on the box.

    ``c0`` is N^2 / (2 * min stationary mass on the support * delta). The
    derivation routes every pair of support states through a shortest firing
    sequence, so the report also carries the worst such length.
    """

    c0: float
    max_path_length: int


def path_method_C0(mu: StationaryDistribution) -> PathMethodReport:
    """Evaluate the path-method constant and the exact firing-path diameter.

    Distances are breadth-first searches on the support generator's positive
    pattern, the firing graph. Every state reaches the reset hub h, so with
    reach = max_x d(x, h) <= N, d(x, y) <= reach + d(h, y). Searches into y,
    level by level in decreasing d(h, y), stop once that bound is at most the
    longest path found.
    """
    net = mu.space.net
    support = mu.support
    min_mu = float(mu.probabilities[support].min())
    delta = float(net.intensity.delta)
    c0 = float("inf") if min_mu == 0 else net.n_neurons**2 / (2 * min_mu * delta)
    hub = np.searchsorted(support, mu.space.hub)
    adj = mu.generator.support_matrix > 0
    rev = adj.T.tocsr()
    from_h, to_h = (csgraph.shortest_path(a, unweighted=True, indices=hub) for a in (adj, rev))
    reach, level = int(to_h.max()), int(from_h.max())
    max_len = max(reach, level)
    while level + reach > max_len:
        for y in np.flatnonzero(from_h == level):
            max_len = max(max_len, int(csgraph.shortest_path(rev, unweighted=True, indices=y).max()))
        level -= 1
    return PathMethodReport(c0=c0, max_path_length=max_len)


# -- carre-du-champ coefficients ----------------------------------------------

def compute_C3_sum_function(mu: StationaryDistribution, lam: float) -> float:
    """Exponential-moment coefficient for the summed-potential observable.

    Per neuron, the three competing terms are the second-moment expectation
    mu(phi_i x_i^2) + N0^2 mu(phi_i), the support maximum of phi_i x_i^2, and
    the one-jump worst case N0^2 phi(N0) e^{lambda N0}, with N0 the largest
    weight row sum. The coefficient takes the per-neuron maximum and sums
    over neurons, which is conservative. Nondecreasing in lambda.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    space = mu.space
    net = space.net
    n0 = float(max(net.row_sums))
    coords = space.coordinate_values()
    p = mu.probabilities
    delta = float(net.intensity.delta)
    slope = float(net.intensity.slope)
    exp_term = math.inf if lam * n0 > 700 else math.exp(lam * n0)
    boundary = n0**2 * (delta + slope * n0) * exp_term
    total = 0.0
    for i in range(net.n_neurons):
        phi_i = delta + slope * coords[i]
        moment = float(p @ (phi_i * coords[i] ** 2) + n0**2 * (p @ phi_i))
        ess_sup = float((phi_i * coords[i] ** 2)[mu.support].max())
        total += max(moment, ess_sup, boundary)
    return total


# -- admissible rate and product prefactor ------------------------------------

def lambda0_product(c0: float, c3: float, lam: float, tol: float = 1e-12) -> float:
    """Prefactor prod_k (1 - q/4^k)^{-2^k} with q = lam^2 c0 c3, in log space.

    The log-series terms decay geometrically (term_k <= (q / 2^k) / (1 - q)),
    so summation stops once that bound on the remaining tail drops below tol.
    Requires q < 1; the result is always >= 1.
    """
    q = lam * lam * c0 * c3
    if q < 0:
        raise ValueError("negative q; check the inputs")
    if q >= 1:
        raise ValueError(f"lambda^2*C0*C3 = {q:.6g} >= 1: outside the admissible regime")
    if q == 0:
        return 1.0
    log_sum = 0.0
    k = 0
    while True:
        log_sum += -(2.0**k) * math.log1p(-q / 4.0**k)
        k += 1
        if (q / (1.0 - q)) * 2.0 ** (1 - k) <= tol:
            break
    return math.exp(log_sum)


MIN_LAMBDA = 1e-8  # smallest rate worth certifying
INTERVAL_TOL = 1e-12  # width of the final bisection interval


def solve_admissible_lambda(c0: float, c3_of_lambda, margin: float = 0.1):
    """Largest lambda with lambda^2 * c0 * c3(lambda) = 1 - margin, by bisection.

    c3_of_lambda must be nondecreasing, which makes the target function
    strictly increasing. Bisection stops once the interval is INTERVAL_TOL
    wide and returns its lower end. Degenerate situations (no admissible
    lambda above MIN_LAMBDA, or a coefficient that vanishes identically so
    every lambda is admissible) raise DegenerateModelError.
    """
    if not 0 < margin < 1:
        raise ValueError("margin must lie in (0, 1)")
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    target = 1.0 - margin

    def g(lam: float) -> float:
        c3 = c3_of_lambda(lam)
        if not math.isfinite(c3):
            return math.inf
        return lam * lam * c0 * c3

    if g(MIN_LAMBDA) >= target:
        raise DegenerateModelError(
            f"no admissible lambda above {MIN_LAMBDA}: the coefficient is too large"
        )
    hi = 1.0
    for _ in range(200):
        if g(hi) >= target:
            break
        hi *= 2.0
    else:
        raise DegenerateModelError(
            "coefficient vanishes; every lambda is admissible (degenerate certificate)"
        )
    lo = 0.0
    while hi - lo > INTERVAL_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class ConcentrationCertificate:
    """Everything needed to evaluate the certified exponential tail bound."""

    c0: float
    c3: float
    n0: float
    lam: float
    lam0: float
    q: float


def admissible_lambda(
    mu: StationaryDistribution, c0: float, margin: float = 0.1
) -> ConcentrationCertificate:
    """Admissible exponential rate for the summed-potential observable.

    The coefficient c3 itself grows with lambda through its boundary term, so
    the admissibility equation is solved by bisection; the returned rate
    satisfies lambda^2 * c0 * c3(lambda) = 1 - margin to bisection accuracy.
    """
    lam = solve_admissible_lambda(c0, lambda x: compute_C3_sum_function(mu, x), margin=margin)
    c3 = compute_C3_sum_function(mu, lam)
    q = lam * lam * c0 * c3
    lam0 = lambda0_product(c0, c3, lam)
    n0 = float(max(mu.space.net.row_sums))
    return ConcentrationCertificate(c0=c0, c3=c3, n0=n0, lam=lam, lam0=lam0, q=q)


# -- certified tails ----------------------------------------------------------

@dataclass(frozen=True)
class TalagrandRow:
    r: float
    exact: float
    bound: float
    centered_exact: float
    centered_bound: float
    ok: bool


@dataclass(frozen=True)
class TalagrandReport:
    rows: tuple
    passed: bool
    mu_F: float


def talagrand_verdict(
    cert: ConcentrationCertificate, mu: StationaryDistribution, r_grid
) -> TalagrandReport:
    """Certified vs exact tails of the summed potential under mu.

    For each r the certified bound is lam0 * e^{lam * mu(min(F, r))} *
    e^{-lam r}; the exact tail is read off the stationary vector. The row for
    the centered observable F - mu(F) is reported alongside. The verdict
    passes when the bound dominates the exact tail at every grid point.
    """
    r_grid = [float(r) for r in r_grid]
    if not r_grid:
        raise ValueError("the tail-level grid is empty")
    if not all(map(math.isfinite, r_grid)):
        raise ValueError(f"tail levels must be finite, got {r_grid}")
    f = mu.space.totals()
    p = mu.probabilities
    mu_f = float(p @ f)
    rows = []
    passed = True
    for r in r_grid:
        mu_fr = float(p @ np.minimum(f, r))
        bound = cert.lam0 * math.exp(cert.lam * mu_fr - cert.lam * r)
        exact = float(p[f >= r].sum())
        fc = f - mu_f
        mu_fcr = float(p @ np.minimum(fc, r))
        centered_bound = cert.lam0 * math.exp(cert.lam * mu_fcr - cert.lam * r)
        centered_exact = float(p[fc >= r].sum())
        ok = exact <= bound
        passed = passed and ok
        rows.append(
            TalagrandRow(
                r=r,
                exact=exact,
                bound=bound,
                centered_exact=centered_exact,
                centered_bound=centered_bound,
                ok=ok,
            )
        )
    return TalagrandReport(rows=tuple(rows), passed=passed, mu_F=mu_f)


# -- weighted semigroup inequality, measured constants ------------------------

def max_peak_time(space: EnumeratedSpace) -> float:
    """Largest one-jump-probability peak time over all (state, neuron) pairs.

    jump_window_probabilities' scalar formula is mapped over the arrays of
    total rates, since numpy's log1p may differ from math.log1p in the last bit.
    """
    net = space.net
    before = np.repeat(space.total_rates(), net.n_neurons)
    after = net.n_neurons * net._delta_f + net._slope_f * (
        _jumped_totals(net, space.numerators) / net.denominator
    )
    return max(map(_peak_time, before.tolist(), after.ravel().tolist()), default=0.0)


@dataclass(frozen=True)
class SemigroupReport:
    """Measured constants for the weighted variance inequality.

    ``d1_hat[t]`` is pinned by functions supported outside the enlarged inner
    box (their weighted term vanishes, so the energy term must carry them
    alone); ``d2_hat[t]`` is then the smallest coefficient covering the rest
    of the suite. Growth exponents are log-log regression slopes over the
    time grid; caps of 3 and 2 carry a 0.25 regression slack.
    """

    theta: float
    t0_max: float
    t1: float
    t_grid: tuple
    d1_hat: tuple
    d2_hat: tuple
    slope_d1: float | None
    slope_d2: float | None
    d1_cap_ok: bool
    d2_cap_ok: bool
    outside_term_max: float
    outside_one_term_ok: bool
    fit_violation: float
    n_suite: int
    n_outside: int
    inner_box: float
    enlarged_box: float

    @property
    def passed(self) -> bool:
        return (
            self.d1_cap_ok
            and self.d2_cap_ok
            and self.outside_one_term_ok
            and self.fit_violation <= 1e-9
        )


# floats the profile's walked [f, F_t] block, n (size + 1), and its
# Gamma(f) 1_D block, n size, may hold together: 256 MiB
SUITE_BUDGET = 2**25


def make_function_suite(space: EnumeratedSpace, size: int, seed: int, enlarged_box: float):
    """Deterministic test functions: coordinates, total, random, and tail-only.

    Returns (suite, outside): the functions as the columns of an (n, size)
    block, and a boolean mask of the columns supported strictly outside the
    enlarged inner box. Those are the last fifth or so of the suite, which
    the measured-d1 step requires. Raises, before any draw, when the box
    holds no such states or the profile's walked and Gamma(f) 1_D blocks
    would pass SUITE_BUDGET floats.
    """
    n = len(space)
    if n * (2 * size + 1) > SUITE_BUDGET:
        raise ValueError(f"suite size {size} on {n} states needs more than {SUITE_BUDGET} floats")
    coords = space.coordinate_values()
    n_base = coords.shape[0] + 1
    n_outside = max(1, size // 5)
    if size < n_base + n_outside:
        raise ValueError(f"suite size {size} too small; need at least {n_base + n_outside}")
    outside_mask = (coords.max(axis=0) > enlarged_box).astype(float)
    if outside_mask.sum() == 0:
        raise ValueError(
            f"no states outside the enlarged inner box ({enlarged_box}); "
            f"enlarge m_box or shrink the inner fraction"
        )
    rng = np.random.default_rng(seed)
    suite = [*coords, space.totals()]
    suite += [rng.standard_normal(n) for _ in range(size - n_outside - n_base)]
    suite += [rng.standard_normal(n) * outside_mask for _ in range(n_outside)]
    return np.column_stack(suite), np.arange(size) >= size - n_outside


def _loglog_slope(ts, ys):
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys > 0
    if len(np.unique(ts[keep])) < 2:  # no line through a single time
        return None
    return float(np.polyfit(np.log(ts[keep]), np.log(ys[keep]), 1)[0])


def semigroup_poincare_report(
    mu: StationaryDistribution,
    t_grid=None,
    suite_size: int = 50,
    seed: int = 0,
    inner_frac: float = 0.5,
    eps: float = 1e-12,
) -> SemigroupReport:
    """Measure the smallest coefficient pair for the weighted inequality.

    The inner box D = {x_i <= inner_frac * m_box} localizes the weighted
    term. For every t in the grid (which must start at or above
    t1 = 1/delta + max peak time) the averaged variance of each suite
    function is compared against d1 * energy + d2 * weighted term, and the
    lexicographically smallest (d1, d2) covering the whole suite is recorded.
    inner_frac must be nonnegative; at 0, D is the origin. A one-state
    support has no nonconstant function and is refused with
    DegenerateModelError.
    """
    if not inner_frac >= 0:
        raise ValueError(f"inner_frac must be a nonnegative number, got {inner_frac!r}")
    space = mu.space
    net = space.net
    theta = (net.n_neurons * math.e) ** net.n_neurons
    t0_max = max_peak_time(space)
    t1 = 1.0 / float(net.intensity.delta) + t0_max
    if t_grid is None:
        t_grid = [t1, 2 * t1, 4 * t1, 8 * t1]
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("the time grid is empty")
    if not all(map(math.isfinite, t_grid)):
        raise ValueError(f"times must be finite, got {t_grid}")
    below = [t for t in t_grid if t < t1 * (1 - 1e-12)]
    if below:
        raise ValueError(f"t values {below} lie below t1 = {t1}")

    if len(mu.support) == 1:
        raise DegenerateModelError("support has a single state; no gap defined")
    inner_box = inner_frac * space.m_box
    max_w = max((max(row) for row in net.weights), default=0)
    enlarged = inner_box + float(max_w)
    indicator = (space.coordinate_values().max(axis=0) <= inner_box).astype(float)
    suite, outside = make_function_suite(space, suite_size, seed, enlarged)
    lhs_t, energies, wterm_t = semigroup_variance_profile(mu, suite, t_grid, eps, indicator)
    pinned = outside & (energies > 0)

    d1_hat, d2_hat = [], []
    outside_term_max = 0.0
    outside_one_term_ok = True
    fit_violation = 0.0
    for lhs, wterm in zip(lhs_t, wterm_t):
        outside_term_max = max(outside_term_max, float(np.abs(wterm[outside]).max()))
        # max() keeps the first of equal values: a ratio of -0.0 leaves d1 at 0.0
        d1 = max([0.0, *(lhs[pinned] / energies[pinned]).tolist()])
        shortfall = lhs - d1 * energies
        short = ~outside & (shortfall > 0) & (wterm > 0)
        d2 = max([0.0, *(shortfall[short] / wterm[short]).tolist()])
        uncovered = shortfall[outside] > 1e-9 * np.maximum(1.0, np.abs(lhs[outside]))
        outside_one_term_ok = outside_one_term_ok and not uncovered.any()
        resid = lhs - d1 * energies - d2 * wterm
        fit_violation = max(fit_violation, float(resid.max()))
        d1_hat.append(d1)
        d2_hat.append(d2)

    slope_d1 = _loglog_slope(t_grid, d1_hat)
    slope_d2 = _loglog_slope(t_grid, d2_hat)
    return SemigroupReport(
        theta=theta,
        t0_max=t0_max,
        t1=t1,
        t_grid=tuple(t_grid),
        d1_hat=tuple(d1_hat),
        d2_hat=tuple(d2_hat),
        slope_d1=slope_d1,
        slope_d2=slope_d2,
        d1_cap_ok=slope_d1 is None or slope_d1 <= 3.25,
        d2_cap_ok=slope_d2 is None or slope_d2 <= 2.25,
        outside_term_max=outside_term_max,
        outside_one_term_ok=outside_one_term_ok,
        fit_violation=fit_violation,
        n_suite=suite.shape[1],
        n_outside=int(outside.sum()),
        inner_box=inner_box,
        enlarged_box=enlarged,
    )
