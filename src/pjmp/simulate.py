"""Event-driven simulation and Monte Carlo estimators.

Between firings every rate is constant, so the next event is an exact
exponential race: the holding time is Exponential(total rate) and the firing
neuron is chosen proportionally to its rate. No time discretization exists
anywhere in this module.

Randomness is counter-based: replica r of a run seeded with s draws from an
independent Philox stream keyed by (s, r). Results are therefore bitwise
reproducible and independent of the order in which replicas run. Reductions
over replicas use numpy's pairwise summation on an index-ordered array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PotentialState, SynapticNetwork

__all__ = [
    "TrajectoryEvent",
    "Trajectory",
    "EstimatorResult",
    "next_event",
    "simulate_path",
    "estimate_semigroup",
    "ergodic_average",
    "empirical_tail",
    "estimate_weight_F",
]


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Independent counter-based stream for one replica of a seeded run."""
    key = np.array([seed, replica], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TrajectoryEvent:
    """One firing: when, who, and the state the firing acted on."""

    time: float
    neuron: int
    pre_state: PotentialState


@dataclass(frozen=True)
class Trajectory:
    events: tuple[TrajectoryEvent, ...]
    final_state: PotentialState
    horizon: float


@dataclass(frozen=True)
class EstimatorResult:
    """Monte Carlo estimate with its standard error.

    std_error is the sample standard deviation divided by sqrt(n_samples)
    (for the time-average estimator: the batch-means analogue).
    """

    mean: float
    std_error: float
    n_samples: int
    seed: int


class _FastModel:
    """Precomputed float tables for the hot simulation loop.

    Rates are computed exactly as intensity_at does, so simulated and tabulated
    rates agree to the last bit.
    """

    __slots__ = ("n", "delta", "slope", "wnum", "den")

    def __init__(self, net: SynapticNetwork):
        self.n = net.n_neurons
        self.delta = float(net.intensity.delta)
        self.den = net.denominator
        self.slope = float(net.intensity.slope)
        self.wnum = net.weight_numerators

    def rates(self, nums):
        d, s, den = self.delta, self.slope, self.den
        return [d + s * (v / den) for v in nums]

    def jump(self, nums, i):
        row = self.wnum[i]
        return tuple(
            0 if j == i else nums[j] + row[j] for j in range(self.n)
        )


def _draw_event(fm: _FastModel, nums, rng: np.random.Generator):
    """(holding time, firing neuron) for the exponential race at one state."""
    rates = fm.rates(nums)
    total = sum(rates)
    tau = rng.exponential(1.0 / total)
    u = rng.random() * total
    acc = 0.0
    for i in range(fm.n - 1):
        acc += rates[i]
        if u < acc:
            return tau, i
    return tau, fm.n - 1


def next_event(net: SynapticNetwork, x: PotentialState, rng: np.random.Generator):
    """Sample the next firing from x: (holding time, neuron index).

    Advances rng in place; identical generator state gives identical output.
    The holding time is Exponential(total rate) and neuron i fires with
    probability rate_i / total.
    """
    fm = _FastModel(net)
    return _draw_event(fm, x.numerators, rng)


def simulate_path(net: SynapticNetwork, x0: PotentialState, horizon: float, seed: int) -> Trajectory:
    """Exact trajectory on [0, horizon], bitwise reproducible from the seed."""
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    fm = _FastModel(net)
    rng = replica_rng(seed, 0)
    t = 0.0
    nums = x0.numerators
    den = x0.denominator
    events = []
    while True:
        tau, i = _draw_event(fm, nums, rng)
        if t + tau > horizon:
            break
        t += tau
        events.append(TrajectoryEvent(time=t, neuron=i, pre_state=PotentialState(nums, den)))
        nums = fm.jump(nums, i)
    return Trajectory(events=tuple(events), final_state=PotentialState(nums, den), horizon=horizon)


def _state_at(fm: _FastModel, nums, t: float, rng: np.random.Generator):
    """Final numerators after running the race for time t."""
    clock = 0.0
    while True:
        tau, i = _draw_event(fm, nums, rng)
        clock += tau
        if clock > t:
            return nums
        nums = fm.jump(nums, i)


def estimate_semigroup(
    net: SynapticNetwork,
    f,
    x: PotentialState,
    t: float,
    n_replicas: int,
    seed: int,
):
    """Monte Carlo (mean, variance) of f(X_t) started from x.

    Returns a pair of EstimatorResults: the first for E[f(X_t)], the second
    for Var[f(X_t)] (unbiased sample variance; its standard error comes from
    the usual fourth-moment formula).
    """
    if n_replicas < 2:
        raise ValueError("need at least 2 replicas")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    fm = _FastModel(net)
    den = x.denominator

    def worker(rng):
        nums = x.numerators if t == 0 else _state_at(fm, x.numerators, t, rng)
        return f(PotentialState(nums, den))

    vals = np.array(
        [worker(replica_rng(seed, r)) for r in range(n_replicas)], dtype=float
    )
    n = n_replicas
    mean = float(np.sum(vals) / n)
    centered = vals - mean
    s2 = float(np.sum(centered**2) / (n - 1))
    se_mean = math.sqrt(s2 / n)
    m4 = float(np.sum(centered**4) / n)
    var_of_s2 = max(m4 - (n - 3) / (n - 1) * s2 * s2, 0.0) / n
    return (
        EstimatorResult(mean=mean, std_error=se_mean, n_samples=n, seed=seed),
        EstimatorResult(mean=s2, std_error=math.sqrt(var_of_s2), n_samples=n, seed=seed),
    )


def _occupation_scan(
    net: SynapticNetwork, f, burn_in: float, horizon: float, seed: int, n_batches: int
):
    """Time-weighted integral of f over (burn_in, horizon], split into equal batches."""
    fm = _FastModel(net)
    rng = replica_rng(seed, 0)
    den = net.denominator
    nums = (0,) * net.n_neurons
    batch_len = (horizon - burn_in) / n_batches
    batch_acc = np.zeros(n_batches)
    t = 0.0
    while t < horizon:
        tau, i = _draw_event(fm, nums, rng)
        seg_a, seg_b = t, min(t + tau, horizon)
        if seg_b > burn_in:
            a = max(seg_a, burn_in)
            val = f(PotentialState(nums, den))
            # spread the segment over the batch windows it crosses
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
        nums = fm.jump(nums, i)
    return batch_acc, batch_len


def ergodic_average(
    net: SynapticNetwork,
    f,
    burn_in: float,
    horizon: float,
    seed: int,
    n_batches: int = 50,
):
    """Long-run occupation average of f along one path started at zero.

    The average weights each visited state by its holding time, which is the
    correct sampling of the invariant law for a continuous-time chain. The
    standard error uses batch means over n_batches equal time windows; that
    is a heuristic, adequate once windows are much longer than the mixing
    time.
    """
    if horizon <= burn_in:
        raise ValueError("horizon must exceed burn_in")
    batch_acc, batch_len = _occupation_scan(net, f, burn_in, horizon, seed, n_batches)
    batch_means = batch_acc / batch_len
    mean = float(np.sum(batch_acc) / (horizon - burn_in))
    se = float(np.std(batch_means, ddof=1) / math.sqrt(n_batches))
    return EstimatorResult(mean=mean, std_error=se, n_samples=n_batches, seed=seed)


def empirical_tail(
    net: SynapticNetwork,
    r_grid,
    burn_in: float,
    horizon: float,
    seed: int,
) -> np.ndarray:
    """Occupation-time fraction of {sum_i x^i >= r} for each r in the grid."""
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size == 0 or np.any(np.diff(r_grid) <= 0):
        raise ValueError("r_grid must be nonempty and strictly increasing")
    if horizon <= burn_in:
        raise ValueError("horizon must exceed burn_in")
    fm = _FastModel(net)
    rng = replica_rng(seed, 0)
    den = net.denominator
    nums = (0,) * net.n_neurons
    occupation = np.zeros_like(r_grid)
    t = 0.0
    while t < horizon:
        tau, i = _draw_event(fm, nums, rng)
        seg = min(t + tau, horizon) - max(t, burn_in)
        if seg > 0:
            occupation += seg * (sum(nums) / den >= r_grid)
        t += tau
        if t >= horizon:
            break
        nums = fm.jump(nums, i)
    return occupation / (horizon - burn_in)


def estimate_weight_F(
    net: SynapticNetwork,
    x: PotentialState,
    t: float,
    n_replicas: int,
    seed: int,
) -> EstimatorResult:
    """Monte Carlo of the accumulated firing effort integral_0^t phibar(X_s) ds.

    The integrand is piecewise constant between firings, so each replica's
    integral is computed exactly; only the replica average is random. Its
    mean equals the expected number of firings in [0, t].
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if n_replicas < 2:
        raise ValueError("need at least 2 replicas")
    fm = _FastModel(net)

    def worker(rng):
        nums = x.numerators
        clock = 0.0
        acc = 0.0
        while True:
            rates = fm.rates(nums)
            total = sum(rates)
            tau = rng.exponential(1.0 / total)
            if clock + tau >= t:
                acc += total * (t - clock)
                return acc
            acc += total * tau
            clock += tau
            u = rng.random() * total
            run = 0.0
            pick = fm.n - 1
            for i in range(fm.n - 1):
                run += rates[i]
                if u < run:
                    pick = i
                    break
            nums = fm.jump(nums, pick)

    vals = np.array(
        [worker(replica_rng(seed, r)) for r in range(n_replicas)], dtype=float
    )
    mean = float(np.sum(vals) / n_replicas)
    s = float(np.std(vals, ddof=1))
    return EstimatorResult(
        mean=mean, std_error=s / math.sqrt(n_replicas), n_samples=n_replicas, seed=seed
    )
