"""Event-driven simulation and Monte Carlo estimators.

Between firings every rate is constant, so the next event is an exact
exponential race (Gillespie, 1976): the holding time is Exponential(total
rate) and the firing neuron is chosen proportionally to its rate. No time
discretization exists anywhere in this module; an event at exactly the
horizon fires.

Replica r of a run seeded with s draws only from its own counter-based Philox
stream keyed by (s, r) (Salmon et al., SC'11), ``replica_rng``. Its event k
uses uniforms 2k and 2k+1: the holding time is -log1p(-u_2k) / total (numpy's
log1p, so bits repeat per numpy build and CPU family) and the neuron is the
first whose rate sum, left to right, exceeds u_2k+1 * total. The total is the
same left-to-right sum over all neurons, not builtin sum(), which compensates
from Python 3.12. ``_race_block`` steps BLOCK replicas in lockstep as a
(B, N) int64 array, drawing CHUNK events at a time; one Philox per ensemble,
its key and counter set before each refill, reads every replica's stream.
``_walk``, the scalar walker of the single-path functions, reads one stream
from its start, CHUNK events in its first refill and twice as many in each
next one, up to 1024. Both do the same float arithmetic: no replica depends
on the replica count, BLOCK, CHUNK or the refill sizes, and replica 0 walks
``simulate_path``'s path for that seed. Reductions over replicas use numpy's
pairwise sum in replica order.

A long path revisits few states, so ``_walk`` interns each visited state once
with its cumulative rates and a lazily filled successor row, and records each
event as three numbers in array buffers: the state's index, the holding time
and the firing neuron. The single-path functions read those arrays: event
times are their running sum, ``ergodic_average`` calls f once per distinct
state, and both occupation scans read the path SCAN_CHUNK events at a time,
so their temporaries do not grow with the horizon, and add their segments
left to right, in event order, as a loop over events would.
``simulate_path`` keeps the path as those columns: ``Trajectory.events`` is
a read-only ``TrajectoryEvents`` sequence over them, not a tuple, and builds
a ``TrajectoryEvent`` only when one is read.

A seeded path is a pure function of the network, the start, the horizon and
the seed, so one walk serves ``simulate_path``, ``ergodic_average`` and
``empirical_tail``: ``_seeded_walk`` keeps the last seeded path, as read-only
arrays of about 16 bytes per event, until the next seeded path replaces it.

Every run has an event budget of MAX_EVENTS events. Before walking, a run
from x over time t with R replicas expects about R * (1 + t * max(Phi(x),
Phi(h))) events in all, with Phi the total rate and h the state reached
from x by firing neurons 0..N-1 once each: every replica draws at least the
event that ends past t. A run that expects more is refused with
RuntimeError. A path that passes MAX_EVENTS events all the same (its
rates grow further out) stops with the same error, in ``_walk`` at a refill
and in ``_race_block`` at a step.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import PotentialState, SynapticNetwork, jump_map, total_intensity

__all__ = [
    "TrajectoryEvent",
    "TrajectoryEvents",
    "Trajectory",
    "EstimatorResult",
    "next_event",
    "simulate_path",
    "estimate_semigroup",
    "ergodic_average",
    "empirical_tail",
    "estimate_weight_F",
    "estimate_ensemble",
]

BLOCK = 512  # replicas stepped in lockstep; bounds the state and draw buffers
CHUNK = 32  # events drawn per refill of a stream
_CHUNK_CAP = 1024  # the scalar walker doubles its refills up to this many events
MAX_EVENTS = 2**26  # events a run may take: about 1 GiB of 16-byte path records
SCAN_CHUNK = 2**14  # events an occupation scan reads at a time


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Philox stream keyed by (seed, replica): the reference definition of its draws."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    key = np.array([seed, replica], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TrajectoryEvent:
    """One firing: when, who, and the state the firing acted on."""

    time: float
    neuron: int
    pre_state: PotentialState


class TrajectoryEvents(Sequence):
    """The firings of a path as read-only columns; an event is built when read.

    ``times`` (float64) and ``neurons`` hold one entry per firing, and
    ``state_ids`` the index of its pre-state in ``states``, a tuple with one
    PotentialState per distinct state. Indexing builds one TrajectoryEvent,
    a slice a tuple of them. Equality with any sequence is item by item, and
    the hash is that of the tuple of events, so the columns compare and hash
    as that tuple does.
    """

    __slots__ = ("times", "neurons", "state_ids", "states")

    def __init__(self, times: np.ndarray, neurons: np.ndarray, state_ids: np.ndarray, states):
        for column in (times, neurons, state_ids):
            column.flags.writeable = False
        self.times, self.neurons, self.state_ids, self.states = times, neurons, state_ids, states

    def __len__(self) -> int:
        return len(self.times)

    def _event(self, k: int) -> TrajectoryEvent:
        pre = self.states[self.state_ids[k]]
        return TrajectoryEvent(float(self.times[k]), int(self.neurons[k]), pre)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(map(self._event, range(*key.indices(len(self)))))
        k = operator.index(key)
        if not -len(self) <= k < len(self):
            raise IndexError("event index out of range")
        return self._event(k)

    def __iter__(self):
        pre = map(self.states.__getitem__, self.state_ids.tolist())
        return map(TrajectoryEvent, self.times.tolist(), self.neurons.tolist(), pre)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        # through __init__, so a copy's columns are read-only too
        return TrajectoryEvents, (self.times, self.neurons, self.state_ids, self.states)

    def __repr__(self) -> str:
        return f"<TrajectoryEvents: {len(self)} events over {len(self.states)} states>"


@dataclass(frozen=True)
class Trajectory:
    """A simulated path: its firings in time order, the state at the horizon, the horizon.

    ``simulate_path`` stores the firings as columns (``TrajectoryEvents``);
    ``events`` may be any sequence of TrajectoryEvent.
    """

    events: Sequence[TrajectoryEvent]
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


def _check_times(horizon: float, burn_in: float | None = None) -> None:
    """Shared prologue: times finite and nonnegative, averaging window nonempty."""
    for value in (horizon, burn_in):
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ValueError(f"time must be finite and nonnegative, got {value!r}")
    if burn_in is not None and not horizon > burn_in:
        raise ValueError("horizon must exceed burn_in")


def _over_budget(events: float) -> RuntimeError:
    return RuntimeError(
        f"about {events:.3g} events, more than the budget of {MAX_EVENTS}; "
        "shorten the horizon or lower the rates"
    )


def _check_budget(net: SynapticNetwork, x: PotentialState, t: float, replicas: int) -> None:
    """Refuse a run whose expected event count, replicas * (1 + t * max(Phi(x),
    Phi(h))), exceeds MAX_EVENTS; h is x after neurons 0..N-1 fire once each,
    and the 1 is the event each replica draws past t."""
    h = x
    for i in range(net.n_neurons):
        h = jump_map(net, h, i)
    expected = replicas * (1 + t * max(total_intensity(net, x), total_intensity(net, h)))
    if not expected <= MAX_EVENTS:
        raise _over_budget(expected)


def _exp_pick(u: np.ndarray):
    """Exp(1) and pick uniforms of rows of event uniforms, two per event."""
    return -np.log1p(-u[:, 0::2]), u[:, 1::2]


def _draws(rng, n_events: int):
    """Exp(1) and pick uniforms of the stream's next n_events, as one row."""
    return _exp_pick(rng.random((1, 2 * n_events)))


def _keyed_uniforms(seed: int):
    """Reader of every replica's stream of a seeded run through one repositioned Philox.

    read(replicas, k) returns the uniforms replica_rng(seed, r) draws for
    events k..k+CHUNK-1, one row per replica r.
    """
    rng = replica_rng(seed, 0)
    state = rng.bit_generator.state
    key, counter = [seed, 0], [0, 0, 0, 0]  # lists: the state setter reads them by element
    state["state"] = {"key": key, "counter": counter}

    def read(replicas: np.ndarray, k: int) -> np.ndarray:
        skip = 2 * k % 4  # uniform 2k sits this far into its 4-uniform Philox block
        counter[0] = 2 * k // 4
        u = np.empty((len(replicas), skip + 2 * CHUNK))
        for row, r in zip(u, replicas.tolist()):
            key[1] = r
            rng.bit_generator.state = state
            rng.random(out=row)
        return u[:, skip:]

    return read


def _walk(
    net: SynapticNetwork,
    nums: tuple,
    rng: np.random.Generator,
    horizon: float,
    chunk: int,
    cap: int,
):
    """Scalar race from numerators nums up to the first event that ends past horizon.

    Each visited numerator tuple is interned once, in first-visit order, with
    its left-to-right cumulative rates (the last is the total rate) and a
    successor row filled the first time each neuron fires there. Returns
    that table and three per-event buffers: the pre-state's index in the
    table, the holding time and the firing neuron. The last event ends past
    the horizon and does not fire; every earlier one does. The first refill
    draws ``chunk`` events, and each next one twice as many, up to ``cap``;
    the draws are read in stream order, so the refill sizes change no bit.
    """
    n, den = net.n_neurons, net.denominator
    delta, slope = net._delta_f, net._slope_f  # the floats intensity_at uses
    wnum = net.weight_numerators
    table, index, rows = [], {}, []

    def visit(nums):
        index[nums] = len(table)
        table.append(nums)
        cum = list(accumulate(delta + slope * (v / den) for v in nums))
        rows.append((cum, cum[-1], [None] * n))
        return index[nums]

    ids, taus, picks = array("i"), array("d"), array("i")
    sid = visit(nums)
    cum, total, succ = rows[sid]
    t = 0.0
    while True:
        if len(ids) > MAX_EVENTS:
            raise _over_budget(len(ids))
        exps, us = _draws(rng, chunk)
        chunk = min(2 * chunk, cap)
        for e, u in zip(exps[0].tolist(), us[0].tolist()):
            tau = e / total
            # the first of neurons 0..n-2 whose rate sum exceeds u * total, else n-1
            pick = bisect_right(cum, u * total, 0, n - 1)
            ids.append(sid)
            taus.append(tau)
            picks.append(pick)
            t += tau
            if t > horizon:
                return table, ids, taus, picks
            nxt = succ[pick]
            if nxt is None:
                nums, row = table[sid], wnum[pick]
                after = tuple(0 if j == pick else nums[j] + row[j] for j in range(n))
                nxt = succ[pick] = index[after] if after in index else visit(after)
            sid = nxt
            cum, total, succ = rows[sid]


def _race_block(net: SynapticNetwork, x: PotentialState, t: float, replicas: np.ndarray, read):
    """Run the race from x for time t of the given replicas, in lockstep.

    read is a ``_keyed_uniforms`` reader. Returns the final numerators, shape
    (len(replicas), N), and each replica's exact effort integral_0^t (total
    rate) ds. Live replicas are always at the same event index, so one refill
    serves all of them.
    """
    n, den = net.n_neurons, net.denominator
    delta, slope = net._delta_f, net._slope_f  # the floats intensity_at uses
    w = np.array(net.weight_numerators, dtype=np.int64).reshape(n, n)
    b = len(replicas)
    finals = np.tile(np.array(x.numerators, dtype=np.int64), (b, 1))
    nums, clock, effort, efforts = finals.copy(), np.zeros(b), np.zeros(b), np.zeros(b)
    live, k = np.arange(b), 0
    while live.size:
        if k > MAX_EVENTS:
            raise _over_budget(k)
        col = k % CHUNK
        if col == 0:
            exps, us = _exp_pick(read(replicas[live], k))
            slot = np.arange(live.size)  # row of each live replica in the draws
            # a chunk adds at most CHUNK * max w to a numerator: check each step if that may wrap
            exact = int(nums.max()) + CHUNK * int(w.max()) > np.iinfo(np.int64).max
        acc = np.cumsum(delta + slope * (nums / den), axis=1)  # left to right
        total = acc[:, -1]
        tau = exps[slot, col] / total
        done = clock + tau > t
        if done.any():
            finals[live[done]] = nums[done]
            efforts[live[done]] = effort[done] + total[done] * (t - clock[done])
            keep = ~done
            live, slot, nums, clock, effort, acc, total, tau = (
                a[keep] for a in (live, slot, nums, clock, effort, acc, total, tau)
            )
        effort += total * tau
        clock += tau
        # acc is nondecreasing, so the first column above u*total is a count
        pick = (acc[:, :-1] <= (us[slot, col] * total)[:, None]).sum(axis=1)
        if exact and (nums > np.iinfo(np.int64).max - w[pick]).any():
            raise ValueError("potential numerators exceed the int64 range")
        nums += w[pick]
        nums[np.arange(live.size), pick] = 0
        k += 1
    return finals, efforts


def _replicas(net: SynapticNetwork, x: PotentialState, t: float, n_replicas: int, seed: int):
    """Final numerators and effort integrals of replicas 0..n_replicas-1."""
    _check_times(t)
    if n_replicas < 2:
        raise ValueError("need at least 2 replicas")
    _check_budget(net, x, t, n_replicas)
    read = _keyed_uniforms(seed)
    finals = np.empty((n_replicas, net.n_neurons), dtype=np.int64)
    efforts = np.empty(n_replicas)
    for lo in range(0, n_replicas, BLOCK):
        hi = min(lo + BLOCK, n_replicas)
        finals[lo:hi], efforts[lo:hi] = _race_block(net, x, t, np.arange(lo, hi), read)
    return finals, efforts


def next_event(net: SynapticNetwork, x: PotentialState, rng: np.random.Generator):
    """Sample the next firing from x: (holding time, neuron index).

    Advances rng by two uniforms, so identical generator state gives identical
    output and the k-th call on replica_rng(s, r) draws replica r's k-th event
    at x. The holding time is Exponential(total rate) and neuron i fires with
    probability rate_i / total.
    """
    _table, _ids, taus, picks = _walk(net, x.numerators, rng, -math.inf, 1, 1)
    return taus[0], picks[0]


@functools.lru_cache(maxsize=1)
def _seeded_walk(
    net: SynapticNetwork, nums: tuple, horizon: float, seed: int, chunk: int, cap: int
):
    """``_walk`` of replica 0 of seed from nums, kept until the next seeded walk replaces it.

    The path is a pure function of the arguments, so ``simulate_path`` and the
    occupation scans of ``_segments`` share one walk of it. chunk and cap are
    the refill sizes, passed so that a changed constant walks afresh. Returns
    the interned numerator tuples as a tuple and three read-only arrays with
    one entry per event: the pre-state's index, the event's end (the running
    sum of the holding times) and the firing neuron. Every caller is handed
    the same record, so the arrays own their data: a view of one cannot be
    made writeable.
    """
    _check_budget(net, PotentialState(nums, net.denominator), horizon, 1)
    table, ids, taus, picks = _walk(net, nums, replica_rng(seed, 0), horizon, chunk, cap)
    # cumsum adds left to right, as t += tau does
    columns = np.array(ids, dtype=np.intc), np.cumsum(taus), np.array(picks, dtype=np.intc)
    for column in columns:
        column.flags.writeable = False
    return (tuple(table), *columns)


def simulate_path(net: SynapticNetwork, x0: PotentialState, horizon: float, seed: int) -> Trajectory:
    """Exact trajectory on [0, horizon], bitwise reproducible from the seed."""
    _check_times(horizon)
    nums = x0.numerators
    table, ids, ends, picks = _seeded_walk(net, nums, horizon, seed, CHUNK, _CHUNK_CAP)
    states = tuple(PotentialState(nums, x0.denominator) for nums in table)
    # the last event ends past the horizon and does not fire
    events = TrajectoryEvents(ends[:-1], picks[:-1], ids[:-1], states)
    return Trajectory(events=events, final_state=states[ids[-1]], horizon=horizon)


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
    return _score_semigroup(f, _replicas(net, x, t, n_replicas, seed)[0], x.denominator, seed)


def _score_semigroup(f, finals: np.ndarray, den: int, seed: int):
    """estimate_semigroup's (mean, variance) of f at the final numerators.

    Few finals are distinct, so f is called once per distinct row, each row
    keyed by its tuple as it is read.
    """
    memo = {}

    def score(row: np.ndarray) -> float:
        nums = tuple(row.tolist())
        if nums not in memo:
            memo[nums] = f(PotentialState(nums, den))
        return memo[nums]

    n = len(finals)
    vals = np.fromiter(map(score, finals), float, n)
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


def _segments(net: SynapticNetwork, burn_in: float, horizon: float, seed: int):
    """Holding segments inside (burn_in, horizon] of the path from zero, in event order.

    Returns the visited numerator tuples and a function that scans the
    segments SCAN_CHUNK events at a time: each call yields, chunk by chunk,
    per segment of positive length, the index of its state and its clipped
    start and end. A scan holds one chunk's arrays, not the whole path's.
    """
    nums = (0,) * net.n_neurons
    table, ids, ends, _picks = _seeded_walk(net, nums, horizon, seed, CHUNK, _CHUNK_CAP)

    def scan():
        for lo in range(0, len(ends), SCAN_CHUNK):
            hi = min(lo + SCAN_CHUNK, len(ends))
            starts = ends[lo - 1 : hi - 1] if lo else np.concatenate(([0.0], ends[: hi - 1]))
            a, b = np.maximum(starts, burn_in), np.minimum(ends[lo:hi], horizon)
            live = b > a
            yield ids[lo:hi][live], a[live], b[live]

    return table, scan


def _running_sum(x: np.ndarray, start: float) -> float:
    """start plus the elements of x, left to right, as a loop adds (np.sum adds pairwise)."""
    return float(np.cumsum(np.concatenate(([start], x)))[-1])


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
    time. f must depend on the state only: it is called once per distinct
    state the path visits, burn-in included.
    """
    _check_times(horizon, burn_in)
    if not isinstance(n_batches, (int, np.integer)) or n_batches < 2:
        raise ValueError(f"n_batches must be an integer >= 2, got {n_batches!r}")
    table, scan = _segments(net, burn_in, horizon, seed)
    den = net.denominator
    vals = np.fromiter((f(PotentialState(nums, den)) for nums in table), float, len(table))
    batch_len = (horizon - burn_in) / n_batches
    batch_acc = np.zeros(n_batches)
    for ids, a, b in scan():
        # spread each segment over the batch windows ka..kb it crosses
        ka = ((a - burn_in) / batch_len).astype(np.int64)
        kb = np.minimum(((b - burn_in) / batch_len).astype(np.int64), n_batches - 1)
        counts = np.maximum(kb - ka + 1, 0)
        seg = np.repeat(np.arange(len(a)), counts)
        k = ka[seg] + np.arange(len(seg)) - np.repeat(np.cumsum(counts) - counts, counts)
        lo = burn_in + k * batch_len
        overlap = np.minimum(b[seg], lo + batch_len) - np.maximum(a[seg], lo)
        hit = overlap > 0
        # add.at adds in index order, and the chunks come in event order, as
        # a loop over segments adds
        np.add.at(batch_acc, k[hit], vals[ids[seg[hit]]] * overlap[hit])
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
    if not np.isfinite(r_grid).all():
        raise ValueError(f"tail levels must be finite, got {r_grid.tolist()}")
    if r_grid.size == 0 or np.any(np.diff(r_grid) <= 0):
        raise ValueError("r_grid must be nonempty and strictly increasing")
    _check_times(horizon, burn_in)
    table, scan = _segments(net, burn_in, horizon, seed)
    den = net.denominator
    levels = np.array([sum(nums) / den for nums in table])
    occupation = np.zeros(len(r_grid))
    for ids, a, b in scan():
        level, seg = levels[ids], b - a
        occupation = np.array(
            [_running_sum(seg[level >= r], s) for r, s in zip(r_grid.tolist(), occupation)]
        )
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
    return _score_effort(_replicas(net, x, t, n_replicas, seed)[1], seed)


def _score_effort(vals: np.ndarray, seed: int) -> EstimatorResult:
    """estimate_weight_F's mean of the effort integrals."""
    n = len(vals)
    mean = float(np.sum(vals) / n)
    s = float(np.std(vals, ddof=1))
    return EstimatorResult(mean=mean, std_error=s / math.sqrt(n), n_samples=n, seed=seed)


def estimate_ensemble(
    net: SynapticNetwork, f, x: PotentialState, t: float, n_replicas: int, seed: int
):
    """What estimate_semigroup and estimate_weight_F return, from one race: (mean, var, effort)."""
    finals, efforts = _replicas(net, x, t, n_replicas, seed)
    return (*_score_semigroup(f, finals, x.denominator, seed), _score_effort(efforts, seed))
