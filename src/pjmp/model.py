"""Core model: spiking network, exact lattice states, generator algebra.

The process lives on nonnegative membrane-potential vectors. When neuron i
fires, its potential resets to zero and every other neuron j gains the
synaptic weight ``W[i][j]``. Between firings nothing moves, so the dynamics
are fully described by the firing intensities ``phi(x^i) = delta + slope*x^i``
and the reset-and-increment map.

All potentials are kept on an exact rational lattice: every weight is a
rational number, and a state stores integer numerators over one shared
denominator (the LCM of all weight denominators). This makes states hashable
and reachability analysis exact; no floating-point state ever exists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "IntensityFunction",
    "SynapticNetwork",
    "PotentialState",
    "LyapunovCertificate",
    "JumpWindow",
    "intensity_at",
    "total_intensity",
    "jump_map",
    "apply_generator",
    "carre_du_champ",
    "lyapunov_constants",
    "check_lyapunov_pointwise",
    "jump_window_probabilities",
    "network_from_json",
    "network_to_json",
]

# Relative tolerance deciding when the two total rates before/after a jump
# are treated as equal in the closed-form window probabilities.
EQUAL_RATE_RTOL = 1e-12


def _as_fraction(value) -> Fraction:
    """Exact rational from an int, a Fraction, a 'p/q' string, or a decimal.

    Floats are converted through their shortest decimal representation
    (``Fraction(str(0.1)) == 1/10``), not their binary expansion, so model
    files mean what they say.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class IntensityFunction:
    """Affine firing intensity ``phi(x) = delta + slope*x``.

    ``delta > 0`` is the floor rate (a neuron at rest still fires) and
    ``slope > 0`` makes the rate grow with the potential, so ``phi(x) > c*x``
    holds for any ``c <= slope``. Only the affine family is built in; it keeps
    both conditions checkable by inspection. A user-supplied monotone
    intensity would additionally have to declare its own (delta, c) pair and
    is left as an extension point.
    """

    delta: Fraction
    slope: Fraction

    def __post_init__(self):
        if self.delta <= 0 or self.slope <= 0:
            raise ValueError("intensity requires delta > 0 and slope > 0")


@dataclass(frozen=True)
class SynapticNetwork:
    """N neurons with nonnegative rational weights and an affine intensity.

    ``weights[i][j]`` is the increment neuron j receives when neuron i fires;
    the diagonal is zero (a firing neuron resets, it does not feed itself).
    ``denominator`` is the LCM of all weight denominators; every reachable
    potential is an integer multiple of ``1/denominator``.
    """

    n_neurons: int
    weights: tuple[tuple[Fraction, ...], ...]
    intensity: IntensityFunction

    def __post_init__(self):
        n = self.n_neurons
        if n < 1:
            raise ValueError("need at least one neuron")
        if len(self.weights) != n or any(len(row) != n for row in self.weights):
            raise ValueError("weight matrix must be N x N")
        for i, row in enumerate(self.weights):
            for j, w in enumerate(row):
                if w < 0:
                    raise ValueError(f"negative weight at ({i},{j})")
                if i == j and w != 0:
                    raise ValueError(f"nonzero diagonal weight at ({i},{i})")
        # cache the derived tables; recomputing the LCM per jump would dominate
        # every hot loop (frozen dataclass, hence object.__setattr__)
        den = 1
        for row in self.weights:
            for w in row:
                den = den * w.denominator // math.gcd(den, w.denominator)
        object.__setattr__(self, "_den", den)
        wnum = tuple(tuple(int(w * den) for w in row) for row in self.weights)
        for i, row in enumerate(wnum):
            for j, v in enumerate(row):
                # the race kernel's weight table is int64; this bound also
                # keeps every weight and row sum far inside float range
                if v >= 2**63:
                    raise ValueError(
                        f"weight at ({i},{j}) over the denominator {den} exceeds the int64 range"
                    )
        object.__setattr__(self, "_wnum", wnum)
        object.__setattr__(
            self, "_row_sums", tuple(sum(row, Fraction(0)) for row in self.weights)
        )
        try:
            delta_f, slope_f = float(self.intensity.delta), float(self.intensity.slope)
        except OverflowError:
            raise ValueError("delta and slope must lie within float range") from None
        object.__setattr__(self, "_delta_f", delta_f)
        object.__setattr__(self, "_slope_f", slope_f)

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def weight_numerators(self) -> tuple[tuple[int, ...], ...]:
        """Weights scaled to integers over the shared denominator."""
        return self._wnum

    @property
    def row_sums(self) -> tuple[Fraction, ...]:
        """W_i = sum_j W[i][j], exact."""
        return self._row_sums

    def _check_totals(self, nums: np.ndarray) -> np.ndarray:
        """nums, refused with ValueError if a row's sum plus one firing's passes int64."""
        row_max = max(map(sum, self._wnum))  # the most a firing adds to a total
        near = nums.sum(axis=1, dtype=float) > 2.0**62 - row_max  # a float screen
        if any(sum(row) + row_max >= 2**63 for row in nums[near].tolist()):
            raise ValueError("potential numerator sums exceed the int64 range")
        return nums

    def zero_state(self) -> "PotentialState":
        return PotentialState((0,) * self.n_neurons, self.denominator)

    def state(self, values: Sequence) -> "PotentialState":
        """Build a state from rational coordinate values (must lie on the lattice)."""
        den = self.denominator
        nums = []
        for v in values:
            fv = _as_fraction(v) * den
            if fv.denominator != 1 or fv < 0:
                raise ValueError(f"{v!r} is not a nonnegative lattice point over 1/{den}")
            nums.append(int(fv))
        return PotentialState(tuple(nums), den)


@dataclass(frozen=True)
class PotentialState:
    """Exact potential vector: integer numerators over a shared denominator."""

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        if any(n < 0 for n in self.numerators):
            raise ValueError("potentials are nonnegative")

    def value(self, i: int) -> float:
        return self.numerators[i] / self.denominator

    def total(self) -> float:
        return sum(self.numerators) / self.denominator

    def __iter__(self):
        return iter(self.numerators)


def _check_neuron(net: SynapticNetwork, i: int) -> None:
    if not 0 <= i < net.n_neurons:
        raise IndexError(f"neuron index {i} out of range [0, {net.n_neurons})")


def intensity_at(net: SynapticNetwork, x: PotentialState, i: int) -> float:
    """Firing rate of neuron i at state x (0-based index)."""
    _check_neuron(net, i)
    return net._delta_f + net._slope_f * (x.numerators[i] / x.denominator)


def total_intensity(net: SynapticNetwork, x: PotentialState) -> float:
    """Total firing rate, the sum of all per-neuron rates; >= N*delta."""
    return net.n_neurons * net._delta_f + net._slope_f * (
        sum(x.numerators) / x.denominator
    )


def jump_map(net: SynapticNetwork, x: PotentialState, i: int) -> PotentialState:
    """State after neuron i fires: i resets to 0, each j gains W[i][j]."""
    _check_neuron(net, i)
    wrow = net.weight_numerators[i]
    nums = tuple(
        0 if j == i else x.numerators[j] + wrow[j] for j in range(net.n_neurons)
    )
    return PotentialState(nums, x.denominator)


def apply_generator(
    net: SynapticNetwork, f: Callable[[PotentialState], float], x: PotentialState
) -> float:
    """Expected instantaneous rate of change of f at x: sum_i phi(x^i)*(f after i fires - f)."""
    fx = f(x)
    return sum(
        intensity_at(net, x, i) * (f(jump_map(net, x, i)) - fx)
        for i in range(net.n_neurons)
    )


def carre_du_champ(
    net: SynapticNetwork, f: Callable[[PotentialState], float], x: PotentialState
) -> float:
    """Quadratic fluctuation form: half the rate-weighted sum of squared jumps of f.

    Always nonnegative, and equal to half of (L(f^2) - 2 f Lf) for the jump
    generator L.
    """
    fx = f(x)
    return 0.5 * sum(
        intensity_at(net, x, i) * (f(jump_map(net, x, i)) - fx) ** 2
        for i in range(net.n_neurons)
    )


@dataclass(frozen=True)
class LyapunovCertificate:
    """Constants making V(x) = 1 + sum_i x^i a drift function.

    The certificate asserts ``L V <= -theta*V + b*1_B`` with
    ``B = {sum_i x^i <= m}``. All three constants are derived exactly in
    rational arithmetic and exposed as floats, with c = min(slope, delta):

      theta = alpha * c
      b     = sum_i phi(1 + W_i) * W_i + theta
      m     = b / ((1 - alpha) * c)

    Why: a firing of neuron i adds W_i to S = sum_j x^j and takes its own
    y_i = x^i away, so LV = sum_i phi(y_i) (W_i - y_i). For every y >= 0,
    phi(y) (W_i - y) + c y is a concave quadratic in y, at most
    delta W_i + slope W_i^2 / 4 <= phi(1 + W_i) W_i since c <= delta. Summed,
    LV + theta V <= b - (1 - alpha) c S, which is negative off B and at most
    b on B.
    """

    alpha: float
    theta: float
    b: float
    m: float
    strong: bool  # theta > 1, possible only when delta > 1 and slope > 1


def lyapunov_constants(net: SynapticNetwork, alpha=Fraction(4, 5)) -> LyapunovCertificate:
    """Drift constants for V = 1 + sum x^i at a given alpha in (0, 1).

    alpha trades the drift rate theta against the size m of the return set:
    alpha near 1 maximizes theta but blows up m.
    """
    a = _as_fraction(alpha)
    if not 0 < a < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    c_min = min(net.intensity.slope, net.intensity.delta)
    theta = a * c_min
    b = theta
    for wi in net.row_sums:
        b += (net.intensity.delta + net.intensity.slope * (1 + wi)) * wi
    m = b / ((1 - a) * c_min)
    return LyapunovCertificate(
        alpha=float(a),
        theta=float(theta),
        b=float(b),
        m=float(m),
        strong=theta > 1,
    )


def _jumped_totals(net: SynapticNetwork, nums: np.ndarray) -> np.ndarray:
    """Numerator sum of jump_map(x, i) for each row x of nums, shape (n, N)."""
    wsum = np.array([sum(row) for row in net.weight_numerators], dtype=np.int64)
    return nums.sum(axis=1, keepdims=True) - nums + wsum


def _drift_of_v(net: SynapticNetwork, nums: np.ndarray):
    """Total, V = 1 + total and LV (apply_generator's sum, in its order) for
    each row of an (n, N) int64 array of numerators over net.denominator."""
    den = net.denominator
    total = nums.sum(axis=1) / den
    v = 1.0 + total
    v_after = 1.0 + _jumped_totals(net, nums) / den
    rates = net._delta_f + net._slope_f * (nums / den)
    lv = np.zeros(len(nums))
    for i in range(net.n_neurons):
        lv += rates[:, i] * (v_after[:, i] - v)
    return total, v, lv


def check_lyapunov_pointwise(net: SynapticNetwork, cert: LyapunovCertificate, x):
    """Signed slack of the drift inequality at x; >= 0 means it holds there.

    Returns (-theta*V(x) + b*1_B(x)) - LV(x) with V(x) = 1 + sum_i x^i. x is
    a PotentialState (one float) or an (n, N) integer array of numerators
    over net.denominator (n slacks); refused with ValueError past int64.
    """
    if isinstance(x, PotentialState):
        return float(check_lyapunov_pointwise(net, cert, [x.numerators])[0])
    total, v, lv = _drift_of_v(net, net._check_totals(np.asarray(x, dtype=np.int64)))
    return (-cert.theta * v + np.where(total <= cert.m, cert.b, 0.0)) - lv


class JumpWindow(NamedTuple):
    """Closed-form probabilities for the race out of a fixed state.

    ``p_no_jump``: nothing fires in [0, s].
    ``p_one_jump``: neuron i fires exactly once and nobody else fires in [0, s].
    ``t_peak``: the s maximizing the one-jump probability; it increases up to
    t_peak and decreases after.
    """

    p_no_jump: float
    p_one_jump: float
    t_peak: float


def jump_window_probabilities(
    net: SynapticNetwork, x: PotentialState, i: int, s: float
) -> JumpWindow:
    """Exact one-window jump probabilities for neuron i starting from x.

    With a = total rate at x and b = total rate after i fires, the one-jump
    probability is phi(x^i) * (e^{-s b} - e^{-s a}) / (a - b) when a != b and
    s * phi(x^i) * e^{-s a} when the totals coincide. The distinct-rate branch
    is evaluated through expm1, which is the series-safe form when a and b are
    close; the equal branch is chosen when |a - b| <= EQUAL_RATE_RTOL * a.
    """
    _check_neuron(net, i)
    if s < 0:
        raise ValueError(f"window length must be nonnegative, got {s}")
    a = total_intensity(net, x)
    bb = total_intensity(net, jump_map(net, x, i))
    rate_i = intensity_at(net, x, i)
    p_none = math.exp(-s * a)
    if abs(a - bb) <= EQUAL_RATE_RTOL * a:
        p_one = s * rate_i * math.exp(-s * a)
    else:
        # rate_i * e^{-s b} * (1 - e^{-s (a - b)}) / (a - b), exact in the limit a -> b
        p_one = rate_i * math.exp(-s * bb) * (-math.expm1(-s * (a - bb))) / (a - bb)
    return JumpWindow(p_none, p_one, _peak_time(a, bb))


def _peak_time(a: float, bb: float) -> float:
    """Peak of the one-jump probability, total rates a before and bb after."""
    if abs(a - bb) <= EQUAL_RATE_RTOL * a:
        return 1.0 / a
    return math.log1p((a - bb) / bb) / (a - bb)


def network_from_json(source) -> SynapticNetwork:
    """Load a model from the path of a JSON file or from an already-parsed dict.

    Schema: {"n": int, "weights": [[rationals]], "intensity": {"delta": num,
    "slope": num}}. Rational entries may be integers, "p/q" strings, or
    decimal literals.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    try:
        n = doc["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(f"n must be an integer, got {n!r}")
        rows = doc["weights"]
        # strings and dicts iterate too: "01" would be read as the row [0, 1]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise TypeError("weights must be a list of rows, each a list")
        weights = tuple(tuple(_as_fraction(w) for w in row) for row in rows)
        intensity = doc["intensity"]
        delta = _as_fraction(intensity["delta"])
        slope = _as_fraction(intensity["slope"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    return SynapticNetwork(
        n_neurons=n,
        weights=weights,
        intensity=IntensityFunction(delta=delta, slope=slope),
    )


def network_to_json(net: SynapticNetwork) -> dict:
    """Round-trippable plain-dict form of a network."""
    def enc(q: Fraction):
        return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    return {
        "n": net.n_neurons,
        "weights": [[enc(w) for w in row] for row in net.weights],
        "intensity": {"delta": enc(net.intensity.delta), "slope": enc(net.intensity.slope)},
    }
