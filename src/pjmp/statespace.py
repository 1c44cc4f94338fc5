"""Reachable-state enumeration inside a coordinate box and the rate matrix.

The box {x : x_i <= m_box for all i} plays the role of the compact set the
drift condition pushes the process back into. Jumps that would leave the box
are saturated coordinate-wise, which keeps probability flow conservative: a
saturated jump that lands back on its own source is a no-op and contributes
nothing to the generator.

The enumeration is held as three read-only (n_states, N) tables: the
integer numerators of every state, the index of the state each neuron's
saturated jump lands on, and whether that jump needed saturation. Every
consumer (generator, masks, certificates) reads these tables; ``PotentialState``
objects for the whole box are built only on request, through ``states``,
``index``, ``position`` and ``in``. The files that carry the enumeration and
the rate matrix (``states.csv``, ``generator.mtx``) are rendered by the
command line, with every other output file. A generator keeps its closed
class (``support``, ``support_matrix``) and uniformized chain once read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .model import PotentialState, SynapticNetwork

__all__ = [
    "EnumeratedSpace",
    "SparseGenerator",
    "StateSpaceCapExceeded",
    "saturate",
    "enumerate_states",
    "assemble_generator",
]

DEFAULT_MAX_STATES = 200_000
_INT64_MAX = int(np.iinfo(np.int64).max)


class StateSpaceCapExceeded(RuntimeError):
    """Enumeration aborted because the box holds more states than allowed."""


def _cap_numerator(m_box, den: int) -> int:
    """Largest integer numerator with value <= m_box, exactly."""
    if not 0 < m_box < math.inf:
        raise ValueError(f"box bound must be finite and positive, got {m_box}")
    return math.floor(Fraction(m_box) * den)


def saturate(x: PotentialState, m_box) -> PotentialState:
    """Cap every coordinate at the largest lattice value <= m_box. Idempotent."""
    cap = _cap_numerator(m_box, x.denominator)
    if all(n <= cap for n in x.numerators):
        return x
    return PotentialState(tuple(min(n, cap) for n in x.numerators), x.denominator)


@dataclass(frozen=True, eq=False)
class EnumeratedSpace:
    """All states reachable from the origin under saturated jumps.

    Ordering is breadth-first layer by layer, each layer sorted
    lexicographically by numerators, so the enumeration (and everything
    derived from it) is identical across runs and platforms. Row k of
    ``numerators`` is state k over ``net.denominator``; ``targets[k, i]`` is
    the index of the state neuron i's saturated jump lands on (k itself for a
    saturated self-jump) and ``saturated[k, i]`` says whether that jump was
    capped.
    """

    net: SynapticNetwork
    m_box: float
    numerators: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)
    saturated: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.numerators)

    @property
    def origin(self) -> PotentialState:
        return PotentialState(tuple(self.numerators[0].tolist()), self.net.denominator)

    @cached_property
    def states(self) -> tuple[PotentialState, ...]:
        den = self.net.denominator
        return tuple(PotentialState(tuple(row), den) for row in self.numerators.tolist())

    @cached_property
    def index(self) -> dict:
        return {s: k for k, s in enumerate(self.states)}

    def __contains__(self, x: PotentialState) -> bool:
        return x in self.index

    def position(self, x: PotentialState) -> int:
        return self.index[x]

    def interior_mask(self) -> np.ndarray:
        """True where no jump from the state needs saturation."""
        return ~self.saturated.any(axis=1)

    def coordinate_values(self) -> np.ndarray:
        """(N, n_states) array of float coordinates."""
        return np.ascontiguousarray(self.numerators.T) / self.net.denominator

    def totals(self) -> np.ndarray:
        """sum_i x^i per state."""
        return self.numerators.sum(axis=1) / self.net.denominator

    def total_rates(self) -> np.ndarray:
        """Total firing rate per state."""
        return self.net.n_neurons * self.net._delta_f + self.net._slope_f * self.totals()

    @cached_property
    def hub(self) -> int:
        """Index of the state every state lands on when neurons 0..N-1 fire once each.

        A firing resets the neuron that fired, so afterwards each coordinate
        holds only what later firings added, whatever the start: every state
        reaches the hub, and the states it reaches are the one closed class.
        """
        ends = np.arange(len(self))
        for i in range(self.net.n_neurons):
            ends = self.targets[ends, i]
        if (ends != ends[0]).any():
            raise RuntimeError("the firing sequence 0..N-1 does not end at one state")
        return int(ends[0])


def enumerate_states(
    net: SynapticNetwork,
    x0: PotentialState,
    m_box,
    max_states: int = DEFAULT_MAX_STATES,
) -> EnumeratedSpace:
    """Breadth-first closure of {saturate(x0)} under saturated jumps.

    Each layer fires every neuron from every frontier state at once and caps
    the targets at the box. Rows are looked up by their big-endian bytes,
    whose order is the lexicographic order of nonnegative numerators, so the
    unseen targets, sorted, form the next layer. A state is refused with
    ValueError if a numerator, or the sum plus one firing's, passes int64.
    """
    if x0.denominator != net.denominator:
        raise ValueError("x0 must lie on the network's lattice")
    n = net.n_neurons
    # numerators above int64 cannot occur, so the cap compares as int64
    cap = min(_cap_numerator(m_box, net.denominator), _INT64_MAX)
    w = np.array(net.weight_numerators, dtype=np.int64)
    limit = _INT64_MAX - int(w.max())
    reset = np.arange(n)
    row_bytes = np.dtype((np.void, 8 * n))
    layers = [np.array([saturate(x0, m_box).numerators], dtype=">i8")]
    lookup = {layers[0].view(row_bytes).item(): 0}
    targets, saturated = [], []
    for frontier in layers:  # grows while it is walked
        if frontier.max() > limit:
            raise ValueError("potential numerators exceed the int64 range")
        net._check_totals(frontier)
        jumped = frontier[:, None, :] + w
        jumped[:, reset, reset] = 0
        saturated.append((jumped > cap).any(axis=2))
        keys = np.minimum(jumped, cap).astype(">i8").view(row_bytes).ravel().tolist()
        fresh = sorted({k for k in keys if k not in lookup})
        lookup.update(zip(fresh, count(len(lookup))))
        targets.append(np.fromiter(map(lookup.__getitem__, keys), np.int64, len(keys)))
        if len(lookup) > max_states:
            raise StateSpaceCapExceeded(
                f"box m_box={m_box} holds more than {max_states} reachable states; "
                f"raise max_states or shrink the box"
            )
        if fresh:
            layers.append(np.frombuffer(b"".join(fresh), dtype=">i8").reshape(-1, n))
    tables = (
        np.concatenate(layers, dtype=np.int64),
        np.concatenate(targets).reshape(-1, n),
        np.concatenate(saturated),
    )
    for table in tables:
        table.flags.writeable = False
    return EnumeratedSpace(net, float(m_box), *tables)


@dataclass(frozen=True)
class SparseGenerator:
    """Rate matrix of the saturated chain on the enumerated ``space``.

    ``matrix`` is CSR with nonnegative off-diagonal rates and each diagonal
    equal to minus its row's off-diagonal sum; row k is state k of ``space``.
    ``rate`` (Lambda = -min diag Q), ``kernel`` (P = I + Q/Lambda, read if
    Lambda > 0), ``support`` (the states the reset hub reaches, sorted: the
    closed class) and ``support_matrix`` (Q on it) are kept once read. All,
    and ``matrix`` from ``assemble_generator``, are read-only.
    """

    matrix: sp.csr_matrix
    space: EnumeratedSpace

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def rate(self) -> float:
        return float(-self.matrix.diagonal().min())

    @cached_property
    def kernel(self) -> sp.csr_matrix:
        return _read_only(sp.eye(self.dimension, format="csr") + self.matrix / self.rate)

    @cached_property
    def support(self) -> np.ndarray:
        hub = self.space.hub
        support = np.sort(csgraph.breadth_first_order(self.matrix > 0, hub, return_predecessors=False))
        support.flags.writeable = False
        return support

    @cached_property
    def support_matrix(self) -> sp.csr_matrix:
        return _read_only(self.matrix[self.support][:, self.support])


def assemble_generator(net: SynapticNetwork, space: EnumeratedSpace) -> SparseGenerator:
    """Build the saturated-chain rate matrix over a space enumerated for net.

    Each state contributes one off-diagonal entry per neuron (rates merging
    onto the same target are summed); saturated self-jumps are dropped.
    """
    if space.net != net:
        raise ValueError("space was enumerated for a different network")
    n = len(space)
    rates = net._delta_f + net._slope_f * (space.numerators / net.denominator)
    moves = space.targets != np.arange(n)[:, None]
    diag = np.zeros(n)
    for i in range(net.n_neurons):  # subtracted neuron by neuron, in order
        diag -= np.where(moves[:, i], rates[:, i], 0.0)
    k, i = moves.nonzero()  # row-major: state by state, neuron by neuron
    off = sp.coo_matrix((rates[k, i], (k, space.targets[k, i])), shape=(n, n))
    q = (off + sp.diags(diag)).tocsr()
    return SparseGenerator(matrix=_read_only(q), space=space)


def _read_only(m: sp.csr_matrix) -> sp.csr_matrix:
    """m with its three arrays made read-only, after putting it in canonical
    form, so that no later scipy call sorts or sums it in place."""
    m.sum_duplicates()
    for array in (m.data, m.indices, m.indptr):
        array.flags.writeable = False
    return m

