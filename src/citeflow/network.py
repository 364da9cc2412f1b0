"""Directed network model for citation analysis.

Vertices are 1-based contiguous ids with string labels.  Arcs are stored as
parallel numpy arrays (tail, head, weight).  The CSR-style adjacency indices
of each direction and the levels and stage schedules derived from them are
built on first use and kept, so a network that is only transformed or
written never pays for them.  The DAG sweeps keep their levels and
schedules on the input network only, never on its standard form.  An arc
(u, v) points from the cited (earlier) work u to the citing (later) work
v, so arc direction follows the flow of knowledge forward in time.

Parallel arcs and loops are representable; `simplify` merges parallels.
Networks are immutable after construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import repeat
from typing import Literal

import numpy as np

# Numeric modes used by weight computations and understood by the writers:
#   "float" - 64-bit floating point, fails loudly on overflow to infinity
#   "exact" - arbitrary-precision integers (Fractions after normalization)
#   "log"   - natural logarithms of the counts, sums via log-add-exp
Mode = Literal["float", "exact", "log"]
MODES: tuple[str, ...] = ("float", "exact", "log")


class ArcWeights:
    """Per-arc weight vector aligned with a network's arc order.

    `values` is a read-only 1-D numpy array in every mode: float64 in
    "float" and "log" mode, object (Python ints, or Fractions after
    normalization or aging) in "exact" mode.
    """

    __slots__ = ("values", "mode")

    def __init__(self, values, mode: Mode = "float"):
        if mode not in MODES:
            raise ValueError(f"unknown numeric mode: {mode!r}")
        self.values = np.asarray(  # a view: the caller's array stays as is
            values, dtype=object if mode == "exact" else np.float64).view()
        self.values.flags.writeable = False
        if self.values.ndim != 1:
            raise ValueError("weights must be a flat sequence of numbers")
        self.mode = mode

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def tolist(self) -> list:
        return self.values.tolist()

    def __repr__(self) -> str:
        return f"ArcWeights(m={len(self)}, mode={self.mode!r})"


class Network:
    """Immutable directed multigraph with labels and arc weights."""

    __slots__ = ("n", "labels", "tails", "heads", "weights", "_memos")

    def __init__(self, n: int, arcs: Iterable[tuple] = (),
                 labels: Sequence[str] | None = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = list(arcs)
        m = len(rows)
        tails = np.empty(m, dtype=np.int64)
        heads = np.empty(m, dtype=np.int64)
        weights = np.ones(m, dtype=np.float64)
        for i, row in enumerate(rows):
            if len(row) == 2:
                tails[i], heads[i] = row
            else:
                tails[i], heads[i], weights[i] = row
        self._init_from_arrays(n, tails, heads, weights, labels)

    @classmethod
    def from_arrays(cls, n: int, tails: np.ndarray, heads: np.ndarray,
                    weights: np.ndarray | None = None,
                    labels: Sequence[str] | None = None) -> "Network":
        """Fast path used by generators and transforms."""
        net = cls.__new__(cls)
        tails = np.ascontiguousarray(tails, dtype=np.int64)
        heads = np.ascontiguousarray(heads, dtype=np.int64)
        if weights is None:
            weights = np.ones(len(tails), dtype=np.float64)
        else:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
        net._init_from_arrays(n, tails, heads, weights, labels)
        return net

    def _init_from_arrays(self, n, tails, heads, weights, labels):
        if len(tails) != len(heads) or len(tails) != len(weights):
            raise ValueError("arc arrays must have equal length")
        if len(tails) and (tails.min() < 1 or tails.max() > n
                           or heads.min() < 1 or heads.max() > n):
            raise ValueError("arc endpoint out of range 1..n")
        if labels is None:
            labels = tuple(str(v) for v in range(1, n + 1))
        else:
            # a dict would silently iterate its keys, so reject it outright
            if isinstance(labels, Mapping):
                raise TypeError("labels must be a sequence in vertex order, "
                                "not a mapping")
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must have one entry per vertex")
            if not all(map(isinstance, labels, repeat(str))):
                raise TypeError("labels must be strings")
        self.n = int(n)
        self.labels = labels
        self.tails = tails
        self.heads = heads
        self.weights = weights
        for arr in (tails, heads, weights):
            arr.flags.writeable = False
        self._memos = {}

    # --- basic accessors ---

    @property
    def m(self) -> int:
        return len(self.tails)

    def label(self, v: int) -> str:
        return self.labels[v - 1]

    # --- adjacency ---
    # Arc indices within each list are ordered by (tail, head, input position),
    # so iteration order is deterministic for equal inputs.

    def _memo(self, build, *args):
        """build(self, *args), computed once per arguments and kept."""
        key = (build.__name__, *args)
        if key not in self._memos:
            self._memos[key] = build(self, *args)
        return self._memos[key]

    def _adjacency(self, reverse: bool = False):
        """(ptr, idx): arc indices grouped by tail, or by head with
        `reverse`; built on first use."""
        return self._memo(_csr, reverse)

    def out_arcs(self, v: int) -> np.ndarray:
        ptr, idx = self._adjacency()
        return idx[ptr[v]:ptr[v + 1]]

    def in_arcs(self, v: int) -> np.ndarray:
        ptr, idx = self._adjacency(reverse=True)
        return idx[ptr[v]:ptr[v + 1]]

    # --- derived views ---

    def reverse(self) -> "Network":
        """Same vertices, every arc flipped; arc order preserved."""
        return Network.from_arrays(self.n, self.heads, self.tails,
                                   self.weights, self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (self.n == other.n and self.labels == other.labels
                and np.array_equal(self.tails, other.tails)
                and np.array_equal(self.heads, other.heads)
                and np.array_equal(self.weights, other.weights))

    __hash__ = None  # mutable-feeling equality; not meant for dict keys

    def __repr__(self) -> str:
        return f"Network(n={self.n}, m={self.m})"


def _csr(net: Network, reverse: bool):
    """Arc indices grouped by tail (head with `reverse`), ties by the other
    endpoint, then position."""
    keys, minor = (net.heads, net.tails) if reverse else (net.tails, net.heads)
    dt = np.uint16 if net.n < 2**16 else np.int64  # uint16 sorts by radix
    order = np.lexsort((minor.astype(dt), keys.astype(dt))).astype(
        np.int32 if len(keys) < 2**31 else np.int64)
    ptr = np.r_[0, np.cumsum(np.bincount(keys, minlength=net.n + 1))]
    ptr.flags.writeable = order.flags.writeable = False
    return ptr, order


def simplify(net: Network) -> Network:
    """Merge parallel arcs, summing their weights.

    Weight computations count one path per arc, so parallel citations must be
    collapsed first.  First occurrence fixes the merged arc's position; loops
    are kept (the repair step deals with them).
    """
    return _merged(net.n, net.tails, net.heads, net.weights, net.labels)


def _merged(n, tails, heads, weights, labels) -> Network:
    """Network on 1..n with parallel arcs merged: each (tail, head) pair sits
    at its first occurrence, its weight the sum of its copies in input order
    (bincount adds them one by one, like a running +=)."""
    first, slot = np.unique(tails * (n + 1) + heads, return_index=True,
                            return_inverse=True)[1:]
    order = np.argsort(first)
    keep = first[order]
    return Network.from_arrays(n, tails[keep], heads[keep],
                               np.bincount(np.argsort(order)[slot], weights,
                                           len(keep)), labels)


def _unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) by a sort and a mask: numpy >= 2.3 hashes np.unique(a)."""
    a = np.sort(a)
    return np.concatenate([a[:1], a[1:][a[1:] != a[:-1]]])


def _forest(n: int, u: np.ndarray, v: np.ndarray):
    """Kruskal's spanning forest of the arcs (u[i], v[i]) taken in index
    order, direction ignored, found by Borůvka rounds: drop arcs inside one
    component, let each component pick its incident arc of smallest index,
    hook it to that arc's other end (a mutual pair roots at the smaller
    label) and pointer-jump.  Returns (the forest's arc indices, ascending;
    each vertex's smallest weak-component member, index 0..n)."""
    m = len(u)
    dt = np.int32 if max(n + 1, m) < 2**31 else np.int64
    lab = np.arange(n + 1, dtype=dt)
    live, a, b = np.arange(m, dtype=dt), lab[u], lab[v]  # ranks, end labels
    picked = [live[:0]]
    while True:
        cross = a != b
        live = live[cross]  # one array at a time bounds the peak
        a = a[cross]
        b = b[cross]
        if not len(live):
            break
        best = np.full(n + 1, m, dtype=dt)
        np.minimum.at(best, a, live)
        np.minimum.at(best, b, live)
        comp = np.flatnonzero(best < m)
        arc = best[comp]
        at = np.searchsorted(live, arc)
        other = np.where(a[at] == comp, b[at], a[at])
        hook = np.arange(n + 1, dtype=dt)
        hook[comp] = other
        root = (hook[other] == comp) & (comp < other)
        hook[comp[root]] = comp[root]
        picked.append(arc[~root])  # a mutual pair's arc once
        while not np.array_equal(hook, nxt := hook[hook]):  # pointer-jump
            hook = nxt
        lab = hook[lab]
        a = hook[a]
        b = hook[b]
    first, inv = np.unique(lab, return_index=True, return_inverse=True)[1:]
    return np.sort(np.concatenate(picked)), first[inv]


# --- generators ---

def complete_acyclic(n: int) -> Network:
    """Network on 1..n with an arc (i, j) for every i < j."""
    if n < 1:
        raise ValueError("n must be positive")
    tails, heads = np.triu_indices(n, k=1)
    return Network.from_arrays(n, tails + 1, heads + 1)


def random_dag(n: int, density: float, seed: int) -> Network:
    """Random acyclic network: each pair i < j gets an arc with p = density.

    Deterministic for a fixed seed: a single PCG64 stream (numpy
    ``default_rng``) draws one uniform per pair in row-major (i, j) order and
    keeps the arc when the draw is below `density`.  density 1.0 gives the
    complete acyclic network.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    tails, heads = np.triu_indices(n, k=1)
    rng = np.random.default_rng(seed)
    keep = rng.random(len(tails)) < density
    return Network.from_arrays(n, tails[keep] + 1, heads[keep] + 1)
