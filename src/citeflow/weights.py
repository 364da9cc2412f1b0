"""Traversal weights for standardized citation networks.

Five weighting methods plus helpers:

* spc  - counts of source-to-sink paths through each arc/vertex.
* splc - the same counting with the source linked to every vertex, so every
         vertex starts its own search paths.
* spnp - all-paths counting: the source and sink are linked to every vertex,
         which makes the arc weight the product of the path counts ending at
         the tail and starting at the head.  aged_path_counts damps each
         path by alpha per arc: the path-length tallies of both ends,
         evaluated at alpha, in the same two sweeps.
* nppc - products of ancestor and descendant set sizes (reachability
         closures), no standardization involved; sum adds the two sizes.
         Both count exactly, in O(n*m/64) word operations.

The three flow methods and aging are one count: a forward and a backward
seeded sweep of the standard form (acyclic._from_end) in the path-count
semiring, from which every standardized arc, vertex and total value
follows; cpm_path, main_path and depths run that sweep in their own.  Each
runs in one of three numeric modes: "float" (fast, raises on overflow to
infinity), "exact" (arbitrary-precision integers, Fractions when aged),
"log" (natural logs of counts; the sane choice beyond roughly a million
arcs).  The closure bitsets run through the same sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .acyclic import StandardizedNetwork, _dag_levels, _from_end, _sweep
from .network import ArcWeights, Mode, MODES, Network

_WORDS = 64  # most uint64 words per closure bitset: 4096 sources per block


class WeightOverflowError(OverflowError):
    """Float-mode counts left the double range; exact or log mode will work."""


@dataclass(frozen=True, eq=False)
class WeightResult:
    """Arc and vertex weights from one method run.

    `arc` is aligned with the arcs of the network the method ran on: the
    standardized network (feedback arc included) for spc/splc/spnp, the plain
    network for nppc/sum.  `vertex` follows the same vertex universe (s and t
    carry the total flow for the flow methods): an array of the same dtype
    as `arc.values` for the flow methods, a tuple of ints for nppc, None for
    sum.  `total_flow` is the feedback arc's weight - the number of counted
    paths - as a Python number, and is None for the closure methods.  In log
    mode every value, total flow included, is a natural logarithm.
    """

    method: str
    arc: ArcWeights
    vertex: object
    total_flow: object
    alpha: float | None = None
    normalized: bool = False
    floored: tuple[int, ...] = ()


# --- the counting engine ---

# (dtype, zero, one, ⊕, ⊗) of the path-count semiring in each numeric mode
_RINGS = {
    "float": (np.float64, 0.0, 1.0, np.add, np.multiply),
    "exact": (object, 0, 1, np.add, np.multiply),
    "log": (np.float64, -np.inf, 0.0, np.logaddexp, np.add),
}


def _flow_counts(std: StandardizedNetwork, method: str, seed_fwd: bool,
                 seed_bwd: bool, mode: Mode,
                 alpha: float | None = None) -> WeightResult:
    """The method's result on the standardized arcs from two `_from_end`
    sweeps in the mode's path-count semiring: links weigh one, input arcs
    `alpha` (None: undamped).  fwd[v] counts the paths ending at v, bwd[v]
    those starting at v.  A path starts at a vertex linked to s: the minimal
    ones, then every other with `seed_fwd`; it ends at one linked to t: the
    maximal ones, then every other with `seed_bwd`.  fwd[t] and bwd[s] sum
    those links in that order.
    """
    if mode not in MODES:
        raise ValueError(f"unknown numeric mode: {mode!r}")
    net, s, t = std.net, std.s, std.t
    ring = _RINGS[mode]
    one, times = ring[2], ring[4]
    factor = None if alpha in (None, 1) else {
        "float": alpha, "exact": Fraction(alpha), "log": math.log(alpha)}[mode]

    def linked(ends, everyone):
        return np.r_[ends, np.setdiff1d(np.arange(1, s), ends, True)
                     if everyone else ends[:0]], one

    to_s, to_t = linked(std.sources, seed_fwd), linked(std.sinks, seed_bwd)
    with np.errstate(over="ignore", invalid="ignore"):
        fwd = _from_end(std, False, ring, factor, to_s, to_t)
        bwd = _from_end(std, True, ring, factor, to_t, to_s)
        arc = np.concatenate([times(fwd[net.tails], bwd[net.heads]),
                              bwd[std.sources], fwd[std.sinks], fwd[t:]])
        vertex = times(fwd[1:], bwd[1:])
    if mode == "float" and not (np.all(np.isfinite(arc))
                                and np.all(np.isfinite(vertex))):
        raise WeightOverflowError(
            "path counts exceed the double range; rerun in mode='exact' "
            "or mode='log'")
    total = fwd[t:].tolist()[0]  # a Python number
    return WeightResult(method, ArcWeights(arc, mode), vertex, total, alpha)


# --- flow methods ---

def spc(std: StandardizedNetwork, mode: Mode = "float") -> WeightResult:
    """Source-to-sink path counts through every arc and vertex.

    The feedback arc carries the total flow: the number of distinct paths
    from s to t, which every minimal arc cut's weights sum to.
    """
    return _flow_counts(std, "SPC", False, False, mode)


def splc(std: StandardizedNetwork, mode: Mode = "float") -> WeightResult:
    """Path counts where every vertex also starts its own searches.

    As if the source were linked to every vertex, not only the minimal
    ones; weights are reported for the standardized arcs.
    """
    return _flow_counts(std, "SPLC", True, False, mode)


def spnp(std: StandardizedNetwork, mode: Mode = "float") -> WeightResult:
    """All-paths counting: source and sink linked to every vertex.

    The weight of an original arc (u, v) equals (paths ending at u) times
    (paths starting at v), trivial paths included; the total flow is the
    number of paths in the whole original network.
    """
    return _flow_counts(std, "SPNP", True, True, mode)


# --- closure methods ---

def _closures(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """(ancestor, descendant) closure sizes indexed 0..n, the vertex itself
    included; rejects cycles.  Word-parallel over blocks of up to 64*_WORDS
    sources, one bit each, in (n+1)*_WORDS words: stage by stage, every
    vertex ORs in the bitsets of its far endpoints.  Ancestors sweep the
    stages of the heads from low to high, descendants those of the tails
    from high to low.  The blocks take the sources in level order, so a
    block's ancestor sweep starts past its lowest level and its descendant
    sweep past its highest.
    """
    n = net.n
    level, order = _dag_levels(net)
    sizes = []
    for backward in (False, True):
        counts = np.zeros(n + 1, dtype=np.int64)
        for first in range(0, n, 64 * _WORDS):
            src = order[first:first + 64 * _WORDS]
            bits = np.zeros((n + 1, -(-len(src) // 64)), dtype=np.uint64)
            bit = np.arange(len(src))
            bits[src, bit >> 6] = np.uint64(1) << (bit & 63).astype(np.uint64)
            # slices of at most n+1 arcs keep each gather within the bitsets
            _sweep(bits, net, backward, np.bitwise_or, cap=n + 1,
                   after=level[src[-1 if backward else 0]])
            counts += np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
        sizes.append(counts)
    return tuple(sizes)


def nppc(net: Network) -> WeightResult:
    """Ancestor-count times descendant-count, per arc and per vertex.

    Runs on the plain acyclic network (no standardization); counts include
    the vertex itself, so every weight is at least 1 and the arc weights are
    bounded by n*n/4.
    """
    anc, desc = _closures(net)
    arc = ArcWeights(anc[net.tails] * desc[net.heads], "exact")
    return WeightResult("NPPC", arc, tuple((anc[1:] * desc[1:]).tolist()),
                        None)


def sum_weights(net: Network) -> WeightResult:
    """Ancestor-count plus descendant-count per arc (a cheap additive variant).

    Values are integers bounded by n.  They carry no total flow, so
    `normalize` refuses them.  No vertex weights are defined.
    """
    anc, desc = _closures(net)
    arc = ArcWeights(anc[net.tails] + desc[net.heads], "exact")
    return WeightResult("SUM", arc, None, None)


# --- aged counts ---

def aged_path_counts(std: StandardizedNetwork, alpha: float,
                     mode: Mode = "float") -> WeightResult:
    """All-paths weights with longer paths damped by alpha per arc.

    Replaces each path tally with sum(alpha^length); alpha = 1 reproduces
    spnp exactly, alpha near 0 leaves every count at 1.  Exact mode counts
    in Fractions (the binary value of alpha), log mode adds ln alpha per
    arc, and float mode raises WeightOverflowError as spnp does.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return _flow_counts(std, "SPNP", True, True, mode, alpha)


# --- post-processing ---

def normalize(result: WeightResult) -> WeightResult:
    """Divide arc and vertex weights by the total flow.

    Only flow-style results (those carrying a total) can be normalized; the
    normalized arc weights lie in [0, 1] and any minimal arc cut sums to 1.
    Exact mode yields Fractions, log mode subtracts the log total.
    """
    total = result.total_flow
    if total is None:
        raise ValueError(f"{result.method} weights carry no total flow")
    mode = result.arc.mode
    if not (math.isfinite(total) if mode == "log" else total > 0):
        raise ValueError("total flow is zero; nothing to normalize")
    if mode == "exact":
        total = Fraction(total)  # int / int would give a float
    op = np.subtract if mode == "log" else np.divide
    return replace(result, arc=ArcWeights(op(result.arc.values, total), mode),
                   vertex=op(result.vertex, total), normalized=True)


def log_transform(result: WeightResult) -> WeightResult:
    """Natural log of every weight, for display-friendly ranges.

    Weight order is preserved.  Zero arc weights are mapped one unit below
    the smallest positive log and their indices recorded in `floored`.
    Exact values of any size have a logarithm.  Log-mode results are
    already logarithms and pass through unchanged.
    """
    if result.arc.mode == "log":
        return result
    vals = result.arc.values
    if np.any(vals < 0):
        raise ValueError("negative weights have no logarithm")
    pos = vals[vals > 0]
    floor = _ln(pos.min()) - 1.0 if len(pos) else -1.0
    floored = tuple(np.flatnonzero(vals == 0).tolist())

    def logs(values):
        return np.fromiter((_ln(v) if v > 0 else floor for v in values),
                           np.float64, len(values))

    vertex = None if result.vertex is None else logs(result.vertex)
    return replace(result, arc=ArcWeights(logs(vals), "log"), vertex=vertex,
                   floored=floored)


def _ln(v) -> float:
    """math.log(v), also of a Fraction beyond the double range."""
    try:
        return math.log(v)
    except (OverflowError, ValueError):
        return math.log(v.numerator) - math.log(v.denominator)
