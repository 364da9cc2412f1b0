"""Traversal weights for standardized citation networks.

Five weighting methods plus helpers:

* spc  - counts of source-to-sink paths through each arc/vertex.
* splc - the same counting with the source linked to every vertex, so every
         vertex starts its own search paths.
* spnp - all-paths counting: the source and sink are linked to every vertex,
         which makes the arc weight the product of the path counts ending at
         the tail and starting at the head.  aged_path_counts damps each
         path by alpha per arc.
* nppc - products of ancestor and descendant set sizes (reachability
         closures), no standardization involved; sum adds the two sizes.
         Both count exactly, in O(n*m/64) word operations.

The three flow methods and aging are one count: a forward and a backward
stage sweep over the original arcs (acyclic._sweep), seeded at the vertices
linked to s and t, from which every standardized arc, vertex and total value
follows.  Each runs in one of three numeric modes: "float" (fast, raises on
overflow to infinity), "exact" (arbitrary-precision integers, Fractions when
aged), "log" (natural logs of counts; the sane choice beyond roughly a
million arcs).  The closure bitsets run through the same sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .acyclic import StandardizedNetwork, _dag_levels, _stage_groups, _sweep
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


def _flow_counts(std: StandardizedNetwork, seed_fwd: bool, seed_bwd: bool,
                 alpha: float, mode: Mode):
    """Two stage sweeps over the input network's arcs; returns (arc values,
    vertex values, total flow), all aligned with the standardized network:
    two arrays of the mode's ring dtype and a Python number.

    fwd[v] counts the paths ending at v, bwd[v] those starting at v, each
    arc on them damped by `alpha`.  A path starts at a vertex linked to s:
    the minimal ones, or every vertex with `seed_fwd`; it ends at one linked
    to t: the maximal ones, or every vertex with `seed_bwd`.  fwd[t] and
    bwd[s] sum those links in the order of the s and t arcs of the linked
    standard form (the standard ones first).
    """
    if mode not in MODES:
        raise ValueError(f"unknown numeric mode: {mode!r}")
    net, base, s, t = std.net, std.base, std.s, std.t
    dtype, zero, one, plus, times = _RINGS[mode]
    factor = None if alpha == 1 else {
        "float": alpha, "exact": Fraction(alpha), "log": math.log(alpha)}[mode]
    minimal, maximal, every = np.zeros((3, t + 1), dtype=bool)
    minimal[base.heads[base.tails == s]] = True
    maximal[base.tails[base.heads == t]] = True
    every[1:s] = True

    def sweep(far, seeded, backward):
        c = np.where(seeded, one, zero).astype(dtype)
        sched = net._memo(_stage_groups, backward)
        return _sweep(c, sched, far, plus, times, factor, descending=backward)

    def linked(c, seeded, standard):
        order = np.r_[np.flatnonzero(standard),
                      np.flatnonzero(seeded & ~standard)]
        return plus.reduce(c[order], initial=zero)

    to_s = every if seed_fwd else minimal
    to_t = every if seed_bwd else maximal
    with np.errstate(over="ignore", invalid="ignore"):
        fwd = sweep(net.tails, to_s, backward=False)
        bwd = sweep(net.heads, to_t, backward=True)
        fwd[s], fwd[t] = one, linked(fwd, to_t, maximal)
        bwd[s], bwd[t] = linked(bwd, to_s, minimal), one
        arc = times(fwd[base.tails], bwd[base.heads])
        vertex = times(fwd[1:], bwd[1:])
    arc[std.feedback_arc] = fwd[t]
    if mode == "float" and not (np.all(np.isfinite(arc))
                                and np.all(np.isfinite(vertex))):
        raise WeightOverflowError(
            "path counts exceed the double range; rerun in mode='exact' "
            "or mode='log'")
    return arc, vertex, fwd[t:t + 1].tolist()[0]  # a Python number


def _wrap(method, arc, vertex, total, mode, alpha=None) -> WeightResult:
    return WeightResult(method, ArcWeights(arc, mode), vertex, total, alpha)


# --- flow methods ---

def spc(std: StandardizedNetwork, mode: Mode = "float") -> WeightResult:
    """Source-to-sink path counts through every arc and vertex.

    The feedback arc carries the total flow: the number of distinct paths
    from s to t, which every minimal arc cut's weights sum to.
    """
    return _wrap("SPC", *_flow_counts(std, False, False, 1.0, mode), mode)


def splc(std: StandardizedNetwork, mode: Mode = "float") -> WeightResult:
    """Path counts where every vertex also starts its own searches.

    As if the source were linked to every vertex, not only the minimal
    ones; weights are reported for the standardized arcs.
    """
    return _wrap("SPLC", *_flow_counts(std, True, False, 1.0, mode), mode)


def spnp(std: StandardizedNetwork, mode: Mode = "float") -> WeightResult:
    """All-paths counting: source and sink linked to every vertex.

    The weight of an original arc (u, v) equals (paths ending at u) times
    (paths starting at v), trivial paths included; the total flow is the
    number of paths in the whole original network.
    """
    return _wrap("SPNP", *_flow_counts(std, True, True, 1.0, mode), mode)


# --- closure methods ---

def _closures(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """(ancestor, descendant) closure sizes indexed 0..n, the vertex itself
    included; rejects cycles.  Word-parallel over blocks of up to 64*_WORDS
    sources, one bit each, in (n+1)*_WORDS words: stage by stage, every
    vertex ORs in the bitsets of its far endpoints.  Ancestors sweep the
    stages of the heads from low to high, descendants those of the tails
    from high to low.
    """
    n = net.n
    sizes = []
    for by_tail, far in ((False, net.tails), (True, net.heads)):
        sched = net._memo(_stage_groups, by_tail)
        counts = np.zeros(n + 1, dtype=np.int64)
        for first in range(1, n + 1, 64 * _WORDS):
            src = np.arange(first, min(first + 64 * _WORDS, n + 1))
            bits = np.zeros((n + 1, -(-len(src) // 64)), dtype=np.uint64)
            bit = src - first
            bits[src, bit >> 6] = np.uint64(1) << (bit & 63).astype(np.uint64)
            # slices of at most n+1 arcs keep each gather within the bitsets
            _sweep(bits, sched, far, np.bitwise_or, descending=by_tail,
                   cap=n + 1)
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


def sum_weights(net: Network, normalized: bool = False) -> WeightResult:
    """Ancestor-count plus descendant-count per arc (a cheap additive variant).

    Raw values are integers bounded by n; with `normalized` they are divided
    by n so everything lands in (0, 1].  No vertex weights are defined.
    """
    anc, desc = _closures(net)
    raw = anc[net.tails] + desc[net.heads]
    arc = (ArcWeights(raw / net.n, "float") if normalized
           else ArcWeights(raw, "exact"))
    return WeightResult("SUM", arc, None, None, normalized=normalized)


# --- path polynomials and aged counts ---

@dataclass(frozen=True)
class PathPolynomials:
    """Path-length tallies per vertex of a standardized network.

    p_minus[v-1][k] counts the paths of exactly k arcs that end at v and stay
    inside the original network; p_plus counts paths starting at v.  The
    source (for p_minus) and sink (for p_plus) hold the zero polynomial ().
    Coefficients are exact integers.
    """

    p_minus: tuple[tuple[int, ...], ...]
    p_plus: tuple[tuple[int, ...], ...]

    def l_minus(self) -> tuple[int, ...]:
        """Total number of paths ending at each vertex (coefficient sums)."""
        return tuple(sum(p) for p in self.p_minus)

    def l_plus(self) -> tuple[int, ...]:
        return tuple(sum(p) for p in self.p_plus)


def path_polynomials(std: StandardizedNetwork) -> PathPolynomials:
    base, s, t = std.base, std.s, std.t
    # over the input's arcs; the (u, t) links close t, the (s, u) links s
    pm = _polys(std.net, base.tails[base.heads == t], backward=False)
    pp = _polys(std.net, base.heads[base.tails == s], backward=True)
    return PathPolynomials(pm[:-1] + ((),) + pm[-1:], pp + ((),))


def _polys(net, linked, backward):
    """Tallies of the vertices 1..n in topological order (reversed when
    `backward`), then of the closing end n+1 over the `linked` vertices:
    [1] (no arc), then the summed tallies of the in-arcs' tails (heads)."""
    order = _dag_levels(net)[1].tolist()
    ends = net.heads if backward else net.tails
    arcs_of = net.out_arcs if backward else net.in_arcs
    polys: list[list[int]] = [[] for _ in range(net.n + 2)]
    for v in [*(reversed(order) if backward else order), net.n + 1]:
        acc: list[int] = []
        for u in (linked if v > net.n else ends[arcs_of(v)]).tolist():
            p = polys[u]
            if len(acc) < len(p):
                acc.extend([0] * (len(p) - len(acc)))
            for k, c in enumerate(p):
                acc[k] += c
        polys[v] = [1] + acc
    return tuple(tuple(p) for p in polys[1:])


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
    return _wrap("SPNP", *_flow_counts(std, True, True, alpha, mode), mode,
                 alpha=alpha)


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
    vals = result.arc.tolist()
    if any(v < 0 for v in vals):
        raise ValueError("negative weights have no logarithm")
    pos = [v for v in vals if v > 0]
    floor = _ln(min(pos)) - 1.0 if pos else -1.0
    floored = tuple(i for i, v in enumerate(vals) if v == 0)

    def logs(values):
        return np.array([_ln(v) if v > 0 else floor for v in values])

    vertex = None if result.vertex is None else logs(result.vertex)
    return replace(result, arc=ArcWeights(logs(vals), "log"), vertex=vertex,
                   floored=floored)


def _ln(v) -> float:
    """math.log(v), also of a Fraction beyond the double range."""
    try:
        return math.log(v)
    except (OverflowError, ValueError):
        return math.log(v.numerator) - math.log(v.denominator)
