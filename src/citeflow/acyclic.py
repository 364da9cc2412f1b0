"""Acyclicity analysis and repair, standard form, depths.

Citation data is acyclic in principle but never in practice: loops and small
strongly connected components show up through bad timestamps and mutual
citations.  This module detects them, offers the two repairs (shrinking each
component to one vertex, or splitting each member into a preprint/published
pair), and builds the standard form with a single source s, a single sink t
and the closing feedback arc (t, s) that the weight routines expect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .network import Network, _merged


class CycleError(Exception):
    """Raised when an operation needs an acyclic network; carries a witness
    vertex that lies on some cycle: the smallest vertex of a cyclic strong
    component."""

    def __init__(self, vertex: int):
        super().__init__(f"network is not acyclic: vertex {vertex} lies on a cycle")
        self.vertex = vertex


# --- strongly connected components ---

@dataclass(frozen=True)
class Partition:
    """Vertex partition into classes 1..class_count (gap-free)."""

    class_of: tuple[int, ...]  # index v-1 -> class id
    class_count: int

    def sizes(self) -> list[int]:
        counts = np.bincount(self.class_of, minlength=self.class_count + 1)
        return counts[1:].tolist()


def strong_components(net: Network) -> Partition:
    """Tarjan's algorithm, iterative over the out-CSR: each vertex keeps a
    cursor into its run of successors.  Classes are numbered 1..k in order
    of their smallest member, so the labelling is deterministic.  Built once
    per network and kept on it (`Network._memo`), where the repairs read it."""
    return net._memo(_tarjan)


def _tarjan(net: Network) -> Partition:
    n = net.n
    ptr, idx = net._adjacency()
    succ, bound = memoryview(net.heads[idx]), memoryview(ptr)
    cursor = memoryview(ptr.copy())
    index = [0] * (n + 1)  # 0 = unvisited, n + 1 = in a finished class
    low = [0] * (n + 1)
    comp = [0] * (n + 1)
    stack: list[int] = []
    counter = ncomp = 0
    for root in range(1, n + 1):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [root]
        while work:
            v = work[-1]
            i, stop, lv = cursor[v], bound[v + 1], low[v]
            w = 0
            while i < stop:  # scan to the first unvisited successor
                w = succ[i]
                i += 1
                if not index[w]:
                    break
                if index[w] < lv:
                    lv = index[w]
            cursor[v], low[v] = i, lv
            if w and not index[w]:
                counter += 1
                index[w] = low[w] = counter
                stack.append(w)
                work.append(w)
                continue
            work.pop()
            if work and lv < low[work[-1]]:
                low[work[-1]] = lv
            if lv == index[v]:
                ncomp += 1
                while True:
                    w = stack.pop()
                    index[w], comp[w] = n + 1, ncomp
                    if w == v:
                        break

    # renumber classes by smallest member
    comp = np.array(comp)
    first = np.sort(np.unique(comp[1:], return_index=True)[1]) + 1
    label = np.zeros(ncomp + 1, dtype=np.int64)
    label[comp[first]] = np.arange(1, ncomp + 1)
    return Partition(tuple(memoryview(label[comp[1:]])), ncomp)


# --- repairs ---

def remove_loops(net: Network) -> Network:
    """Drop every arc (v, v); a network without one comes back as it is."""
    keep = net.tails != net.heads
    return net if keep.all() else Network.from_arrays(
        net.n, net.tails[keep], net.heads[keep], net.weights[keep], net.labels)


def shrink_components(net: Network) -> Network:
    """Collapse each strongly connected class to a single vertex.

    Arc (u, v) maps to (class(u), class(v)); intra-class arcs (including
    loops) disappear, parallel images are merged with summed weights.  The
    shrunk vertex takes the label of the class's smallest member.  The
    classes are those of `strong_components`, built once per network.
    """
    part = net._memo(_tarjan)
    cls = np.array((0,) + part.class_of, dtype=np.int64)
    smallest = np.unique(cls[1:], return_index=True)[1]
    labels = [net.labels[i] for i in smallest.tolist()]
    tails, heads = cls[net.tails], cls[net.heads]
    keep = tails != heads
    return _merged(part.class_count, tails[keep], heads[keep],
                   net.weights[keep], labels)


def preprint_transform(net: Network) -> Network:
    """Break cycles by giving every vertex of a cyclic component a preprint.

    Each member u of a cyclic strongly connected component (two or more
    members, or a loop) gets a twin u' (appended after the original ids, in
    ascending order of u) with an arc (u', u): the published version cites
    its own preprint.  Every arc (u, v) inside such a component is
    redirected to start at the preprint, (u', v).  Arcs between components
    are untouched.  The result is acyclic.
    """
    n, tails, heads = net.n, net.tails, net.heads
    cls = np.array((0,) + net._memo(_tarjan).class_of, dtype=np.int64)
    inner = cls[tails] == cls[heads]  # the tails: every vertex on a cycle
    members = np.unique(tails[inner])
    twin = np.zeros(n + 1, dtype=np.int64)
    twin[members] = np.arange(n + 1, n + 1 + len(members))
    labels = list(net.labels) + [net.labels[v - 1] + "'"
                                 for v in members.tolist()]
    return Network.from_arrays(
        n + len(members), np.r_[np.where(inner, twin[tails], tails),
                                twin[members]],
        np.r_[heads, members],
        np.r_[net.weights, np.ones(len(members))], labels)


# --- topological order ---

@dataclass(frozen=True)
class TopologicalOrder:
    order: tuple[int, ...]     # vertices in topological sequence
    position: tuple[int, ...]  # index v-1 -> 1-based rank in `order`


def topological_order(net: Network) -> TopologicalOrder:
    """Kahn's algorithm frontier by frontier (the cached `_dag_levels`
    order), each frontier ascending by id: not always the smallest order by
    id, as Network(3, [(1, 2)]) gives (1, 3, 2).

    Raises CycleError (with a witness vertex) if the network has a cycle;
    a loop counts as a cycle.
    """
    order = _dag_levels(net)[1]
    position = np.argsort(order) + 1  # rank of each vertex 1..n
    return TopologicalOrder(tuple(order.tolist()), tuple(position.tolist()))


def _levels(net: Network):
    """Longest-path depth of every vertex from the in-degree-0 frontier,
    and the one acyclicity test: the network is acyclic iff len(order) == n.

    Frontier-batched Kahn sweep: level(v) = length of the longest arc path
    from any source to v.  Returns (level array indexed 0..n, -1 at index 0
    and at the vertices Kahn's algorithm leaves over, which lie on a cycle
    or after one; the vertices it emptied, frontier by frontier, as one flat
    array), computed once and kept on `net`; the arrays are read-only.
    """
    return net._memo(_level_sweep)


def _dag_levels(net: Network):
    """(level, order) of `_levels`; on a cycle, raises CycleError naming the
    smallest vertex of a cyclic strong component."""
    level, order = _levels(net)
    if len(order) < net.n:  # an arc inside a class lies on a cycle
        cls = np.array((0,) + strong_components(net).class_of)
        raise CycleError(int(net.tails[cls[net.tails] == cls[net.heads]].min()))
    return level, order


def _level_sweep(net: Network):
    n, heads = net.n, net.heads
    ptr, arcs = net._adjacency()
    indeg = np.bincount(heads, minlength=n + 1)
    level = np.full(n + 1, -1, dtype=np.int64)
    frontier = np.flatnonzero(indeg[1:] == 0) + 1
    parts: list[np.ndarray] = []
    lev = 0
    while frontier.size:
        level[frontier] = lev
        parts.append(frontier)
        # the frontier's CSR runs: run start - run place + arc place
        lo, count = ptr[frontier], ptr[frontier + 1] - ptr[frontier]
        at = np.repeat(lo - np.cumsum(count) + count, count)
        cand, hits = np.unique(heads[arcs[at + np.arange(len(at))]],
                               return_counts=True)
        indeg[cand] -= hits
        frontier = cand[indeg[cand] == 0]
        lev += 1
    order = (np.concatenate(parts) if parts else np.empty(0, dtype=np.int64))
    level.flags.writeable = order.flags.writeable = False
    return level, order


def _stage_groups(net: Network, by_tail: bool):
    """Stage schedule of the arcs by the forward level of their tails, or
    heads: one np.lexsort by (stage, near endpoint, arc).  `_sweep` builds
    it once per direction as net._memo(_stage_groups, by_tail), for every
    `_from_end` sweep and the closures alike.

    Read-only (idx, stage, runs, ends): the arcs in that order (int32 when
    they fit: 4 bytes per arc), the bounds in idx of each stage that has
    arcs (lowest first), the offsets in idx where a near endpoint's arcs
    start (stage starts among them) and that endpoint for each run.
    """
    level = _dag_levels(net)[0]
    ends = net.tails if by_tail else net.heads
    dt = np.uint16 if net.n < 2**16 else np.int64  # uint16 sorts by radix
    idx = np.lexsort((ends.astype(dt), level[ends].astype(dt))).astype(
        np.int32 if net.m < 2**31 else np.int64)
    ends = ends[idx]
    stage = np.r_[np.flatnonzero(np.diff(level[ends], prepend=-1)), net.m]
    runs = np.flatnonzero(np.diff(ends, prepend=-1))
    sched = idx, stage, runs, ends[runs]
    for arr in sched:
        arr.flags.writeable = False
    return sched


def _sweep(c: np.ndarray, net: Network, backward: bool, plus, times=None,
           factor=None, cap: int | None = None,
           after: int | None = None) -> np.ndarray:
    """The one DAG recurrence, run in place over the cached `_stage_groups`
    schedule of `net`: stage by stage, every head v takes c[v] = c[v] ⊕ (⊕
    of c[tail(a)] ⊗ factor over its in-arcs a); with `backward` every tail,
    highest stage first, over its out-arcs' heads.  ⊕ is the ufunc `plus`
    and ⊗ the ufunc `times`; `factor` is None (no ⊗), one value, or an array
    indexed by arc.  Rows of a 2-D `c` combine elementwise.  With `cap`,
    stages are cut into slices of at most cap arcs.  With `after`, stages at
    or before that level in sweep order, which seeds from it on cannot
    reach, are skipped.
    """
    idx, stage, runs, ends = net._memo(_stage_groups, backward)
    far = net.heads if backward else net.tails
    lo, hi = stage[:-1], stage[1:]
    if after is not None:  # the stages ascend by level, so the cut is a slice
        level = _levels(net)[0][ends[np.searchsorted(runs, lo)]]
        cut = np.searchsorted(level, after, "left" if backward else "right")
        lo, hi = (lo[:cut], hi[:cut]) if backward else (lo[cut:], hi[cut:])
    if cap:  # a slice also starts at every cap-th arc of a stage
        lo = np.concatenate([lo[:0], *map(np.arange, lo.tolist(), hi.tolist(),
                                          [cap] * len(lo))])
        hi = np.minimum(stage[np.searchsorted(stage, lo, "right")], lo + cap)
    bounds = np.stack([lo, hi, np.searchsorted(runs, lo, "right") - 1,
                       np.searchsorted(runs, hi)], axis=1).tolist()
    for a, b, j, k in (reversed(bounds) if backward else bounds):
        arcs, e, seg = idx[a:b], ends[j:k], runs[j:k] - a
        seg[0] = 0  # a slice can start inside run j
        vals = c[far[arcs]]
        if factor is not None:
            vals = times(vals, factor[arcs] if isinstance(factor, np.ndarray)
                         else factor)
        c[e] = plus(c[e], plus.reduceat(vals, seg))
    return c


def _from_end(std: StandardizedNetwork, backward: bool, ring, factor, near,
              far) -> np.ndarray:
    """The one seeded sweep of the standard form in the semiring `ring` =
    (dtype, zero, one, ⊕, ⊗), indexed 0..t: c[v] is the ⊕ over the paths
    s -> v (with `backward`, v -> t) of the ⊗ of their arc weights.  The
    links at the starting end, `near` = (ends, weights), seed their ends
    (one ⊗ w = w), `_sweep` weighs each input arc by `factor`, the starting
    end takes one and the other end ⊕-closes over the `far` links.
    """
    dtype, zero, one, plus, times = ring
    (seeds, w_in), (links, w_out) = near, far
    c = np.full(std.t + 1, zero, dtype=dtype)
    c[seeds] = w_in
    _sweep(c, std.net, backward, plus, times, factor)
    start, end = (std.t, std.s) if backward else (std.s, std.t)
    c[start], c[end] = one, plus.reduce(times(c[links], w_out), initial=zero)
    return c


def is_acyclic(net: Network) -> bool:
    return len(_levels(net)[1]) == net.n


# --- standard form ---

@dataclass(frozen=True)
class StandardizedNetwork:
    """A network extended with source s, sink t and the feedback arc (t, s).

    `net` is the input network.  The extended arcs are the input's m arcs
    first (order kept), then (s, u) for each of the k `sources`, then (u, t)
    for each of the `sinks`, then the feedback arc, so the links are arcs
    m:m+k and m+k:feedback_arc.  `sources` and `sinks`, the minimal and
    maximal vertices, are ascending and read-only; s = n+1, t = n+2.  The
    sweeps run on `net` and treat s, t and (t, s) as seeds and closing
    reductions, so `base`, the extended network, is built only when read.
    """

    net: Network
    s: int
    t: int
    feedback_arc: int
    sources: np.ndarray = field(compare=False)  # follow from `net`
    sinks: np.ndarray = field(compare=False)

    @cached_property
    def base(self) -> Network:
        net, k, s, t = self.net, len(self.sources), self.s, self.t
        return Network.from_arrays(
            t, np.r_[net.tails, np.full(k, s), self.sinks, t],
            np.r_[net.heads, self.sources, np.full(len(self.sinks), t), s],
            np.r_[net.weights, np.ones(self.feedback_arc + 1 - net.m)],
            list(net.labels) + ["s", "t"])


def standardize(net: Network) -> StandardizedNetwork:
    """Attach s before all minimal vertices, t after all maximal ones, and
    close the flow with (t, s).  Requires an acyclic, loop-free input; an
    isolated vertex counts as both minimal and maximal.
    """
    _dag_levels(net)
    n = net.n
    mins = np.flatnonzero(np.bincount(net.heads, minlength=n + 1)[1:] == 0) + 1
    maxs = np.flatnonzero(np.bincount(net.tails, minlength=n + 1)[1:] == 0) + 1
    mins.flags.writeable = maxs.flags.writeable = False
    return StandardizedNetwork(net, n + 1, n + 2,
                               net.m + len(mins) + len(maxs), mins, maxs)


# --- depths ---

@dataclass(frozen=True)
class DepthMap:
    """Longest-path depths on a standardized network, feedback arc ignored.

    h[v-1]: longest arc count over paths s -> v (h[s-1] == 0).
    h_minus[v-1]: longest arc count over paths v -> t.
    H: h of t, the standardized network's full depth.
    """

    h: tuple[int, ...]
    h_minus: tuple[int, ...]
    H: int


def depths(std: StandardizedNetwork) -> DepthMap:
    """h: the input's levels, one arc further from s; h_minus: the backward
    `_from_end` sweep in the (max, +) semiring over unit arcs.  s and t lie
    H = (input depth) + 2 apart, or 0 apart when the input has no vertex."""
    fwd = _dag_levels(std.net)[0][1:] + 1
    bwd = _from_end(std, True, (np.int64, 0, 0, np.maximum, np.add), 1,
                    (std.sinks, 1), (std.sources, 1))
    H = int(bwd[std.s])
    return DepthMap(tuple(fwd.tolist()) + (0, H), tuple(bwd[1:].tolist()), H)
