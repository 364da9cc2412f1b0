"""Brute-force reference implementations for freezing expected values.

Everything works on plain (n, arcs) data with 1-based vertex ids and
recomputes results by exhaustive enumeration, independently of the library
under test.  Exponential, so only for small networks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


def standard_form(n, arcs):
    """Rebuild the documented source/sink extension by hand.

    Returns (s, t, full_arcs): original arcs in input order, then
    source->minimal ascending, maximal->sink ascending, and the closing
    (sink, source) arc last.
    """
    s, t = n + 1, n + 2
    has_in = {v for _, v in arcs}
    has_out = {u for u, _ in arcs}
    full = list(arcs)
    full += [(s, v) for v in range(1, n + 1) if v not in has_in]
    full += [(v, t) for v in range(1, n + 1) if v not in has_out]
    full.append((t, s))
    return s, t, full


def _out_map(arc_list):
    out = {}
    for i, (u, v) in enumerate(arc_list):
        out.setdefault(u, []).append((i, v))
    return out


def enumerate_st_paths(n, arcs):
    """Every source-to-sink path of the standard form, as a tuple of arc
    indices into the standard_form arc list (closing arc never used)."""
    s, t, full = standard_form(n, arcs)
    out = _out_map(full[:-1])
    paths = []
    acc = []

    def walk(v):
        if v == t:
            paths.append(tuple(acc))
            return
        for i, h in out.get(v, ()):
            acc.append(i)
            walk(h)
            acc.pop()

    walk(s)
    return s, t, full, paths


def spc_oracle(n, arcs):
    """(arc_counts, vertex_counts, total): path tallies by enumeration.

    arc_counts aligns with standard_form's arc list and puts the total on
    the closing arc; vertex_counts covers 1..n+2.
    """
    s, t, full, paths = enumerate_st_paths(n, arcs)
    arc_counts = [0] * len(full)
    vertex_counts = [0] * (n + 2)
    for p in paths:
        for i in p:
            arc_counts[i] += 1
        touched = {s}
        for i in p:
            touched.add(full[i][1])
        for v in touched:
            vertex_counts[v - 1] += 1
    arc_counts[-1] = len(paths)
    return arc_counts, vertex_counts, len(paths)


def splc_oracle(n, arcs):
    """Per original arc: number of search paths from any origin vertex to
    any maximal vertex passing through it."""
    out = _out_map(arcs)
    maximal = {v for v in range(1, n + 1) if v not in out}
    counts = [0] * len(arcs)
    acc = []

    def walk(v):
        if v in maximal:
            for i in acc:
                counts[i] += 1
            return
        for i, h in out[v]:
            acc.append(i)
            walk(h)
            acc.pop()

    for origin in range(1, n + 1):
        walk(origin)
    return counts


def paths_ending_at(n, arcs):
    """Explicit list of directed paths (as vertex tuples, length >= 0)
    ending at each vertex; index v-1."""
    preds = {v: [] for v in range(1, n + 1)}
    for u, v in arcs:
        preds[v].append(u)
    memo = {}

    def ending(v):
        if v not in memo:
            acc = [(v,)]
            for u in preds[v]:
                acc.extend(p + (v,) for p in ending(u))
            memo[v] = acc
        return memo[v]

    return [ending(v) for v in range(1, n + 1)]


def paths_starting_at(n, arcs):
    reversed_arcs = [(v, u) for u, v in arcs]
    flipped = paths_ending_at(n, reversed_arcs)
    return [[tuple(reversed(p)) for p in plist] for plist in flipped]


@dataclass(frozen=True)
class PathPolynomials:
    """Path-length tallies per vertex of the standard form (index v-1).

    p_minus[v-1][k] counts the paths of exactly k arcs that end at v and
    start inside the input network; p_plus counts paths starting at v that
    end inside it.  The source (for p_minus) and the sink (for p_plus) hold
    the zero polynomial ().  Evaluated at alpha, p_minus(alpha) *
    p_plus(alpha) is a vertex's exact aged all-paths weight.
    """

    p_minus: tuple[tuple[int, ...], ...]
    p_plus: tuple[tuple[int, ...], ...]

    def l_minus(self) -> tuple[int, ...]:
        """Total number of paths ending at each vertex (coefficient sums)."""
        return tuple(sum(p) for p in self.p_minus)

    def l_plus(self) -> tuple[int, ...]:
        return tuple(sum(p) for p in self.p_plus)


def path_polynomials(n, arcs):
    """PathPolynomials by enumeration: the paths ending at t come in
    through the (u, t) links, those starting at s leave through (s, u)."""
    s, t, full = standard_form(n, arcs)
    p_minus = _tallies(paths_ending_at(t, [a for a in full[:-1] if a[0] != s]))
    p_plus = _tallies(paths_starting_at(t, [a for a in full[:-1] if a[1] != t]))
    p_minus[s - 1] = p_plus[t - 1] = ()
    return PathPolynomials(tuple(p_minus), tuple(p_plus))


def _tallies(paths_by_vertex):
    """Per vertex, how many of its paths have 0, 1, 2, ... arcs."""
    out = []
    for paths in paths_by_vertex:
        counts = [0] * max(map(len, paths))
        for p in paths:
            counts[len(p) - 1] += 1
        out.append(tuple(counts))
    return out


def spnp_oracle(n, arcs):
    """Per original arc: L-(tail) * L+(head) with both factors taken as
    lengths of explicitly enumerated path lists."""
    l_minus = [len(p) for p in paths_ending_at(n, arcs)]
    l_plus = [len(p) for p in paths_starting_at(n, arcs)]
    return [l_minus[u - 1] * l_plus[v - 1] for u, v in arcs], l_minus, l_plus


def closure_counts(n, arcs):
    """(ancestors incl. self, descendants incl. self) per vertex, by the
    Warshall transitive closure."""
    reach = [[False] * (n + 1) for _ in range(n + 1)]
    for v in range(1, n + 1):
        reach[v][v] = True
    for u, v in arcs:
        reach[u][v] = True
    for k in range(1, n + 1):
        rk = reach[k]
        for i in range(1, n + 1):
            if reach[i][k]:
                ri = reach[i]
                for j in range(1, n + 1):
                    if rk[j]:
                        ri[j] = True
    desc = [sum(reach[v][1:]) for v in range(1, n + 1)]
    anc = [sum(reach[u][v] for u in range(1, n + 1)) for v in range(1, n + 1)]
    return anc, desc


def longest_from_source(n, arcs):
    """Longest-path distance from the added source to every vertex of the
    standard form, by walking every path."""
    s, t, full = standard_form(n, arcs)
    out = _out_map(full[:-1])
    best = {v: 0 for v in range(1, n + 3)}

    def walk(v, depth):
        if depth > best[v]:
            best[v] = depth
        for _, h in out.get(v, ()):
            walk(h, depth + 1)

    walk(s, 0)
    return [best[v] for v in range(1, n + 3)]


def cpm_oracle(n, arcs, full_weights):
    """Optimal source-sink path value plus the arc and vertex union over
    all optimal paths.  full_weights aligns with standard_form's arcs."""
    s, t, full, paths = enumerate_st_paths(n, arcs)
    totals = [sum(full_weights[i] for i in p) for p in paths]
    best = max(totals)
    arc_union = set()
    vert_union = set()
    for p, tot in zip(paths, totals):
        if tot == best:
            arc_union.update(p)
            vert_union.add(s)
            vert_union.update(full[i][1] for i in p)
    return best, arc_union, vert_union - {s, t}


def brute_islands(n, arcs, weights, k, kmax):
    """All maximal vertex sets S, k <= |S| <= kmax, that some threshold
    isolates: S hangs together through internal arcs heavier than every
    arc between S and the rest.  Returns a set of frozensets."""
    plain = [(u, v) for u, v in arcs]

    def valid(members):
        size = len(members)
        if not k <= size <= kmax:
            return False
        external = [weights[i] for i, (u, v) in enumerate(plain)
                    if (u in members) != (v in members)]
        bar = max(external) if external else None
        adj = {v: set() for v in members}
        for i, (u, v) in enumerate(plain):
            if u in members and v in members and u != v:
                if bar is None or weights[i] > bar:
                    adj[u].add(v)
                    adj[v].add(u)
        seen = set()
        stack = [min(members)]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v] - seen)
        return len(seen) == size

    from itertools import combinations
    found = []
    for size in range(k, kmax + 1):
        for combo in combinations(range(1, n + 1), size):
            members = frozenset(combo)
            if valid(members):
                found.append(members)
    return {S for S in found if not any(S < T for T in found)}


def merge_parallel(arcs):
    """Parallel (tail, head, weight) arcs merged by a dict: each pair at its
    first occurrence, its weight summed with a running += in input order."""
    seen = {}
    out = []
    for u, v, w in arcs:
        at = seen.get((u, v))
        if at is None:
            seen[(u, v)] = len(out)
            out.append([u, v, w])
        else:
            out[at][2] += w
    return [tuple(arc) for arc in out]


def shrink_reference(n, arcs, class_of, labels):
    """(class count, merged arcs, labels) of the network with every class
    of `class_of` (index v-1, classes 1..k) collapsed to one vertex named
    after its smallest member; arcs inside a class vanish."""
    k = max(class_of, default=0)
    names = [""] * k
    for v in range(n, 0, -1):  # downward so the smallest member wins
        names[class_of[v - 1] - 1] = labels[v - 1]
    mapped = [(class_of[u - 1], class_of[v - 1], w) for u, v, w in arcs
              if class_of[u - 1] != class_of[v - 1]]
    return k, merge_parallel(mapped), names


def islands_reference(n, tails, heads, vals, min_size, max_size,
                      tied=operator.eq):
    """[(vertices, internal_min, external_max)] of the island hierarchy,
    built by a dict union-find over every non-loop arc in stable
    decreasing weight order.  A run of weights in which each one is `tied`
    with the one before (by default: equal) merges as one level, the run's
    first weight."""
    m = len(tails)
    by_weight = sorted((i for i in range(m) if tails[i] != heads[i]),
                       key=lambda i: vals[i], reverse=True)

    parent = {}
    node_of = {}   # union-find root vertex -> dendrogram node
    # dendrogram node: [level, size, child_a, child_b, vertex_or_None]
    nodes = []
    node_parent_level = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def leaf(v):
        if v not in parent:
            parent[v] = v
            node_of[v] = len(nodes)
            nodes.append([None, 1, None, None, v])
            node_parent_level.append(None)

    pos = 0
    while pos < len(by_weight):
        level = vals[by_weight[pos]]
        end = pos + 1
        while end < len(by_weight) and tied(vals[by_weight[end - 1]],
                                            vals[by_weight[end]]):
            end += 1
        for i in by_weight[pos:end]:
            t, h = int(tails[i]), int(heads[i])
            leaf(t)
            leaf(h)
            rt, rh = find(t), find(h)
            if rt == rh:
                continue
            a, b = node_of[rt], node_of[rh]
            node_parent_level[a] = level
            node_parent_level[b] = level
            nodes.append([level, nodes[a][1] + nodes[b][1], a, b, None])
            node_parent_level.append(None)
            parent[rh] = rt
            node_of[rt] = len(nodes) - 1
        pos = end

    def collect(ni):
        out = []
        stack = [ni]
        while stack:
            i = stack.pop()
            _, _, a, b, v = nodes[i]
            if v is not None:
                out.append(v)
            else:
                stack.extend((a, b))
        return out

    found = []
    roots = [node_of[v] for v in node_of if find(v) == v]
    stack = list(roots)
    while stack:
        ni = stack.pop()
        level, size, a, b, v = nodes[ni]
        if v is not None or size < min_size:
            continue  # leaves and undersized clusters carry nothing below
        up = node_parent_level[ni]
        real = up is None or up < level
        if real and size <= max_size:
            found.append((frozenset(collect(ni)), level, up))
        else:
            stack.append(a)
            stack.append(b)

    found.sort(key=lambda isl: min(isl[0]))
    found.sort(key=lambda isl: isl[1], reverse=True)
    return found


def main_path_reference(std, w, single=False):
    """(arcs, vertices) of the main path by the per-vertex loop: every
    vertex reached, in sorted frontier order, adds its out-arcs tied with
    its heaviest one under the library's tie rule (the smallest (head, arc)
    of them with `single`)."""
    from citeflow.extract import _aligned, _tied

    vals, mode = _aligned(std, w)
    vals = vals.tolist()
    base, fb = std.base, std.feedback_arc
    visited = {std.s}
    chosen: set[int] = set()
    frontier = [std.s]
    while frontier:
        nxt: list[int] = []
        for v in sorted(frontier):
            out = [ai for ai in base.out_arcs(v).tolist() if ai != fb]
            if not out:
                continue
            best = max(vals[ai] for ai in out)
            take = [ai for ai in out if _tied(vals[ai], best, mode)]
            if single:
                take = [min(take, key=lambda ai: (int(base.heads[ai]), ai))]
            for ai in take:
                chosen.add(ai)
                head = int(base.heads[ai])
                if head not in visited:
                    visited.add(head)
                    nxt.append(head)
        frontier = nxt
    keep = tuple(sorted(ai for ai in chosen if ai < std.net.m))
    verts = frozenset(visited - {std.s, std.t})
    return keep, verts


def hits_reference(net, tolerance=1e-12, max_iter=1000):
    """(hub, authority, rounds, residual, converged) of the HITS power
    iteration with one np.add.at scatter per half-step over the distinct
    (tail, head) rows of np.unique(axis=0)."""
    import numpy as np

    pairs = np.unique(np.stack([net.tails, net.heads], axis=1), axis=0)
    cited, citing = pairs[:, 0] - 1, pairs[:, 1] - 1
    hub = np.ones(net.n)
    hub /= np.linalg.norm(hub)
    auth = hub.copy()
    residual = np.inf
    for rounds in range(1, max_iter + 1):
        new_auth = np.zeros(net.n)
        np.add.at(new_auth, cited, hub[citing])
        norm = np.linalg.norm(new_auth)
        if norm > 0.0:
            new_auth /= norm
        new_hub = np.zeros(net.n)
        np.add.at(new_hub, citing, auth[cited])
        norm = np.linalg.norm(new_hub)
        if norm > 0.0:
            new_hub /= norm
        residual = max(float(np.linalg.norm(new_auth - auth)),
                       float(np.linalg.norm(new_hub - hub)))
        auth, hub = new_auth, new_hub
        if residual < tolerance:
            return hub, auth, rounds, residual, True
    return hub, auth, max_iter, residual, False


def render_rows(form, *columns):
    """The lines `form.format(*row)` of the rows of `columns` (Python
    values), one text: a str as it is, a number as format_number writes it,
    one value at a time."""
    from citeflow import format_number
    return "".join(form.format(*(value if isinstance(value, str)
                                 else format_number(value) for value in row))
                   + "\n" for row in zip(*columns))
