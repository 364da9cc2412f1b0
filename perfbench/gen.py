"""Seeded inputs for the benchmark, and the shape record of each input.

Every input is made here from the seed alone.  citeflow receives it only as a
Pajek file (CLI workloads) or as arc arrays (the library workload), so a
change to citeflow's own generators cannot change what is measured.

Arcs point from the cited (earlier) vertex to the citing (later) one, as in
citeflow.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def citation_like(seed: int, n: int, refs: int = 5, lookback: int = 500,
                  dup_share: float = 0.05, mutual: int = 0, loops: int = 0,
                  fields: int = 1) -> tuple[int, np.ndarray, np.ndarray]:
    """Citation-like arc lines on vertices 1..n.

    The vertices fall into `fields` equal blocks that never cite each other.
    Within a block, in time order, each vertex cites about `refs` distinct
    earlier vertices among the `lookback` just before it.  `mutual` disjoint
    neighbour pairs (a, a+1) cite each other (a 2-cycle each), `loops`
    vertices cite themselves, and `dup_share` of the final arc lines repeat
    an earlier line.  Lines are grouped by citing vertex, as a reference
    list would be.
    """
    if n % fields:
        raise ValueError("n must be a multiple of fields")
    rng = np.random.default_rng(seed)
    size = n // fields
    v = np.arange(1, n + 1, dtype=np.int64)
    window = np.minimum((v - 1) % size, lookback)
    cite_v = np.repeat(v, refs)
    cite_w = np.repeat(window, refs)
    offset = (rng.random(len(cite_v)) * cite_w).astype(np.int64) + 1
    keep = cite_w > 0
    tails, heads = cite_v[keep] - offset[keep], cite_v[keep]

    # 2-cycles: pair (a, a+1) with a at an even position of its block, so the
    # pairs are disjoint and each is a strong component of its own
    starts = np.flatnonzero((v - 1) % size % 2 == 0)
    starts = starts[(v[starts] - 1) % size + 1 < size]
    a = np.sort(rng.choice(v[starts], size=mutual, replace=False))
    loop_v = np.sort(rng.choice(v, size=loops, replace=False))
    tails = np.concatenate([tails, a, a + 1, loop_v])
    heads = np.concatenate([heads, a + 1, a, loop_v])
    _, first = np.unique(tails * (n + 1) + heads, return_index=True)
    first.sort()
    tails, heads = tails[first], heads[first]

    dups = int(round(dup_share * len(tails) / (1.0 - dup_share)))
    pick = rng.integers(0, len(tails), size=dups)
    tails = np.concatenate([tails, tails[pick]])
    heads = np.concatenate([heads, heads[pick]])
    order = np.argsort(heads, kind="stable")
    return n, tails[order], heads[order]


def deep_dag(seed: int, n: int, density: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Each pair i < j gets the arc (i, j) with probability `density`.

    One PCG64 stream draws a uniform per pair in row-major order, which is
    the construction of citeflow.random_dag(n, density, seed).
    """
    tails, heads = np.triu_indices(n, k=1)
    keep = np.random.default_rng(seed).random(len(tails)) < density
    return n, tails[keep].astype(np.int64) + 1, heads[keep].astype(np.int64) + 1


def pajek_text(n: int, tails: np.ndarray, heads: np.ndarray) -> str:
    """Pajek .net text with a quoted label per vertex and bare arc lines."""
    lines = [f"*Vertices {n}"]
    lines.extend(f'{v} "p{v}"' for v in range(1, n + 1))
    lines.append("*Arcs")
    lines.extend(f"{t} {h}" for t, h in zip(tails.tolist(), heads.tolist()))
    return "\n".join(lines) + "\n"


def longest_levels(k: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Longest-path level of each vertex 0..k-1 of a DAG (sources at 0).

    Frontier-batched Kahn sweep; raises ValueError on a cycle.
    """
    order = np.argsort(tails, kind="stable")
    heads_by_tail = heads[order]
    ptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=k), out=ptr[1:])
    indeg = np.bincount(heads, minlength=k)
    level = np.zeros(k, dtype=np.int64)
    frontier = np.flatnonzero(indeg == 0)
    lev = done = 0
    while frontier.size:
        level[frontier] = lev
        done += frontier.size
        lo, count = ptr[frontier], ptr[frontier + 1] - ptr[frontier]
        at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        hs = heads_by_tail[at]
        np.subtract.at(indeg, hs, 1)
        cand = np.unique(hs)
        frontier = cand[indeg[cand] == 0]
        lev += 1
    if done < k:
        raise ValueError("graph has a cycle")
    return level


def shape(n: int, tails: np.ndarray, heads: np.ndarray) -> dict:
    """n, arc lines, parallels merged, loops, nontrivial strong components and
    depth (vertices on the longest path of the condensation, as `citeflow
    stats` counts it), computed without citeflow."""
    pairs = np.unique(tails * (n + 1) + heads)
    t, h = pairs // (n + 1), pairs % (n + 1)
    loop = t == h
    graph = csr_matrix((np.ones(len(t)), (t - 1, h - 1)), shape=(n, n))
    k, label = connected_components(graph, directed=True, connection="strong")
    label = label.astype(np.int64)
    sizes = np.bincount(label, minlength=k)
    ct, ch = label[t[~loop] - 1], label[h[~loop] - 1]
    cross = np.unique(ct[ct != ch] * k + ch[ct != ch])
    depth = int(longest_levels(k, cross // k, cross % k).max()) + 1 if n else 0
    return {"n": int(n), "arc_lines": int(len(tails)),
            "parallels_merged": int(len(tails) - len(pairs)),
            "loops": int((tails == heads).sum()),
            "scc_nontrivial": int((sizes > 1).sum()),
            "depth": depth}
