"""Whole-network summary statistics.

Works on raw, possibly cyclic input: the depth statistic falls back to the
loop-free condensation when cycles are present, everything else is counted
directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .acyclic import _levels, shrink_components, strong_components
from .network import Network, _forest


@dataclass(frozen=True)
class NetworkStats:
    n: int                        # vertices
    m: int                        # arcs, loops and parallels included
    loops: int                    # arcs (v, v)
    isolated: int                 # vertices with no incident arc at all
    largest_weak_size: int        # vertices in the biggest weak component
    nontrivial_weak_count: int    # weak components with >= 2 vertices
    depth: int                    # 1 + longest path arc count (condensed if cyclic)
    max_in_degree: int
    max_out_degree: int
    scc_size_counts: dict[int, int]  # size -> count, sizes >= 2 only


def network_stats(net: Network) -> NetworkStats:
    n, m = net.n, net.m
    loops = int(np.count_nonzero(net.tails == net.heads))
    indeg = np.bincount(net.heads, minlength=n + 1)
    outdeg = np.bincount(net.tails, minlength=n + 1)
    isolated = int(np.count_nonzero((indeg[1:] + outdeg[1:]) == 0))

    comp_sizes = np.bincount(_forest(n, net.tails, net.heads)[1][1:])
    largest = int(comp_sizes.max(initial=0))
    nontrivial = int(np.count_nonzero(comp_sizes >= 2))

    sizes = strong_components(net).sizes()  # shrink_components reads it
    scc_counts = Counter(size for size in sizes if size >= 2)

    level, order = _levels(net)
    if len(order) < n:  # the condensation of any digraph is acyclic
        level = _levels(shrink_components(net))[0]
    depth = int(level.max()) + 1 if n else 0

    return NetworkStats(
        n=n, m=m, loops=loops, isolated=isolated,
        largest_weak_size=largest, nontrivial_weak_count=nontrivial,
        depth=depth,
        max_in_degree=int(indeg[1:].max()) if n else 0,
        max_out_degree=int(outdeg[1:].max()) if n else 0,
        scc_size_counts=dict(sorted(scc_counts.items())),
    )


def format_stats(stats: NetworkStats) -> str:
    """Two-column text table, one statistic per line."""
    scc = " ".join(f"{size}:{count}"
                   for size, count in stats.scc_size_counts.items()) or "-"
    rows = [
        ("vertices", stats.n),
        ("arcs", stats.m),
        ("loops", stats.loops),
        ("isolated vertices", stats.isolated),
        ("largest weak component", stats.largest_weak_size),
        ("nontrivial weak components", stats.nontrivial_weak_count),
        ("depth", stats.depth),
        ("max in-degree", stats.max_in_degree),
        ("max out-degree", stats.max_out_degree),
        ("strong component sizes", scc),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"
