import numpy as np
import pytest

import citeflow.acyclic as acyclic_mod
import citeflow.network as network_mod
import citeflow.stats as stats_mod
from citeflow import Network, complete_acyclic, format_stats, network_stats

from conftest import arcs_of
from oracles import longest_from_source, shrink_reference


def test_diamond_stats(diamond):
    st = network_stats(diamond)
    assert st.n == 4
    assert st.m == 4
    assert st.loops == 0
    assert st.isolated == 0
    assert st.largest_weak_size == 4
    assert st.nontrivial_weak_count == 1
    assert st.depth == 3
    assert st.max_in_degree == 2
    assert st.max_out_degree == 2
    assert st.scc_size_counts == {}


def test_stats_tolerate_cycles_and_loops():
    net = Network(5, [(1, 2), (2, 1), (3, 3), (2, 4)])
    st = network_stats(net)
    assert st.loops == 1
    assert st.isolated == 1  # vertex 5
    assert st.scc_size_counts == {2: 1}
    assert st.nontrivial_weak_count == 1
    assert st.largest_weak_size == 3
    # condensation is 2-cycle -> 4, a two-stage chain
    assert st.depth == 2


def test_depth_anchor_on_complete_acyclic():
    for n in (2, 5, 9):
        assert network_stats(complete_acyclic(n)).depth == n


def test_isolated_means_no_incident_arcs():
    net = Network(3, [(1, 2)])
    assert network_stats(net).isolated == 1


def test_empty_network():
    st = network_stats(Network(0, []))
    assert (st.n, st.m, st.depth) == (0, 0, 0)
    format_stats(st)  # must not blow up


def test_format_stats_is_aligned_table(diamond):
    text = format_stats(network_stats(diamond))
    lines = text.splitlines()
    assert any(line.startswith("vertices") and line.endswith("4")
               for line in lines)
    assert any("depth" in line for line in lines)
    # loop-free network shows a dash for component sizes
    assert any(line.endswith("-") for line in lines)


def condensation_depth(n, arcs):
    """1 + the longest arc path of the condensation, from a brute-force
    reachability closure: classes of mutually reachable vertices, numbered
    by their smallest member."""
    reach = [{v} for v in range(n + 1)]
    for _ in range(n):
        for u, v in arcs:
            reach[u] |= reach[v]
    class_of, rep = [], {}
    for v in range(1, n + 1):
        first = min(u for u in reach[v] if v in reach[u])
        class_of.append(rep.setdefault(first, len(rep) + 1))
    k, merged, _ = shrink_reference(n, [(u, v, 1.0) for u, v in arcs],
                                    class_of, [""] * n)
    return max(longest_from_source(k, [(u, v) for u, v, _ in merged])[:k])


@pytest.mark.parametrize("seed", range(6))
def test_cyclic_depth_reads_the_condensation_without_a_shrunk_copy(
        seed, monkeypatch):
    # loops, parallel arcs and cycles; no merged or labelled copy is built
    rng = np.random.default_rng(seed)
    n = 12
    net = Network.from_arrays(n, rng.integers(1, n + 1, 18),
                              rng.integers(1, n + 1, 18))

    def boom(*args, **kwargs):
        raise AssertionError("a shrunk copy was built")

    for module, name in [(acyclic_mod, "shrink_components"),
                         (acyclic_mod, "_merged"), (network_mod, "_merged"),
                         (stats_mod, "shrink_components")]:
        monkeypatch.setattr(module, name, boom, raising=False)
    assert not acyclic_mod.is_acyclic(net)
    assert network_stats(net).depth == condensation_depth(n, arcs_of(net))
