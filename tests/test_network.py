from fractions import Fraction

import numpy as np
import pytest

from citeflow import (ArcWeights, Network, complete_acyclic, random_dag,
                      shrink_components, simplify, strong_components)
from citeflow.network import _forest

import oracles
from conftest import arcs_of, random_multigraph


def test_basic_construction(diamond):
    assert diamond.n == 4
    assert diamond.m == 4
    assert arcs_of(diamond) == [(1, 2), (1, 3), (2, 4), (3, 4)]
    assert diamond.label(1) == "a"
    assert diamond.label(4) == "d"
    assert diamond.weights.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_default_labels():
    net = Network(3, [(1, 2)])
    assert [net.label(v) for v in (1, 2, 3)] == ["1", "2", "3"]


def test_arc_order_is_input_order():
    net = Network(3, [(2, 3), (1, 2), (1, 3)])
    assert arcs_of(net) == [(2, 3), (1, 2), (1, 3)]
    assert net.arc(0) == (2, 3, 1.0)


def test_explicit_weights():
    net = Network(2, [(1, 2, 2.5), (1, 2, 0.5)])
    assert net.weights.tolist() == [2.5, 0.5]


def test_id_validation():
    with pytest.raises(ValueError):
        Network(2, [(0, 1)])
    with pytest.raises(ValueError):
        Network(2, [(1, 3)])
    with pytest.raises(ValueError):
        Network(-1, [])


def test_label_count_validation():
    with pytest.raises(ValueError):
        Network(2, [(1, 2)], ["only-one"])


def test_adjacency_against_brute_force():
    net = random_dag(30, 0.2, seed=7)
    arcs = arcs_of(net)
    for v in range(1, net.n + 1):
        succ = sorted(h for t, h in arcs if t == v)
        pred = sorted(t for t, h in arcs if h == v)
        assert net.successors(v).tolist() == succ
        assert net.predecessors(v).tolist() == pred
        assert net.out_degree(v) == len(succ)
        assert net.in_degree(v) == len(pred)
        # arc indices point back at the right rows
        for ai in net.out_arcs(v).tolist():
            assert int(net.tails[ai]) == v
        for ai in net.in_arcs(v).tolist():
            assert int(net.heads[ai]) == v


def test_out_arcs_sorted_by_head_then_position():
    net = Network(3, [(1, 3), (1, 2), (1, 3)])
    assert net.out_arcs(1).tolist() == [1, 0, 2]


def test_simplify_merges_parallels():
    net = Network(3, [(1, 2, 1.0), (2, 3, 1.0), (1, 2, 2.0), (3, 3, 1.0)])
    merged = simplify(net)
    assert arcs_of(merged) == [(1, 2), (2, 3), (3, 3)]
    assert merged.weights.tolist() == [3.0, 1.0, 1.0]


def test_simplify_keeps_loops_and_merges_parallel_loops():
    net = Network(1, [(1, 1), (1, 1)])
    merged = simplify(net)
    assert arcs_of(merged) == [(1, 1)]
    assert merged.weights.tolist() == [2.0]


def weighted_arcs(net):
    return list(zip(net.tails.tolist(), net.heads.tolist(),
                    net.weights.tolist()))


def same_bits(net, n, arcs, labels):
    want = np.array([w for _, _, w in arcs], dtype=np.float64)
    return (net.n == n and net.labels == tuple(labels)
            and arcs_of(net) == [(u, v) for u, v, _ in arcs]
            and net.weights.tobytes() == want.tobytes())


@pytest.mark.parametrize("seed", range(60))
def test_simplify_matches_dict_merge_bit_for_bit(seed):
    net = random_multigraph(seed)
    assert same_bits(simplify(net), net.n,
                     oracles.merge_parallel(weighted_arcs(net)), net.labels)


@pytest.mark.parametrize("seed", range(60))
def test_shrink_matches_dict_merge_bit_for_bit(seed):
    net = random_multigraph(seed)
    part = strong_components(net)
    assert same_bits(shrink_components(net, part),
                     *oracles.shrink_reference(net.n, weighted_arcs(net),
                                               part.class_of, net.labels))


def sparse_multigraph(seed, n=400, m=500):
    """Many components and long hook chains for the Borůvka rounds."""
    rng = np.random.default_rng(seed)
    return Network.from_arrays(n, rng.integers(1, n + 1, size=m),
                               rng.integers(1, n + 1, size=m))


@pytest.mark.parametrize("net", [random_multigraph(s) for s in range(40)]
                         + [sparse_multigraph(s) for s in range(3)]
                         + [Network(0), Network(3)])
def test_forest_is_kruskals_and_labels_weak_components(net):
    nx = pytest.importorskip("networkx")
    forest, label = _forest(net.n, net.tails, net.heads)
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(1, net.n + 1))
    for i, (t, h) in enumerate(arcs_of(net)):
        g.add_edge(t, h, key=i, weight=i)  # the arc index is its rank
    kept = nx.minimum_spanning_edges(g.to_undirected(), algorithm="kruskal",
                                     keys=True, data=False)
    assert forest.tolist() == sorted(key for _, _, key in kept)
    want = [0] * (net.n + 1)
    for comp in nx.weakly_connected_components(g):
        for v in comp:
            want[v] = min(comp)
    assert label.tolist() == want


def test_merged_weights_add_in_input_order():
    # left to right, 1e16 + 1 rounds back to 1e16 twice; a pairwise or
    # reordered sum would reach 1e16 + 2
    net = Network(3, [(1, 2, 1e16), (1, 2, 1.0), (2, 3, 5.0), (1, 2, 1.0)])
    assert simplify(net).weights.tolist() == [1e16, 5.0]
    cyclic = Network(4, [(1, 3, 1e16), (2, 3, 1.0), (1, 2, 7.0), (2, 1, 7.0),
                         (1, 3, 1.0), (3, 4, 2.0)])
    shrunk = shrink_components(cyclic)
    assert arcs_of(shrunk) == [(1, 2), (2, 3)]
    assert shrunk.weights.tolist() == [1e16, 2.0]


def test_structural_equality():
    a = Network(3, [(1, 2), (2, 3)])
    b = Network(3, [(1, 2), (2, 3)])
    c = Network(3, [(2, 3), (1, 2)])
    assert a == b
    assert a != c  # arc indexing is part of the structure


def test_reverse_round_trip():
    net = random_dag(12, 0.4, seed=3)
    rev = net.reverse()
    assert arcs_of(rev) == [(h, t) for t, h in arcs_of(net)]
    assert rev.reverse() == net
    for v in range(1, net.n + 1):
        assert rev.in_degree(v) == net.out_degree(v)


def test_complete_acyclic_shape():
    net = complete_acyclic(5)
    assert net.n == 5
    assert net.m == 10
    assert all(t < h for t, h in arcs_of(net))
    assert set(arcs_of(net)) == {(i, j) for i in range(1, 6)
                                 for j in range(i + 1, 6)}


def test_random_dag_is_deterministic():
    a = random_dag(20, 0.3, seed=42)
    b = random_dag(20, 0.3, seed=42)
    c = random_dag(20, 0.3, seed=43)
    assert a == b
    assert a != c


def test_random_dag_density_extremes():
    assert random_dag(10, 0.0, seed=1).m == 0
    assert random_dag(10, 1.0, seed=1) == complete_acyclic(10)


def test_random_dag_arcs_point_forward():
    net = random_dag(15, 0.5, seed=9)
    assert all(t < h for t, h in arcs_of(net))


def test_arc_weights_exact_container():
    w = ArcWeights([1, 2, 3], "exact")
    assert len(w) == 3
    assert w[1] == 2
    assert list(w) == [1, 2, 3]
    assert w.tolist() == [1, 2, 3]
    assert w.mode == "exact"


def test_arc_weights_float_is_read_only():
    w = ArcWeights([1.0, 2.0], "float")
    assert isinstance(w.values, np.ndarray)
    with pytest.raises(ValueError):
        w.values[0] = 99.0


@pytest.mark.parametrize("mode, values, dtype", [
    ("float", np.array([1.0, 2.0]), np.float64),
    ("log", [0.0, -np.inf], np.float64),
    ("exact", np.array([2 ** 40, 3]), object),
    ("exact", [2 ** 1029, Fraction(1, 3)], object)])
def test_arc_weights_are_read_only_arrays_in_every_mode(mode, values, dtype):
    w = ArcWeights(values, mode)
    assert isinstance(w.values, np.ndarray) and w.values.dtype == dtype
    assert w.values.shape == (2,)
    with pytest.raises(ValueError):
        w.values[0] = 99
    # exact values are Python numbers, never numpy integers
    assert all(type(v) in (float, int, Fraction) for v in w.tolist())
    assert w.tolist() == list(values)
    if isinstance(values, np.ndarray):
        values[0] = 5  # the caller's array is not frozen


def test_labels_reject_mapping():
    # a dict would silently store its keys as the labels
    with pytest.raises(TypeError, match="mapping"):
        Network(2, [(1, 2)], labels={1: "a", 2: "b"})


def test_labels_reject_non_strings():
    with pytest.raises(TypeError, match="strings"):
        Network(2, [(1, 2)], labels=["a", 2])
