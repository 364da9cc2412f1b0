import numpy as np
import pytest

import citeflow.acyclic as acyclic_mod
from citeflow import (CycleError, Network, complete_acyclic, cpm_path, depths,
                      is_acyclic, main_path, network_stats, preprint_transform,
                      random_dag, remove_loops, shrink_components, spc,
                      standardize, strong_components, topological_order)

import oracles
from conftest import arcs_of, rand_instance, random_multigraph


def planted_cycles(seed, n=12):
    """Random DAG with a 2-cycle and a 3-cycle planted on top."""
    rng = np.random.default_rng(seed)
    net = random_dag(n, 0.25, seed)
    arcs = arcs_of(net)
    a, b, c = sorted(rng.choice(np.arange(1, n + 1), size=3, replace=False))
    d, e = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
    arcs += [(a, b), (b, c), (c, a), (d, e), (e, d)]
    return Network(n, arcs)


# --- strong components ---

def test_strong_components_on_mixed_digraph():
    net = Network(6, [(1, 2), (2, 3), (3, 1), (3, 4), (5, 6), (6, 5)])
    part = strong_components(net)
    assert part.class_count == 3
    assert part.class_of == (1, 1, 1, 2, 3, 3)
    assert [v for v, c in enumerate(part.class_of, 1) if c == 1] == [1, 2, 3]
    assert part.sizes() == [3, 1, 2]


def test_strong_components_numbering_follows_smallest_member():
    # the class holding vertex 1 is always class 1
    net = Network(4, [(4, 3), (3, 4), (2, 1), (1, 2)])
    part = strong_components(net)
    assert part.class_of == (1, 1, 2, 2)


def test_strong_components_all_singletons_on_dag():
    net = random_dag(15, 0.3, seed=5)
    part = strong_components(net)
    assert part.class_count == 15
    assert part.class_of == tuple(range(1, 16))


@pytest.mark.parametrize("seed", range(30))
def test_loops_do_not_change_strong_components(seed):
    net = random_multigraph(seed)
    part = strong_components(net)
    loopless = remove_loops(net)
    assert strong_components(loopless) == part


def _nx_classes(net):
    nx = pytest.importorskip("networkx")
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(1, net.n + 1))
    g.add_edges_from(arcs_of(net))
    return {frozenset(c) for c in nx.strongly_connected_components(g)}


def _classes(part):
    """The partition's classes as vertex sets, after checking that ids run
    1..k in order of each class's smallest member."""
    members: dict[int, list[int]] = {}
    for v, cls in enumerate(part.class_of, start=1):
        members.setdefault(cls, []).append(v)
    assert list(members) == list(range(1, part.class_count + 1))
    return {frozenset(vs) for vs in members.values()}


def _relabelled(net, seed):
    """The same network with vertex v renamed perm[v] and arcs shuffled."""
    rng = np.random.default_rng(seed)
    perm = np.r_[0, rng.permutation(net.n) + 1]
    arcs = rng.permutation(net.m)
    return Network.from_arrays(net.n, perm[net.tails][arcs],
                               perm[net.heads][arcs])


def _multigraph(seed, n, m):
    """Sparse digraph with loops, parallel arcs and mutual pairs."""
    rng = np.random.default_rng(seed)
    tails = rng.integers(1, n + 1, m)
    heads = rng.integers(1, n + 1, m)
    loops = rng.integers(1, n + 1, m // 20)
    return Network.from_arrays(n, np.r_[tails, heads[:m // 10], loops,
                                        tails[:m // 10]],
                               np.r_[heads, tails[:m // 10], loops,
                                     heads[:m // 10]])


@pytest.mark.parametrize("seed", range(12))
def test_strong_components_match_networkx(seed):
    nets = [random_multigraph(seed), planted_cycles(seed),
            _multigraph(seed, 300, 330 + 40 * seed)]
    for net in nets + [_relabelled(net, seed) for net in nets]:
        assert _classes(strong_components(net)) == _nx_classes(net)


def test_strong_components_on_a_long_cycle():
    n = 20_000
    ring = Network.from_arrays(n, np.arange(1, n + 1), np.r_[2:n + 1, 1])
    for net in (ring, _relabelled(ring, 7)):
        part = strong_components(net)
        assert part.class_count == 1 and set(part.class_of) == {1}
        assert _classes(part) == _nx_classes(net)


def _on_cycle(net, v):
    return any(v in c and (len(c) > 1 or (v, v) in arcs_of(net))
               for c in _nx_classes(net))


# an acyclic prefix 1 -> 2 before the cycle 3 -> 4 -> 5 -> 3, then 6
PREFIXED = Network(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6),
                       (7, 6)])


@pytest.mark.parametrize("seed", range(10))
def test_cycle_witness_lies_on_a_cycle(seed):
    nets = [PREFIXED, Network(3, [(1, 2), (2, 2), (2, 3)]),
            planted_cycles(seed), _multigraph(seed, 40, 45)]
    for net in nets:
        if is_acyclic(net):
            continue
        for call in (standardize, topological_order):
            with pytest.raises(CycleError) as err:
                call(net)
            assert _on_cycle(net, err.value.vertex)


def test_cycle_witness_skips_an_acyclic_prefix():
    with pytest.raises(CycleError) as err:
        topological_order(PREFIXED)
    assert err.value.vertex in (3, 4, 5)


def test_acyclicity_test_builds_no_witness(monkeypatch):
    calls = []
    witness = acyclic_mod.strong_components

    def counted(*args):
        calls.append(args)
        return witness(*args)

    monkeypatch.setattr(acyclic_mod, "strong_components", counted)
    net = planted_cycles(3)
    assert not is_acyclic(net)
    assert not is_acyclic(net.reverse())
    network_stats(net)
    assert calls == []
    with pytest.raises(CycleError):
        standardize(net)
    assert len(calls) == 1


# --- repairs ---

def test_remove_loops():
    net = Network(3, [(1, 1), (1, 2), (2, 2), (2, 3)])
    clean = remove_loops(net)
    assert arcs_of(clean) == [(1, 2), (2, 3)]


@pytest.mark.parametrize("seed", range(10))
def test_strong_components_are_built_once_per_network(seed, monkeypatch):
    tarjan, builds = acyclic_mod._tarjan, []

    def counted(net):
        builds.append(net)
        return tarjan(net)

    monkeypatch.setattr(acyclic_mod, "_tarjan", counted)
    net = random_multigraph(seed)
    loopless = remove_loops(net)
    assert remove_loops(loopless) is loopless  # its derived structure with it
    assert strong_components(net) is strong_components(net)
    shrink_components(net)
    preprint_transform(net)
    network_stats(net)
    if not is_acyclic(net):
        with pytest.raises(CycleError):
            standardize(net)
    assert builds == [net]


def test_shrink_components_merges_classes():
    net = Network(5, [(1, 2), (2, 1), (2, 3, 2.0), (1, 3, 1.0), (3, 4),
                      (4, 5)])
    shrunk = shrink_components(net)
    # {1,2} collapses onto class 1; the two arcs into 3 merge
    assert shrunk.n == 4
    assert arcs_of(shrunk) == [(1, 2), (2, 3), (3, 4)]
    assert shrunk.weights.tolist() == [3.0, 1.0, 1.0]
    assert shrunk.label(1) == "1"
    assert shrunk.label(2) == "3"


def test_shrink_drops_intra_class_arcs_and_loops():
    net = Network(3, [(1, 2), (2, 1), (1, 1), (2, 3)])
    shrunk = shrink_components(net)
    assert arcs_of(shrunk) == [(1, 2)]
    assert is_acyclic(shrunk)


def test_preprint_transform_two_cycle():
    net = Network(3, [(1, 2), (2, 1), (2, 3)])
    fixed = preprint_transform(net)
    assert fixed.n == 5
    assert fixed.label(4) == "1'"
    assert fixed.label(5) == "2'"
    # intra-component arcs start at the preprint twin
    assert arcs_of(fixed) == [(4, 2), (5, 1), (2, 3), (4, 1), (5, 2)]
    assert is_acyclic(fixed)


def test_preprint_counts_loop_singleton_as_cyclic():
    net = Network(2, [(1, 1), (1, 2)])
    fixed = preprint_transform(net)
    assert fixed.n == 3
    assert fixed.label(3) == "1'"
    assert (3, 1) in arcs_of(fixed)
    assert is_acyclic(fixed)  # the loop itself got redirected to the twin


def test_preprint_leaves_acyclic_networks_alone():
    net = random_dag(10, 0.3, seed=2)
    assert preprint_transform(net) == net


@pytest.mark.parametrize("seed", range(12))
def test_repairs_make_planted_cycles_acyclic(seed):
    net = planted_cycles(seed)
    for fixed in (shrink_components(net), preprint_transform(net)):
        topological_order(fixed)  # must not raise


def test_preprint_adds_one_twin_per_cyclic_member():
    net = planted_cycles(91)
    sizes = strong_components(net).sizes()
    expect = sum(s for s in sizes if s > 1)
    assert preprint_transform(net).n == net.n + expect


# --- topological order ---

def test_topological_order_smallest_first(diamond):
    order = topological_order(diamond)
    assert order.order == (1, 2, 3, 4)
    assert order.position == (1, 2, 3, 4)


def test_topological_order_prefers_small_ids():
    net = Network(4, [(4, 1), (4, 2), (1, 3), (2, 3)])
    assert topological_order(net).order == (4, 1, 2, 3)


def test_topological_order_is_the_level_order():
    # frontier {1, 3}, then {2}: not the smallest order by id, (1, 2, 3)
    assert topological_order(Network(3, [(1, 2)])).order == (1, 3, 2)


def test_topological_order_positions_are_ranks():
    net, _ = rand_instance(17, n=20, density=0.2)
    order = topological_order(net)
    for rank, v in enumerate(order.order, start=1):
        assert order.position[v - 1] == rank
    # every arc goes forward
    for t, h in arcs_of(net):
        assert order.position[t - 1] < order.position[h - 1]


def test_topological_order_cycle_witness():
    net = Network(4, [(1, 2), (2, 3), (3, 2), (3, 4)])
    with pytest.raises(CycleError) as err:
        topological_order(net)
    assert err.value.vertex in (2, 3)


def test_loop_counts_as_cycle():
    net = Network(2, [(1, 2), (2, 2)])
    assert not is_acyclic(net)
    with pytest.raises(CycleError):
        topological_order(net)


# --- standard form ---

def test_standardize_layout(diamond):
    std = standardize(diamond)
    assert (std.s, std.t) == (5, 6)
    base = std.base
    assert base.n == 6
    assert base.label(5) == "s"
    assert base.label(6) == "t"
    # original arcs first, then s->min, max->t, then the closing arc
    assert arcs_of(base) == [(1, 2), (1, 3), (2, 4), (3, 4),
                             (5, 1), (4, 6), (6, 5)]
    assert std.feedback_arc == base.m - 1
    assert std.net.n == 4
    assert std.net.m == 4


def test_standardize_matches_independent_construction():
    for seed in range(8):
        net, arcs = rand_instance(seed, n=9, density=0.3)
        s, t, full = oracles.standard_form(net.n, arcs)
        std = standardize(net)
        assert (std.s, std.t) == (s, t)
        assert arcs_of(std.base) == full
        base = std.base
        assert std.sources.tolist() == base.heads[base.tails == s].tolist()
        assert std.sinks.tolist() == base.tails[base.heads == t].tolist()
        for ends in (std.sources, std.sinks):
            assert not ends.flags.writeable


def test_standard_form_builds_its_arcs_only_when_read(monkeypatch):
    net = random_dag(30, 0.2, seed=4)
    built = []
    from_arrays = Network.from_arrays.__func__

    def counted(cls, *args):
        built.append(args[0])
        return from_arrays(cls, *args)

    monkeypatch.setattr(Network, "from_arrays", classmethod(counted))
    std = standardize(net)
    for mode in ("float", "exact", "log"):
        w = spc(std, mode).arc
        main_path(std, w)
        cpm_path(std, w)
    depths(std)
    assert built == []
    base = std.base
    assert std.base is base and built == [net.n + 2]
    k = base.m - net.m
    assert base.weights.tolist() == net.weights.tolist() + [1.0] * k
    assert base.labels == net.labels + ("s", "t")


def test_standardize_isolated_vertex_is_min_and_max():
    net = Network(2, [(1, 2)])  # plus nothing touching vertex... add one
    net = Network(3, [(1, 2)])
    std = standardize(net)
    assert (3, 1) not in arcs_of(std.base)
    assert (std.s, 3) in arcs_of(std.base)
    assert (3, std.t) in arcs_of(std.base)


def test_standardize_rejects_cycles():
    with pytest.raises(CycleError):
        standardize(Network(2, [(1, 2), (2, 1)]))
    with pytest.raises(CycleError):
        standardize(Network(1, [(1, 1)]))


def test_empty_network_standardizes():
    std = standardize(Network(0, []))
    assert (std.s, std.t) == (1, 2)
    assert arcs_of(std.base) == [(2, 1)]


# --- depths ---

def test_depths_hand_values(diamond):
    dm = depths(standardize(diamond))
    assert dm.h == (1, 2, 2, 3, 0, 4)
    assert dm.h_minus == (3, 2, 2, 1, 4, 0)
    assert dm.H == 4


def test_depths_complete_acyclic():
    std = standardize(complete_acyclic(4))
    dm = depths(std)
    assert dm.h == (1, 2, 3, 4, 0, 5)
    assert dm.H == 5


@pytest.mark.parametrize("seed", range(10))
def test_depths_match_longest_path_enumeration(seed):
    net, arcs = rand_instance(seed, n=8, density=0.3)
    dm = depths(standardize(net))
    assert list(dm.h) == oracles.longest_from_source(net.n, arcs)
    rev_arcs = [(h, t) for t, h in arcs]
    assert list(dm.h_minus)[:net.n] == \
        oracles.longest_from_source(net.n, rev_arcs)[:net.n]


@pytest.mark.parametrize("n, arcs, h, h_minus, H", [
    (0, [], (0, 0), (0, 0), 0),
    (3, [], (1, 1, 1, 0, 2), (1, 1, 1, 2, 0), 2),
    (2, [(1, 2)], (1, 2, 0, 3), (2, 1, 3, 0), 3),
    (3, [(1, 2)], (1, 2, 1, 0, 3), (2, 1, 1, 3, 0), 3),
], ids=["empty", "isolated", "single-arc", "arc-and-isolated"])
def test_depths_on_tiny_networks(n, arcs, h, h_minus, H):
    dm = depths(standardize(Network(n, arcs)))
    assert (dm.h, dm.h_minus, dm.H) == (h, h_minus, H)
    assert list(dm.h) == oracles.longest_from_source(n, arcs)
