import math
from fractions import Fraction

import numpy as np
import pytest

import citeflow.acyclic as acyclic_mod
import citeflow.weights as weights_mod
from citeflow import (MODES, CycleError, Network, WeightOverflowError,
                      aged_path_counts, complete_acyclic, cpm_path, depths,
                      log_transform, main_path, normalize, nppc,
                      random_dag, spc, splc, spnp, standardize, sum_weights)

import oracles
from conftest import arcs_of, rand_instance

REL = 1e-12


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-300)


# --- frozen hand values ---

def test_spc_diamond_exact(diamond):
    res = spc(standardize(diamond), "exact")
    assert list(res.arc) == [1, 1, 1, 1, 2, 2, 2]
    assert list(res.vertex) == [2, 1, 1, 2, 2, 2]
    assert res.total_flow == 2
    assert res.method == "SPC"


def test_splc_diamond_exact(diamond):
    res = splc(standardize(diamond), "exact")
    assert list(res.arc) == [1, 1, 2, 2, 2, 5, 5]
    assert res.total_flow == 5


def test_spnp_diamond_exact(diamond):
    res = spnp(standardize(diamond), "exact")
    assert list(res.arc) == [2, 2, 2, 2, 5, 5, 10]
    assert res.total_flow == 10


def test_splc_spnp_chain_exact(chain3):
    std = standardize(chain3)
    assert list(splc(std, "exact").arc)[:2] == [1, 2]
    assert list(spnp(std, "exact").arc)[:2] == [2, 2]


def test_nppc_diamond(diamond):
    res = nppc(diamond)
    assert list(res.arc) == [2, 2, 2, 2]
    assert list(res.vertex) == [4, 4, 4, 4]
    assert res.total_flow is None


def test_sum_diamond(diamond):
    res = sum_weights(diamond)
    assert list(res.arc) == [3, 3, 3, 3]
    assert res.vertex is None


def test_branch_spc(branch):
    res = spc(standardize(branch), "exact")
    assert list(res.arc) == [2, 1, 1, 1, 2, 3, 3, 3]
    assert res.total_flow == 3


# --- modes agree ---

@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("method", [spc, splc, spnp])
def test_float_and_log_match_exact(seed, method):
    net, _ = rand_instance(seed, n=12, density=0.35)
    std = standardize(net)
    ex = method(std, "exact")
    fl = method(std, "float")
    lg = method(std, "log")
    for a, b, c in zip(ex.arc, fl.arc, lg.arc):
        assert float(a) == b
        assert close(math.log(a) if a else -math.inf, c) or \
            (a == 0 and c == -math.inf)
    assert float(ex.total_flow) == fl.total_flow
    assert close(math.log(ex.total_flow), lg.total_flow)
    for a, b in zip(ex.vertex, fl.vertex):
        assert float(a) == b


@pytest.mark.parametrize("mode", ["float", "exact", "log"])
@pytest.mark.parametrize("method", [spc, splc, spnp])
def test_flow_methods_without_arcs(method, mode):
    # no arcs at all, then three isolated vertices: one path through each
    for net, paths in ((Network(0), 0), (Network(3), 3)):
        res = method(standardize(net), mode)
        total = math.exp(res.total_flow) if mode == "log" else res.total_flow
        assert math.isclose(total, paths) and len(res.arc) == 2 * net.n + 1


def test_mode_validation(diamond):
    with pytest.raises(ValueError):
        spc(standardize(diamond), "double")


# --- oracle comparisons ---

@pytest.mark.parametrize("seed", range(20))
def test_spc_matches_path_enumeration(seed):
    net, arcs = rand_instance(seed, n=9, density=0.3)
    res = spc(standardize(net), "exact")
    arc_counts, vertex_counts, total = oracles.spc_oracle(net.n, arcs)
    assert list(res.arc) == arc_counts
    assert list(res.vertex) == vertex_counts
    assert res.total_flow == total


@pytest.mark.parametrize("seed", range(20))
def test_splc_matches_origin_enumeration(seed):
    net, arcs = rand_instance(seed, n=9, density=0.3)
    res = splc(standardize(net), "exact")
    assert list(res.arc)[:net.m] == oracles.splc_oracle(net.n, arcs)


@pytest.mark.parametrize("seed", range(20))
def test_spnp_matches_pair_enumeration(seed):
    net, arcs = rand_instance(seed, n=9, density=0.3)
    res = spnp(standardize(net), "exact")
    expect, _, _ = oracles.spnp_oracle(net.n, arcs)
    assert list(res.arc)[:net.m] == expect


def _check_closure_methods(net, anc, desc):
    """nppc and sum_weights against closure sizes listed per vertex 1..n."""
    arcs = arcs_of(net)
    res = nppc(net)
    assert list(res.arc) == [anc[u - 1] * desc[v - 1] for u, v in arcs]
    assert list(res.vertex) == [a * d for a, d in zip(anc, desc)]
    assert list(sum_weights(net).arc) == [anc[u - 1] + desc[v - 1]
                                          for u, v in arcs]


@pytest.mark.parametrize("seed", range(20))
def test_nppc_matches_warshall(seed):
    net, arcs = rand_instance(seed, n=10, density=0.3)
    _check_closure_methods(net, *oracles.closure_counts(net.n, arcs))


@pytest.mark.parametrize("n", [4096, 4097])
def test_nppc_across_the_block_boundary(n):
    # 4096 sources fill one bitset block; one more vertex needs a second
    nx = pytest.importorskip("networkx")
    net = random_dag(n, 10_000 / (n * (n - 1) / 2), seed=n)
    g = nx.DiGraph(arcs_of(net))
    g.add_nodes_from(range(1, n + 1))
    anc = [len(nx.ancestors(g, v)) + 1 for v in range(1, n + 1)]
    desc = [len(nx.descendants(g, v)) + 1 for v in range(1, n + 1)]
    _check_closure_methods(net, anc, desc)


def _layered(layers, width):
    """Complete bipartite arcs between consecutive layers: every stage
    holds width*width arcs, more than the network has vertices."""
    return Network(layers * width, [
        (i * width + a, (i + 1) * width + b)
        for i in range(layers - 1)
        for a in range(1, width + 1) for b in range(1, width + 1)])


def _uneven_levels(seed):
    """100 roots, a chain of 40 one-vertex levels, then 80 leaves, with the
    ids shuffled: blocks of 64 sources in level order span one level, many
    levels, or a few."""
    rng = np.random.default_rng(seed)
    roots, chain, leaves = np.split(rng.permutation(np.arange(1, 221)),
                                    [100, 140])
    arcs = [(r, chain[0]) for r in roots[::3]]
    arcs += list(zip(chain[:-1], chain[1:]))
    arcs += [(chain[-1], v) for v in leaves[::2]]
    arcs += [(roots[i], leaves[j]) for i, j in
             zip(rng.integers(0, 100, 60), rng.integers(0, 80, 60))]
    arcs += [(chain[i], leaves[j]) for i, j in
             zip(rng.integers(0, 40, 30), rng.integers(0, 80, 30))]
    return Network(220, sorted({(int(t), int(h)) for t, h in arcs}))


@pytest.mark.parametrize(
    "net", [random_dag(150, 0.05, seed=7), _layered(6, 12), _uneven_levels(0),
            _uneven_levels(1)], ids=["random", "layered", "uneven0", "uneven1"])
def test_nppc_over_several_blocks(monkeypatch, net):
    monkeypatch.setattr(weights_mod, "_WORDS", 1)  # 64 sources per block
    anc, desc = oracles.closure_counts(net.n, arcs_of(net))
    _check_closure_methods(net, anc, desc)


@pytest.mark.parametrize("net", [Network(0), Network(1), Network(3, [])],
                         ids=["n0", "n1", "n3"])
def test_closure_methods_without_arcs(net):
    res = nppc(net)
    assert list(res.arc) == [] and res.vertex == (1,) * net.n
    assert list(sum_weights(net).arc) == []


def test_nppc_rejects_cycles():
    with pytest.raises(CycleError):
        nppc(Network(2, [(1, 2), (2, 1)]))


# --- one stage schedule per network ---

def _count_builds(monkeypatch):
    """Keys of every level sweep and stage schedule built from now on."""
    calls = []
    sweep, groups = acyclic_mod._level_sweep, acyclic_mod._stage_groups

    def level_sweep(net):
        calls.append(("levels", id(net)))
        return sweep(net)

    def stage_groups(net, by_tail):
        calls.append(("stages", id(net), by_tail))
        return groups(net, by_tail)

    monkeypatch.setattr(acyclic_mod, "_level_sweep", level_sweep)
    monkeypatch.setattr(acyclic_mod, "_stage_groups", stage_groups)
    return calls


def _every_method(net, std, w, cpm_first):
    """Each sweep-driven result, as comparable values; net() and std() give
    the networks that each method runs on."""
    calls = [lambda: cpm_path(std(), w)]
    calls += [lambda fn=fn, mode=mode: fn(std(), mode)
              for fn in (spc, splc, spnp) for mode in MODES]
    calls += [lambda mode=mode: aged_path_counts(std(), 0.5, mode)
              for mode in MODES]
    calls += [lambda: depths(std()), lambda: nppc(net()),
              lambda: sum_weights(net())]
    if not cpm_first:
        calls.append(calls.pop(0))
    out = []
    for call in calls:
        res = call()
        if hasattr(res, "arc"):
            vertex = None if res.vertex is None else list(res.vertex)
            res = (res.arc.tolist(), vertex, res.total_flow)
        elif hasattr(res, "arcs"):
            res = (res.arcs, res.vertices)
        out.append(res)
    if not cpm_first:
        out.insert(0, out.pop())
    return out


def test_schedule_is_built_once_per_key(monkeypatch):
    calls = _count_builds(monkeypatch)
    net = random_dag(40, 0.2, seed=3)
    std = standardize(net)
    w = spc(std, "log").arc
    for cpm_first in (True, False, True):
        _every_method(lambda: net, lambda: std, w, cpm_first)
    assert len(calls) == len(set(calls))
    # every sweep runs on net: its levels once, one schedule per direction
    # shared by flows, cpm, depths and closures
    assert all(c[1] == id(net) for c in calls)
    assert [c[0] for c in calls].count("levels") == 1
    assert [c[0] for c in calls].count("stages") == 2


def test_sweeps_cache_nothing_on_the_standard_form():
    net = random_dag(30, 0.3, seed=2)
    std = standardize(net)
    w = spc(std, "log").arc
    for mode in MODES:
        for fn in (spc, splc, spnp):
            fn(std, mode)
        aged_path_counts(std, 0.5, mode)
    cpm_path(std, w)
    depths(std)
    main_path(std, w)
    main_path(std, w, single=True)
    nppc(net)
    sum_weights(net)
    assert std.base._memos == {}
    # the input's forward CSR and levels, and its schedule per direction
    assert sorted(net._memos) == [("_csr", False), ("_level_sweep",),
                                  ("_stage_groups", False),
                                  ("_stage_groups", True)]


def test_each_run_sweeps_once_per_direction(monkeypatch):
    # _from_end and _closures alone call _sweep: two sweeps per flow method
    # and per cpm_path, one per main_path and per depths, none added
    net = random_dag(30, 0.3, seed=2)
    std = standardize(net)
    weights = {mode: spc(std, mode).arc for mode in MODES}  # builds schedules
    calls, sweep = [], acyclic_mod._sweep

    def counted(c, net, backward, *args, **kwargs):
        calls.append(backward)
        return sweep(c, net, backward, *args, **kwargs)

    monkeypatch.setattr(acyclic_mod, "_sweep", counted)  # _from_end's
    monkeypatch.setattr(weights_mod, "_sweep", counted)  # _closures'

    def sweeps(run):
        calls.clear()
        run()
        return calls[:]

    for mode, w in weights.items():
        for fn in (spc, splc, spnp):
            assert sweeps(lambda: fn(std, mode)) == [False, True]
        assert sweeps(lambda: aged_path_counts(std, 0.5, mode)) == [
            False, True]
        assert sweeps(lambda: cpm_path(std, w)) == [False, True]
        assert sweeps(lambda: main_path(std, w)) == [False]
        assert sweeps(lambda: main_path(std, w, single=True)) == [False]
    assert sweeps(lambda: depths(std)) == [True]
    assert sweeps(lambda: nppc(net)) == [False, True]  # one source block


@pytest.mark.parametrize("cpm_first", [True, False])
def test_shared_schedule_gives_fresh_results(cpm_first):
    net = random_dag(30, 0.3, seed=5)
    w = spc(standardize(net), "log").arc
    std = standardize(net)
    shared = _every_method(lambda: net, lambda: std, w, cpm_first)

    def fresh_net():
        return Network.from_arrays(net.n, net.tails, net.heads)

    assert shared == _every_method(fresh_net, lambda: standardize(fresh_net()),
                                   w, cpm_first)


def test_cached_schedule_stays_read_only():
    net = random_dag(25, 0.3, seed=8)
    anc, desc = oracles.closure_counts(net.n, arcs_of(net))
    for _ in range(2):
        _check_closure_methods(net, anc, desc)
    for key, value in net._memos.items():
        arrays = value if key[0] == "_stage_groups" else value[:2]
        assert not any(a.flags.writeable for a in arrays), key


# --- structural invariants ---

@pytest.mark.parametrize("seed", range(10))
def test_kirchhoff_node_law_exact(seed):
    net, _ = rand_instance(seed, n=11, density=0.3)
    std = standardize(net)
    res = spc(std, "exact")
    base = std.base
    for v in range(1, base.n + 1):
        inflow = sum(res.arc[i] for i in base.in_arcs(v).tolist())
        outflow = sum(res.arc[i] for i in base.out_arcs(v).tolist())
        assert inflow == outflow == res.vertex[v - 1]


@pytest.mark.parametrize("seed", range(10))
def test_chain_inequality(seed):
    net, _ = rand_instance(seed, n=12, density=0.3)
    std = standardize(net)
    w_c = list(spc(std, "exact").arc)[:net.m]
    w_l = list(splc(std, "exact").arc)[:net.m]
    w_p = list(spnp(std, "exact").arc)[:net.m]
    for a, b, c in zip(w_c, w_l, w_p):
        assert a <= b <= c


def test_vertex_weight_peaks_at_source_and_sink(diamond):
    res = spc(standardize(diamond), "exact")
    assert res.vertex[-2] == res.vertex[-1] == res.total_flow
    assert max(res.vertex) == res.total_flow


def test_dk_total_flow_is_power_of_two():
    for n in range(3, 10):
        res = spc(standardize(complete_acyclic(n)), "exact")
        assert res.total_flow == 2 ** (n - 2)


def test_dk_arc_weights_closed_form():
    n = 6
    net = complete_acyclic(n)
    res = spc(standardize(net), "exact")
    arc_counts, _, total = oracles.spc_oracle(n, arcs_of(net))
    assert list(res.arc) == arc_counts
    assert total == 2 ** (n - 2)
    for idx, (i, j) in enumerate(arcs_of(net)):
        into = 1 if i == 1 else 2 ** (i - 2)
        onward = 1 if j == n else 2 ** (n - j - 1)
        assert res.arc[idx] == into * onward


# --- polynomials and aged counts ---

def test_path_polynomials_diamond(diamond):
    pp = oracles.path_polynomials(diamond.n, arcs_of(diamond))
    assert pp.p_minus == ((1,), (1, 1), (1, 1), (1, 2, 2), (), (1, 1, 2, 2))
    assert pp.p_plus[0] == (1, 2, 2)
    assert pp.l_minus() == (1, 2, 2, 5, 0, 6)
    assert pp.l_plus() == (5, 2, 2, 1, 6, 0)


@pytest.mark.parametrize("n, arcs, p_minus, p_plus", [
    (0, [], ((), (1,)), ((1,), ())),
    (3, [], ((1,), (1,), (1,), (), (1, 3)), ((1,), (1,), (1,), (1, 3), ())),
    (2, [(1, 2)], ((1,), (1, 1), (), (1, 1, 1)),
     ((1, 1), (1,), (1, 1, 1), ())),
], ids=["empty", "isolated", "single-arc"])
def test_path_polynomials_on_tiny_networks(n, arcs, p_minus, p_plus):
    pp = oracles.path_polynomials(n, arcs)
    assert (pp.p_minus, pp.p_plus) == (p_minus, p_plus)
    ending = oracles.paths_ending_at(n, arcs)
    assert pp.l_minus()[:n] == tuple(map(len, ending))


@pytest.mark.parametrize("seed", range(10))
def test_polynomial_coefficients_count_paths_by_length(seed):
    net, arcs = rand_instance(seed, n=8, density=0.3)
    pp = oracles.path_polynomials(net.n, arcs)
    by_vertex = oracles.paths_ending_at(net.n, arcs)
    for v in range(1, net.n + 1):
        lengths = {}
        for p in by_vertex[v - 1]:
            lengths[len(p) - 1] = lengths.get(len(p) - 1, 0) + 1
        expect = tuple(lengths.get(k, 0)
                       for k in range(max(lengths) + 1)) if lengths else ()
        assert pp.p_minus[v - 1] == expect
        assert sum(pp.p_minus[v - 1]) == len(by_vertex[v - 1])


@pytest.mark.parametrize("alpha", [1.0, 0.75, 0.5, 0.25])
def test_path_polynomials_match_exact_aging(diamond, alpha):
    nets = [diamond] + [random_dag(6 + seed % 7, 0.35, seed)
                        for seed in range(20)]
    a = Fraction(alpha)
    for net in nets:
        std = standardize(net)
        res = aged_path_counts(std, alpha, "exact")
        pp = oracles.path_polynomials(net.n, arcs_of(net))
        minus = [sum(c * a**k for k, c in enumerate(p))
                 for p in pp.p_minus[:net.n]]
        plus = [sum(c * a**k for k, c in enumerate(p))
                for p in pp.p_plus[:net.n]]
        # every vertex is linked to s and t: s ends no path, t starts none,
        # and each closes all of them undamped
        minus += [1, sum(minus)]
        plus += [sum(plus), 1]
        assert list(res.vertex) == [x * y for x, y in zip(minus, plus)]
        *arcs, _ = zip(std.base.tails.tolist(),
                       std.base.heads.tolist())
        assert list(res.arc) == [minus[u - 1] * plus[v - 1]
                                 for u, v in arcs] + [sum(minus[:net.n])]
        assert res.total_flow == sum(minus[:net.n]) == sum(plus[:net.n])


@pytest.mark.parametrize("mode", ["float", "exact", "log"])
def test_aged_alpha_one_reproduces_spnp(diamond, mode):
    std = standardize(diamond)
    aged = aged_path_counts(std, 1.0, mode)
    plain = spnp(std, mode)
    assert list(aged.arc) == list(plain.arc)
    assert list(aged.vertex) == list(plain.vertex)
    assert aged.total_flow == plain.total_flow
    assert aged.alpha == 1.0 and aged.arc.mode == mode


def test_aged_half_on_chain(chain3):
    res = aged_path_counts(standardize(chain3), 0.5)
    assert close(res.total_flow, 4.25)
    assert close(res.arc[0], 1.5)   # first link
    assert close(res.arc[-1], 4.25)  # closing arc carries the total
    exact = aged_path_counts(standardize(chain3), 0.5, "exact")
    assert exact.total_flow == Fraction(17, 4)
    assert exact.arc[0] == Fraction(3, 2) and exact.arc[-1] == Fraction(17, 4)


def _values(res):
    return list(res.arc) + list(res.vertex) + [res.total_flow]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("alpha", [0.5, 0.3])
def test_aged_modes_agree(seed, alpha):
    net, _ = rand_instance(seed, n=12, density=0.35)
    std = standardize(net)
    flt = _values(aged_path_counts(std, alpha, "float"))
    for e, f in zip(_values(aged_path_counts(std, alpha, "exact")), flt):
        assert isinstance(e, (int, Fraction))
        assert math.isclose(float(e), f, rel_tol=1e-12)
    for g, f in zip(_values(aged_path_counts(std, alpha, "log")), flt):
        assert math.isclose(math.exp(g), f, rel_tol=1e-9)


def test_aged_overflow_raises():
    std = standardize(complete_acyclic(1200))
    with pytest.raises(WeightOverflowError):
        spnp(std, "float")
    with pytest.raises(WeightOverflowError):
        aged_path_counts(std, 1.0)
    assert math.isfinite(aged_path_counts(std, 1.0, "log").total_flow)


def test_aged_alpha_range(diamond):
    std = standardize(diamond)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            aged_path_counts(std, bad)
    with pytest.raises(ValueError):
        aged_path_counts(std, 0.5, "double")


def test_aged_small_alpha_flattens(diamond):
    res = aged_path_counts(standardize(diamond), 1e-9)
    for v in list(res.arc)[:4]:
        assert abs(v - 1.0) < 1e-6


# --- normalize / log ---

def test_normalize_exact_gives_fractions(diamond):
    res = normalize(spc(standardize(diamond), "exact"))
    assert list(res.arc) == [Fraction(1, 2)] * 4 + [1, 1, 1]
    assert list(res.vertex) == [1, Fraction(1, 2), Fraction(1, 2), 1, 1, 1]
    assert res.normalized
    assert res.total_flow == 2  # raw path count stays on the result


def test_normalize_float(diamond):
    res = normalize(spc(standardize(diamond), "float"))
    assert max(res.arc) == 1.0
    assert min(res.arc) == 0.5


def test_normalize_log_subtracts(diamond):
    res = normalize(spc(standardize(diamond), "log"))
    assert close(res.arc[0], math.log(0.5))
    assert res.arc[-1] == 0.0


def test_normalize_requires_total(diamond):
    with pytest.raises(ValueError):
        normalize(nppc(diamond))


def test_minimal_cut_sums_to_one(chain3):
    res = normalize(spc(standardize(chain3), "exact"))
    for value in list(res.arc)[:chain3.m]:
        assert value == 1  # every chain arc is itself a minimal cut


def test_log_transform_basics(diamond):
    res = log_transform(spc(standardize(diamond), "float"))
    assert close(res.arc[0], 0.0)
    assert close(res.arc[-1], math.log(2.0))
    assert res.floored == ()
    assert close(res.vertex[0], math.log(2.0))


def test_log_transform_flags_zero_arcs():
    # vertex 3 is unreachable from the flow's path structure? build directly:
    from citeflow import ArcWeights, WeightResult
    for mode in ("float", "exact"):
        res = WeightResult("SPC", ArcWeights([4, 0, 2], mode), None, 4)
        out = log_transform(res)
        assert out.floored == (1,)
        floor = math.log(2.0) - 1.0
        assert close(out.arc[1], floor)
        assert out.arc[1] < min(out.arc[0], out.arc[2])


def test_log_transform_rejects_negative():
    from citeflow import ArcWeights, WeightResult
    res = WeightResult("SPC", ArcWeights([-1.0], "float"), None, None)
    with pytest.raises(ValueError):
        log_transform(res)


def test_log_transform_passthrough_on_log_mode(diamond):
    res = spc(standardize(diamond), "log")
    assert log_transform(res) is res


def test_log_transform_keeps_rank_order(seed=4):
    net, _ = rand_instance(seed, n=10, density=0.4)
    res = spnp(standardize(net), "float")
    out = log_transform(res)
    ranks = np.argsort(np.asarray(res.arc.values))
    assert np.array_equal(ranks, np.argsort(np.asarray(out.arc.values)))


# --- overflow ---

def test_float_overflow_raises():
    std = standardize(complete_acyclic(1100))
    with pytest.raises(WeightOverflowError):
        spc(std, "float")
    # the same network is fine in exact and log modes
    assert spc(std, "exact").total_flow == 2 ** 1098
    assert close(spc(std, "log").total_flow, 1098 * math.log(2.0))


# --- ratio invariance under disjoint union ---

def test_component_ratios_survive_disjoint_union(diamond, branch):
    k = diamond.n
    shifted = [(t + k, h + k) for t, h in arcs_of(branch)]
    union = Network(k + branch.n, arcs_of(diamond) + shifted)
    alone = normalize(spc(standardize(diamond), "exact"))
    both = normalize(spc(standardize(union), "exact"))
    for i in range(diamond.m):
        for j in range(diamond.m):
            assert (Fraction(alone.arc[i]) / Fraction(alone.arc[j]) ==
                    Fraction(both.arc[i]) / Fraction(both.arc[j]))
