import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import citeflow.extract as extract_mod
from citeflow import (MODES, ArcWeights, Network, WeightOverflowError,
                      arc_cut, cpm_path, format_number, islands, main_path,
                      normalize, nppc, parse_pajek, random_dag, spc, splc,
                      spnp, standardize, write_subnetwork)
from citeflow.extract import _tied

import oracles
from conftest import (arcs_of, cpm_overflow_net, rand_instance,
                      random_multigraph)


def spc_setup(net):
    std = standardize(net)
    return std, spc(std, "exact")


# --- main path ---

def test_main_path_branches_at_ties(branch):
    std, res = spc_setup(branch)
    sub = main_path(std, res.arc)
    assert sorted(sub.vertices) == [1, 2, 3, 4]
    assert [arcs_of(branch)[i] for i in sub.arcs] == \
        [(1, 2), (2, 3), (2, 4), (3, 4)]
    assert sub.kind == "main_path"


def test_main_path_single_breaks_ties_low(branch):
    std, res = spc_setup(branch)
    sub = main_path(std, res.arc, single=True)
    assert [arcs_of(branch)[i] for i in sub.arcs] == \
        [(1, 2), (2, 3), (3, 4)]


def test_main_path_strips_source_and_sink(diamond):
    std, res = spc_setup(diamond)
    sub = main_path(std, res.arc)
    assert std.s not in sub.vertices
    assert std.t not in sub.vertices
    assert all(i < diamond.m for i in sub.arcs)


def test_main_path_float_tie_tolerance():
    net = Network(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    std = standardize(net)
    w = list(spc(std, "float").arc)
    w[0] *= 1.0 + 1e-14  # still a tie at the documented tolerance
    sub = main_path(std, ArcWeights(w, "float"))
    assert len(sub.arcs) == 4
    w[0] *= 1.0 + 1e-9   # now a real winner
    sub = main_path(std, ArcWeights(w, "float"))
    assert [arcs_of(net)[i] for i in sub.arcs] == [(1, 2), (2, 4)]


@pytest.mark.parametrize("seed", range(10))
def test_main_path_vertices_lie_on_kept_arcs(seed):
    net, arcs = rand_instance(seed, n=10, density=0.3)
    std, res = spc_setup(net)
    sub = main_path(std, res.arc)
    touched = set()
    for i in sub.arcs:
        touched.update(arcs[i])
    # single-vertex paths happen when the net has no arcs at all
    if sub.arcs:
        assert sub.vertices <= touched | sub.vertices
        for v in sub.vertices:
            incident = any(v in arcs[i] for i in sub.arcs)
            assert incident or net.m == 0


def test_main_path_with_closure_weights(diamond):
    # weight vectors computed on the plain network get padded with zeros
    std = standardize(diamond)
    res = nppc(diamond)
    sub = main_path(std, res.arc)
    assert sorted(sub.vertices) == [1, 2, 3, 4]


def test_main_path_rejects_misaligned_weights(diamond):
    std = standardize(diamond)
    with pytest.raises(ValueError):
        main_path(std, ArcWeights([1.0, 2.0], "float"))


def _tie_weights(rng, std, mode, kind):
    """Main-path weights of one `kind` in `mode` for std's network."""
    net = Network.from_arrays(std.net.n, std.base.tails[:std.net.m],
                              std.base.heads[:std.net.m])
    if kind == "spc":
        return spc(std, mode).arc
    if kind == "closure":  # on the original arcs: every s-arc ties at 0
        vals = nppc(net).arc.values
        if mode == "exact":
            return ArcWeights(vals, "exact")
        vals = np.array(vals, dtype=np.float64) * 1e3
        return ArcWeights(np.log(vals) if mode == "log" else vals, mode)
    # few distinct values, so most runs tie; float ties within tolerance
    vals = rng.integers(0, 4, size=std.base.m)
    if mode == "exact":
        return ArcWeights([Fraction(int(v), 2) if v % 2 else int(v)
                           for v in vals], "exact")
    vals = vals * (1.0 + 1e-14 * rng.integers(-1, 2, size=len(vals)))
    with np.errstate(divide="ignore"):
        return ArcWeights(np.log(vals) if mode == "log" else vals, mode)


@pytest.mark.parametrize("kind", ["spc", "rounded", "closure"])
@pytest.mark.parametrize("mode", ["float", "exact", "log"])
@pytest.mark.parametrize("seed", range(20))
def test_main_path_matches_the_frontier_loop(seed, mode, kind):
    rng = np.random.default_rng(seed)
    net = random_dag(int(rng.integers(1, 30)), rng.uniform(0.05, 0.6), seed)
    dup = rng.integers(0, net.m, size=min(net.m, 3))  # parallel arcs
    net = Network.from_arrays(net.n, np.r_[net.tails, net.tails[dup]],
                              np.r_[net.heads, net.heads[dup]])
    std = standardize(net)
    w = _tie_weights(rng, std, mode, kind)
    for single in (False, True):
        sub = main_path(std, w, single)
        assert (sub.arcs, sub.vertices) == \
            oracles.main_path_reference(std, w, single)


@pytest.mark.parametrize("single", [False, True])
def test_zero_weights_tie_in_every_mode(branch, single):
    std = standardize(branch)
    m = std.base.m
    zeros = [ArcWeights(np.zeros(m), "float"), ArcWeights([0] * m, "exact"),
             ArcWeights(np.full(m, -np.inf), "log")]  # ln 0 ties as 0 does
    paths = [main_path(std, w, single) for w in zeros]
    assert len({(p.arcs, p.vertices) for p in paths}) == 1
    assert len(paths[0].arcs) == (3 if single else branch.m)
    cpms = [cpm_path(std, w) for w in zeros]
    assert {(p.arcs, p.vertices) for p in cpms} == \
        {(tuple(range(branch.m)), frozenset(range(1, 5)))}


@pytest.mark.parametrize("a, b, mode, tied", [
    (0.0, -math.inf, "log", False), (5.0, math.inf, "float", False),
    (-math.inf, 1e300, "float", False), (math.inf, math.inf, "float", True)])
def test_an_infinity_ties_only_with_itself(a, b, mode, tied):
    assert bool(_tied(a, b, mode)) is tied
    assert bool(_tied(np.array([b]), a, mode)[0]) is tied


def test_main_path_leaves_a_zero_weight_arc_in_log_mode():
    net = Network(3, [(1, 2), (1, 3)])
    std = standardize(net)
    ones = np.ones(std.base.m)
    ones[0] = 0
    for mode in MODES:
        vals = ones.tolist() if mode == "exact" else ones
        with np.errstate(divide="ignore"):
            w = ArcWeights(np.log(vals) if mode == "log" else vals, mode)
        assert main_path(std, w).arcs == (1,)


@pytest.mark.parametrize("seed", range(20))
def test_main_path_on_zero_weights_agrees_across_modes(seed):
    # integer levels with zeros: ln 0 = -inf must not tie with ln 1 = 0
    rng = np.random.default_rng(seed)
    std = standardize(random_dag(int(rng.integers(2, 30)), 0.3, seed))
    level = rng.integers(0, 3, size=std.base.m)
    with np.errstate(divide="ignore"):
        ws = [ArcWeights(level.tolist(), "exact"),
              ArcWeights(level.astype(float), "float"),
              ArcWeights(np.log(level), "log")]
    for single in (False, True):
        want = oracles.main_path_reference(std, ws[0], single)
        for w in ws:
            sub = main_path(std, w, single)
            assert (sub.arcs, sub.vertices) == want
            assert want == oracles.main_path_reference(std, w, single)


# --- critical path ---

def test_cpm_unique_path(branch):
    std, res = spc_setup(branch)
    sub = cpm_path(std, res.arc)
    assert [arcs_of(branch)[i] for i in sub.arcs] == \
        [(1, 2), (2, 3), (3, 4)]
    assert sorted(sub.vertices) == [1, 2, 3, 4]
    assert sub.kind == "cpm_path"


def test_float_cpm_raises_when_path_totals_overflow():
    net, e = cpm_overflow_net()
    std = standardize(net)
    with pytest.raises(WeightOverflowError, match="path totals"):
        cpm_path(std, spc(std, "float").arc)
    log, exact = (cpm_path(std, spc(std, m).arc) for m in ("log", "exact"))
    assert (log.arcs, log.vertices) == (exact.arcs, exact.vertices)
    assert (len(exact.arcs), len(exact.vertices)) == (4087, 3067)
    assert e not in exact.vertices


def test_cpm_keeps_all_optimal_paths(diamond):
    std, res = spc_setup(diamond)
    sub = cpm_path(std, res.arc)  # the two routes tie
    assert len(sub.arcs) == 4
    assert sorted(sub.vertices) == [1, 2, 3, 4]


@pytest.mark.parametrize("seed", range(12))
def test_cpm_matches_enumeration(seed):
    net, arcs = rand_instance(seed, n=9, density=0.3)
    std, res = spc_setup(net)
    best, arc_union, vert_union = oracles.cpm_oracle(
        net.n, arcs, list(res.arc))
    sub = cpm_path(std, res.arc)
    assert set(sub.arcs) == {i for i in arc_union if i < net.m}
    assert sub.vertices == vert_union


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", ["float", "dyadic", "exact"])
def test_cpm_matches_enumeration_on_random_weights(seed, kind):
    # float: ties improbable; dyadic floats and exact ints: ties frequent
    net, arcs = rand_instance(seed, n=9, density=0.35)
    std = standardize(net)
    rng = np.random.default_rng(seed)
    if kind == "float":
        w = ArcWeights(rng.random(std.base.m), "float")
    elif kind == "dyadic":
        w = ArcWeights(rng.integers(1, 5, std.base.m) / 4.0, "float")
    else:
        w = ArcWeights(rng.integers(1, 4, std.base.m).tolist(), "exact")
    best, arc_union, vert_union = oracles.cpm_oracle(net.n, arcs, list(w))
    sub = cpm_path(std, w)
    assert set(sub.arcs) == {i for i in arc_union if i < net.m}
    assert sub.vertices == vert_union


@pytest.mark.parametrize("mode", ["exact", "log"])
def test_cpm_totals_in_chunks(monkeypatch, mode):
    for seed in range(8):
        net = random_dag(15, 0.4, seed)
        std = standardize(net)
        w = spc(std, mode).arc
        whole = cpm_path(std, w)
        monkeypatch.setattr(extract_mod, "_CHUNK", 3)
        part = cpm_path(std, w)
        monkeypatch.undo()
        assert (part.arcs, part.vertices) == (whole.arcs, whole.vertices)
        assert part.arcs == tuple(sorted(part.arcs))


@pytest.mark.parametrize("seed", range(12))
def test_cpm_dominates_greedy_branches(seed):
    net, arcs = rand_instance(seed, n=10, density=0.35)
    std, res = spc_setup(net)
    w = list(res.arc)
    cpm_total = max(sum(w[i] for i in p)
                    for p in oracles.enumerate_st_paths(net.n, arcs)[3])
    # walk one greedy chain, always taking the smallest tied head
    sub = main_path(std, res.arc, single=True)
    greedy_total = sum(w[i] for i in sub.arcs)
    assert greedy_total <= cpm_total


# --- tiny networks: the s and t arcs are seeds and closing reductions ---

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n, arcs, main, single, cpm", [
    (0, [], set(), set(), set()),
    (3, [], {1, 2, 3}, {1}, {1, 2, 3}),
    (2, [(1, 2)], {1, 2}, {1, 2}, {1, 2}),
    (3, [(1, 2)], {1, 2, 3}, {1, 2}, {1, 2}),
], ids=["empty", "isolated", "single-arc", "arc-and-isolated"])
def test_extractors_on_tiny_networks(n, arcs, main, single, cpm, mode):
    net = Network(n, arcs)
    std = standardize(net)
    w = spc(std, mode).arc
    kept = tuple(range(net.m))  # every arc lies on each reported path
    for flag, verts in ((False, main), (True, single)):
        sub = main_path(std, w, single=flag)
        assert (sub.arcs, sub.vertices) == (kept, verts)
        assert (sub.arcs, sub.vertices) == oracles.main_path_reference(
            standardize(net), w, single=flag)
    sub = cpm_path(std, w)
    assert (sub.arcs, sub.vertices) == (kept, cpm)
    if n:
        _, arc_union, vert_union = oracles.cpm_oracle(
            n, arcs, list(spc(std, "exact").arc))
        assert (set(sub.arcs), sub.vertices) == (
            {i for i in arc_union if i < net.m}, vert_union)


# --- arc cut ---

def test_arc_cut_threshold_and_components(branch):
    std, res = spc_setup(branch)
    w = list(res.arc)[:branch.m]
    sub = arc_cut(branch, w, 2)
    assert [arcs_of(branch)[i] for i in sub.arcs] == [(1, 2), (3, 4)]
    assert sub.components == (frozenset({1, 2}), frozenset({3, 4}))
    assert sub.kind == "arc_cut"


def test_arc_cut_monotone_in_threshold(branch):
    std, res = spc_setup(branch)
    w = list(res.arc)[:branch.m]
    previous = None
    for threshold in (0, 1, 2, 3):
        arcs = set(arc_cut(branch, w, threshold).arcs)
        if previous is not None:
            assert arcs <= previous
        previous = arcs


def test_arc_cut_drops_isolated_vertices(diamond):
    sub = arc_cut(diamond, [1, 0, 0, 1], 1)
    assert sub.vertices == {1, 2, 3, 4}
    sub = arc_cut(diamond, [1, 0, 0, 0], 1)
    assert sub.vertices == {1, 2}


def test_arc_cut_length_check(diamond):
    with pytest.raises(ValueError):
        arc_cut(diamond, [1, 2], 1)


def test_log_cut_keeps_the_arc_at_the_threshold():
    # T is one arc's exact normalized weight; that arc's log-mode share can
    # lie below ln T in the last bits, but it ties with ln T and is kept
    below = 0
    for seed in range(6):
        net = random_dag(12, 0.4, seed)
        std = standardize(net)
        share = normalize(spc(std, "exact")).arc.values[:net.m]
        logs = normalize(spc(std, "log")).arc.values[:net.m]
        for i in range(net.m):
            T = math.log(share[i])
            got = arc_cut(net, ArcWeights(logs, "log"), T).arcs
            assert got == tuple(np.flatnonzero(share >= share[i]).tolist())
            below += bool(logs[i] < T)
    assert below  # without ties, those arcs would be dropped


# --- subnetwork materialization ---

def test_to_network_renumbers_and_keeps_labels():
    net = Network(5, [(2, 4, 3.0), (4, 5, 1.0)], list("abcde"))
    sub = arc_cut(net, [3.0, 1.0], 2.0)
    dense = sub.to_network()
    assert dense.n == 2
    assert arcs_of(dense) == [(1, 2)]
    assert dense.label(1) == "b"
    assert dense.label(2) == "d"


def test_write_subnetwork_round_trips(branch):
    std, res = spc_setup(branch)
    sub = main_path(std, res.arc)
    text = write_subnetwork(sub, res.arc)
    back = parse_pajek(text)
    assert back.n == len(sub.vertices)
    assert back.m == len(sub.arcs)


def test_write_subnetwork_writes_the_picked_values_as_given(branch):
    std, res = spc_setup(branch)
    sub = main_path(std, res.arc)
    assert sub.arcs == (0, 2, 3, 4)
    plain = [2**64 + 3, 0.1, Fraction(1, 3), 7, 1e300, -0.0, 4, 2.5]
    assert len(plain) == std.base.m  # as long as the standardized arc list
    mixed = [2**62 + 1, 0.5] * 4  # np.asarray would round it to float64
    for weights in (res.arc, np.arange(len(plain)) / 2, plain, mixed):
        text = write_subnetwork(sub, weights)
        got = [line.split()[2]
               for line in text.split("*Arcs\n")[1].splitlines()]
        assert got == [format_number(weights[i]) for i in sub.arcs]


# --- islands ---

def test_islands_hand_case():
    net = Network(4, [(1, 2, 5.0), (3, 4, 4.0), (2, 3, 1.0)])
    out = islands(net, [5, 4, 1], min_size=2, max_size=2)
    got = [(sorted(i.vertices), i.internal_min, i.external_max)
           for i in out.islands]
    assert got == [([1, 2], 5, 1), ([3, 4], 4, 1)]
    assert out.membership(4) == [1, 1, 2, 2]
    assert out.size_frequencies() == {2: 2}


def test_islands_outermost_has_no_external_bar(chain3):
    out = islands(chain3, [2.0, 1.0], min_size=2, max_size=3)
    assert len(out.islands) == 1
    isl = out.islands[0]
    assert sorted(isl.vertices) == [1, 2, 3]
    assert isl.internal_min == 1.0
    assert isl.external_max is None


def test_islands_respect_size_cap(chain3):
    out = islands(chain3, [2.0, 1.0], min_size=2, max_size=2)
    assert [sorted(i.vertices) for i in out.islands] == [[1, 2]]
    assert out.islands[0].external_max == 1.0


def test_islands_ignore_loops_and_untouched_vertices():
    net = Network(5, [(1, 1, 9.0), (2, 3, 2.0)])
    out = islands(net, [9.0, 2.0], min_size=2, max_size=5)
    assert [sorted(i.vertices) for i in out.islands] == [[2, 3]]
    assert out.membership(5) == [0, 1, 1, 0, 0]


def test_islands_equal_weight_group_merges_as_one():
    net = Network(3, [(1, 2, 1.0), (2, 3, 1.0)])
    out = islands(net, [1.0, 1.0], min_size=2, max_size=3)
    assert [sorted(i.vertices) for i in out.islands] == [[1, 2, 3]]


def test_islands_validation(chain3):
    with pytest.raises(ValueError):
        islands(chain3, [1.0], min_size=2)
    with pytest.raises(ValueError):
        islands(chain3, [1.0, 2.0], min_size=0)
    with pytest.raises(ValueError):
        islands(chain3, [1.0, 2.0], min_size=3, max_size=2)


def test_islands_are_pairwise_disjoint():
    for seed in range(15):
        net = random_dag(11, 0.3, seed)
        rng = np.random.default_rng(seed + 1000)
        w = rng.integers(1, 6, size=net.m).tolist()
        out = islands(net, w, min_size=2, max_size=6)
        seen = set()
        for isl in out.islands:
            assert not (isl.vertices & seen)
            seen |= isl.vertices


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("bounds", [(2, 12), (2, 4), (3, 6)])
def test_islands_match_brute_force(seed, bounds):
    k, kmax = bounds
    net = random_dag(9, 0.35, seed)
    if net.m == 0:
        pytest.skip("no arcs")
    rng = np.random.default_rng(seed + 77)
    # small integer weights force plenty of ties
    w = rng.integers(1, 5, size=net.m).tolist()
    got = {isl.vertices for isl in
           islands(net, w, min_size=k, max_size=min(kmax, net.n)).islands}
    expect = oracles.brute_islands(net.n, arcs_of(net), w, k,
                                   min(kmax, net.n))
    assert got == expect


def island_case(seed, kind):
    """A `random_multigraph` (loops, parallel arcs, 2-cycles, untouched
    vertices) with weights of few distinct values (heavy ties) in one of
    the representations `islands` accepts.  The near kinds spread each
    value into steps just under (odd values: chains of near ties) or just
    over (even values: no ties) 1e-12 of `_tied`'s scale apart."""
    net = random_multigraph(seed)
    level = np.random.default_rng(seed).integers(0, 4, size=net.m)
    steps = np.random.default_rng(seed + 1).integers(0, 4, size=net.m)
    gap = steps * np.where(level % 2, 0.9e-12, 1.1e-12)
    lin, log = (np.array(x)[level] for x in ([0, .5, 1, 700], [0, .25, 2, 300]))
    with np.errstate(divide="ignore"):  # ln 0 = -inf
        weights = {
            "float": ArcWeights(level * 0.5, "float"),
            "log": ArcWeights(np.log(level), "log"),
            "big": [2**64 + 3 * int(x) for x in level],  # above int64
            "fraction": ArcWeights([Fraction(int(x), 3) for x in level],
                                   "exact"),
            # equal signed zeros: a level is its equal run's first value
            "zeros": [float(x) or (-0.0 if i % 2 else 0.0)
                      for i, x in enumerate(level)],
            "near": ArcWeights(lin * (1 + gap), "float"),
            "near_log": ArcWeights(np.where(
                level == 0, -np.inf, log + gap * np.maximum(1, log)), "log"),
        }
    return net, weights[kind]


def tie_rule(w):
    """`_tied` restated with math.isclose, for the islands oracle."""
    mode = w.mode if isinstance(w, ArcWeights) else "exact"
    if mode == "exact":
        return operator.eq
    floor = 1e-12 if mode == "log" else 0.0
    return lambda a, b: math.isclose(a, b, rel_tol=1e-12, abs_tol=floor)


@pytest.mark.parametrize("kind", ["float", "log", "big", "fraction", "zeros",
                                  "near", "near_log"])
@pytest.mark.parametrize("seed", range(40))
def test_islands_match_the_union_find_scan(seed, kind):
    net, w = island_case(seed, kind)
    for k, kmax in ((1, net.n), (2, 3), (2, max(2, net.n // 2)), (3, 6)):
        got = [(isl.vertices, isl.internal_min, isl.external_max) for isl in
               islands(net, w, min_size=k, max_size=kmax).islands]
        want = oracles.islands_reference(net.n, net.tails, net.heads,
                                         list(w), k, kmax, tie_rule(w))
        assert got == want
        assert repr(got) == repr(want)  # same types and signed zeros
    if kind.startswith("near"):
        return  # the brute force below ties exactly
    kmax = max(2, net.n)
    got = {isl.vertices for isl in islands(net, w, 2, kmax).islands}
    assert got == oracles.brute_islands(net.n, arcs_of(net), list(w), 2, kmax)


@pytest.mark.parametrize("w", [ArcWeights([1.0, math.nan], "float"),
                               ArcWeights([math.nan, -math.inf], "log"),
                               [2.0, math.nan]])
def test_islands_reject_nan_weights(chain3, w):
    with pytest.raises(ValueError, match="NaN"):
        islands(chain3, w)


def test_islands_memory_on_a_million_arcs():
    net = random_dag(2000, 0.5, 2)
    w = ArcWeights(spc(standardize(net), "log").arc.values[:net.m], "log")
    tracemalloc.start()
    try:
        found = islands(net, w, min_size=2, max_size=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.islands
    budget = 10 * 8 * net.m
    assert peak < budget, f"peak {peak / 1e6:.0f}MB over {budget / 1e6:.0f}MB"


def test_islands_sorted_by_strength_then_vertex():
    net = Network(6, [(1, 2, 3.0), (3, 4, 7.0), (5, 6, 3.0)])
    out = islands(net, [3.0, 7.0, 3.0], min_size=2, max_size=2)
    assert [sorted(i.vertices) for i in out.islands] == \
        [[3, 4], [1, 2], [5, 6]]


def test_cpm_maximizes_the_linear_sum_in_every_mode():
    # log weights are ln counts: their totals must add counts, not logs
    differ = []
    for seed in range(300):
        std = standardize(random_dag(40, 0.15, seed))
        want = cpm_path(std, spc(std, "exact").arc)
        for mode in ("float", "log"):
            got = cpm_path(std, spc(std, mode).arc)
            if (got.arcs, got.vertices) != (want.arcs, want.vertices):
                differ.append((seed, mode))
    assert differ == []


def test_cpm_on_deep_log_weights_keeps_every_exact_tie():
    # the log path totals here lie near 600 and carry several ulps of
    # rounding, more than an absolute 1e-12; the log tie rule must allow it
    std = standardize(random_dag(1500, 0.5, 2))
    want = cpm_path(std, spc(std, "exact").arc)
    got = cpm_path(std, spc(std, "log").arc)
    assert len(want.arcs) == 864
    assert (got.arcs, got.vertices) == (want.arcs, want.vertices)


def layered_net(seed, layers=12, width=6):
    """Arcs between every pair of vertices in consecutive layers, shuffled,
    with 5% dropped: log counts that are equal in exact arithmetic are
    summed in different orders and differ in the last bits."""
    rng = np.random.default_rng(seed)
    ids = np.arange(1, layers * width + 1).reshape(layers, width)
    pairs = np.array([(u, v) for a, b in zip(ids[:-1], ids[1:])
                      for u in a for v in b])
    pairs = pairs[rng.permutation(len(pairs))][:len(pairs) * 19 // 20]
    return Network.from_arrays(layers * width, pairs[:, 0], pairs[:, 1])


@pytest.mark.parametrize("method", [spc, splc, spnp])
def test_islands_agree_across_modes(method):
    net = layered_net(0)
    std = standardize(net)
    found = {mode: {isl.vertices: isl for isl in islands(
        net, ArcWeights(method(std, mode).arc.values[:net.m], mode),
        min_size=2, max_size=20).islands} for mode in MODES}
    exact = found["exact"]
    assert exact
    for mode, scale in (("float", float), ("log", math.log)):
        assert found[mode].keys() == exact.keys(), mode
        for verts, isl in found[mode].items():
            want = exact[verts]
            assert _tied(isl.internal_min, scale(want.internal_min), mode)
            assert (isl.external_max is None) == (want.external_max is None)
            if want.external_max is not None:
                assert _tied(isl.external_max, scale(want.external_max), mode)
