import math

import numpy as np
import pytest

import citeflow.rank as rank_mod
from citeflow import HitsScores, Network, hits, random_dag

from conftest import arcs_of
from oracles import hits_reference

# distance allowed between the Lanczos scores and the power iteration's
# limit: both stop at residuals near 1e-12, and the top two eigenvalues of
# the slowest network here, about 1% apart, make that vector errors near 1e-10
POWER_LIMIT = 1e-9


def test_star_closed_form():
    # one paper cited by five others
    net = Network(6, [(1, j) for j in range(2, 7)])
    scores = hits(net)
    assert scores.converged
    assert abs(scores.authority[0] - 1.0) < 1e-12
    assert np.all(np.abs(scores.authority[1:]) < 1e-12)
    assert abs(scores.hub[0]) < 1e-12
    share = 1.0 / math.sqrt(5.0)
    assert np.all(np.abs(scores.hub[1:] - share) < 1e-12)


def test_single_arc():
    net = Network(2, [(1, 2)])
    scores = hits(net)
    assert scores.converged
    assert scores.authority.tolist() == [1.0, 0.0]
    assert scores.hub.tolist() == [0.0, 1.0]


def test_hub_sits_on_the_citing_side():
    # arc (u, v) records that v cites u
    net = Network(3, [(1, 3), (2, 3)])
    scores = hits(net)
    assert scores.hub[2] == 1.0
    assert scores.authority[2] == 0.0


def test_unit_norm_every_iteration():
    net = random_dag(12, 0.4, seed=8)
    for cap in (1, 2, 3, 7):
        scores = hits(net, max_iter=cap)
        assert abs(np.linalg.norm(scores.hub) - 1.0) < 1e-12
        assert abs(np.linalg.norm(scores.authority) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_reversal_duality_is_bit_exact(seed):
    net = random_dag(14, 0.3, seed)
    if net.m == 0:
        pytest.skip("no arcs")
    fwd = hits(net)
    rev = hits(net.reverse())
    assert np.array_equal(rev.hub, fwd.authority)
    assert np.array_equal(rev.authority, fwd.hub)
    assert rev.iterations == fwd.iterations
    assert rev.converged == fwd.converged


def test_duality_holds_on_cyclic_networks():
    net = Network(4, [(1, 2), (2, 3), (3, 1), (1, 4), (4, 2)])
    fwd = hits(net)
    rev = hits(net.reverse())
    assert np.array_equal(rev.hub, fwd.authority)
    assert np.array_equal(rev.authority, fwd.hub)


def test_arc_multiplicity_is_ignored():
    simple = Network(3, [(1, 2), (1, 3), (2, 3)])
    multi = Network(3, [(1, 2), (1, 2), (1, 3), (2, 3), (2, 3)])
    a, b = hits(simple), hits(multi)
    assert np.array_equal(a.hub, b.hub)
    assert np.array_equal(a.authority, b.authority)


@pytest.mark.parametrize("seed", range(8))
def test_matches_the_scatter_reference_bit_for_bit(seed):
    # a multigraph with parallel arcs, loops, cycles and isolated vertices;
    # the scores match the power iteration run to convergence within
    # POWER_LIMIT (the name is kept so the test ids stay)
    rng = np.random.default_rng(seed)
    n, m = 60, 150
    tails = rng.integers(1, n - 4, m)  # the last vertices stay isolated
    heads = rng.integers(1, n - 4, m)
    net = Network.from_arrays(n, np.r_[tails, tails[:20]],
                              np.r_[heads, heads[:20]])
    got = hits(net)
    hub, auth, _, _, converged = hits_reference(net, max_iter=100_000)
    assert got.converged and converged
    assert np.abs(got.hub - hub).max() < POWER_LIMIT
    assert np.abs(got.authority - auth).max() < POWER_LIMIT
    assert np.all(got.hub[-4:] == 0.0) and np.all(got.authority[-4:] == 0.0)
    capped = hits(net, max_iter=7)
    assert (capped.iterations, capped.converged) == (7, False)


def test_degenerate_tie_reports_not_converged(diamond):
    # two equal-strength score splits; the rotation never settles, and
    # returning either split as "converged" would be arbitrary
    scores = hits(diamond, max_iter=50)
    assert not scores.converged
    assert scores.residual > 0.1
    assert abs(np.linalg.norm(scores.hub) - 1.0) < 1e-12


def _fields(seed, fields=4, size=150, refs=5, lookback=50):
    """Citation-like arcs in `fields` blocks that never cite each other: in
    time order each vertex cites about `refs` of the `lookback` vertices
    before it in its block.  The blocks' top singular values lie close
    together, which slows the power iteration down."""
    rng = np.random.default_rng(seed)
    v = np.arange(1, fields * size + 1)
    window = np.repeat(np.minimum((v - 1) % size, lookback), refs)
    heads = np.repeat(v, refs)
    back = (rng.random(len(heads)) * window).astype(np.int64) + 1
    keep = window > 0
    return Network.from_arrays(len(v), heads[keep] - back[keep], heads[keep])


def test_converges_where_the_power_iteration_needs_many_rounds():
    net = _fields(seed=0)
    assert not hits_reference(net)[4]  # 1000 rounds are not enough
    hub, auth, rounds, _, converged = hits_reference(net, max_iter=100_000)
    assert converged and rounds > 1000
    scores = hits(net)
    assert scores.converged and scores.iterations < 100
    assert np.abs(scores.hub - hub).max() < POWER_LIMIT
    assert np.abs(scores.authority - auth).max() < POWER_LIMIT
    rev = hits(net.reverse())
    assert rev.converged
    assert np.abs(rev.hub - auth).max() < POWER_LIMIT
    assert np.abs(rev.authority - hub).max() < POWER_LIMIT


def test_a_full_basis_restarts_from_the_ritz_vector(monkeypatch):
    monkeypatch.setattr(rank_mod, "_BASIS", 8)
    net = _fields(seed=0)
    hub, auth, _, _, _ = hits_reference(net, max_iter=100_000)
    scores = hits(net)
    assert scores.converged and scores.iterations > 8
    assert np.abs(scores.hub - hub).max() < POWER_LIMIT
    assert np.abs(scores.authority - auth).max() < POWER_LIMIT


def test_chain_converges():
    scores = hits(Network(3, [(1, 2), (2, 3)]))
    assert scores.converged
    assert scores.iterations <= 5


def test_loose_tolerance_converges_faster():
    net = random_dag(15, 0.4, seed=3)
    tight = hits(net, tolerance=1e-12)
    loose = hits(net, tolerance=1e-3)
    assert loose.iterations <= tight.iterations
    assert loose.converged


def test_needs_an_arc():
    with pytest.raises(ValueError):
        hits(Network(3, []))


def test_top_ranks_by_score_then_id():
    net = Network(4, [(1, 4), (2, 4), (3, 4)])
    scores = hits(net)
    ranked = scores.top(3, kind="authority")
    assert [v for v, _ in ranked] == [1, 2, 3]
    assert ranked[0][1] == pytest.approx(1.0 / math.sqrt(3.0))
    assert scores.top(1, kind="hub") == [(4, pytest.approx(1.0))]


@pytest.mark.parametrize("seed", range(10))
def test_top_matches_a_python_sort(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    # few distinct values, both signed zeros among them
    vec = rng.choice([0.0, -0.0, 0.25, 0.5, 1 / 3, 1.0], size=n)
    scores = HitsScores(vec, vec[::-1].copy(), 1, 0.0, True)
    for kind in ("authority", "hub"):
        v = scores.authority if kind == "authority" else scores.hub
        want = sorted(range(n), key=lambda i: (-v[i], i))
        for count in (0, 1, n // 2, n, n + 3):
            got = scores.top(count, kind)
            assert got == [(i + 1, float(v[i])) for i in want[:count]]
            assert [math.copysign(1, s) for _, s in got] == \
                [math.copysign(1, v[i]) for i in want[:count]]


def test_top_rejects_a_negative_count_and_an_unknown_kind(diamond):
    scores = hits(diamond)
    with pytest.raises(ValueError):
        scores.top(-1)
    for kind in ("authorities", "hubs", "Hub", ""):
        with pytest.raises(ValueError):
            scores.top(2, kind)


def test_needs_a_step():
    with pytest.raises(ValueError):
        hits(Network(2, [(1, 2)]), max_iter=0)


def test_weaker_components_score_zero_not_below():
    # disjoint stars of 5, 3 and 2 citers: the limit puts all authority on
    # the largest star's center, and rounding must not push the rest below 0
    net = Network(13, [(1, j) for j in range(2, 7)]
                  + [(7, j) for j in range(8, 11)] + [(11, 12), (11, 13)])
    scores = hits(net)
    assert scores.converged
    assert np.all(scores.hub >= 0.0) and np.all(scores.authority >= 0.0)
    assert abs(scores.authority[0] - 1.0) < 1e-12
    assert np.all(scores.authority[1:] < 1e-12)
    assert np.all(np.abs(scores.hub[1:6] - 1.0 / math.sqrt(5.0)) < 1e-12)


def test_scores_are_nonnegative():
    net = random_dag(20, 0.25, seed=11)
    if net.m:
        scores = hits(net)
        assert np.all(scores.hub >= 0.0)
        assert np.all(scores.authority >= 0.0)
