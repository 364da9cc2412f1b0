import numpy as np
import pytest

from citeflow import Network, random_dag


def arcs_of(net):
    """Arc list as plain (tail, head) int pairs, in arc-index order."""
    return list(zip(net.tails.tolist(), net.heads.tolist()))


def diamond_chain(k):
    """k diamonds in a row: 2**k source-sink paths."""
    arcs = []
    a = 1
    for _ in range(k):
        arcs += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
        a += 3
    return Network(a, arcs)


def cpm_overflow_net():
    """(network, e): 1021 diamonds in a row, whose SPC counts fit a double,
    ending at a; then a -> b -> d -> c, a -> b -> c and a -> e -> c.  Float
    path totals pass the double range there, and tying them all at inf would
    put e on the critical path."""
    chain = diamond_chain(1021)
    a = chain.n
    b, c, d, e = a + 1, a + 2, a + 3, a + 4
    return Network(e, arcs_of(chain) + [(a, b), (b, c), (b, d), (d, c),
                                        (a, e), (e, c)]), e


def rand_instance(seed, n=8, density=0.3):
    net = random_dag(n, density, seed)
    return net, arcs_of(net)


def random_multigraph(seed):
    """Small digraph with parallels, loops and 2-cycles; weights of mixed
    sign and magnitude so that summation order shows in the low bits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    m = int(rng.integers(0, 40))
    tails = rng.integers(1, n + 1, size=m)
    heads = rng.integers(1, n + 1, size=m)
    pick = rng.random(m)
    heads = np.where(pick < 0.1, tails, heads)  # loops
    back = (pick >= 0.1) & (pick < 0.2)  # reverse an earlier arc
    earlier = rng.integers(0, np.arange(m) + 1)
    tails, heads = (np.where(back, heads[earlier], tails),
                    np.where(back, tails[earlier], heads))
    weights = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 17, size=m)
    labels = [f"v{v}" for v in range(1, n + 1)]
    return Network.from_arrays(n, tails, heads, weights, labels)


@pytest.fixture
def diamond():
    # a cited by b and c, both cited by d
    return Network(4, [(1, 2), (1, 3), (2, 4), (3, 4)],
                   ["a", "b", "c", "d"])


@pytest.fixture
def chain3():
    return Network(3, [(1, 2), (2, 3)])


@pytest.fixture
def branch():
    # two source-sink routes of different strength
    return Network(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
