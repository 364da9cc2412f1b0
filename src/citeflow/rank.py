"""Hub and authority scores via the classic mutual-reinforcement iteration.

In a citation network the arc (u, v) records that v cites u, so the citing
side of every arc is the head and the cited side the tail.  Hubs are strong
citers (review-like documents), authorities are strongly cited ones; the two
roles swap when the network is reversed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, _unique


@dataclass(frozen=True)
class HitsScores:
    """Unit-norm score vectors, indexed by vertex id minus one."""

    hub: np.ndarray
    authority: np.ndarray
    iterations: int
    residual: float
    converged: bool

    def top(self, count: int, kind: str = "authority") -> list[tuple[int, float]]:
        """Best `count` vertices as (id, score), score-descending, id tiebreak."""
        vec = self.authority if kind == "authority" else self.hub
        order = np.argsort(-vec, kind="stable")[:count]  # ties by id
        return [(i + 1, float(vec[i])) for i in order.tolist()]


def hits(net: Network, tolerance: float = 1e-12,
         max_iter: int = 1000) -> HitsScores:
    """Power iteration on the citation structure (multiplicities ignored).

    Each round pulls authority scores across the arcs from the previous
    hub vector and hub scores from the previous authority vector, with a
    unit-norm normalization after each half-step; both vectors start
    uniform.  Computing the pair jointly from the last round (rather than
    chaining the fresh authorities into the hub update) makes reversing
    the network swap the two returned vectors exactly, not just in the
    limit.  Stops once neither vector moved `tolerance` or more in
    Euclidean distance, or after `max_iter` rounds with `converged` left
    False.  Isolated vertices keep score zero.

    On networks whose score problem is genuinely degenerate (several score
    splits fit equally well) the pair can alternate between two such splits
    forever; that comes back as converged=False rather than an arbitrary
    winner.
    """
    if net.m == 0:
        raise ValueError("hub and authority scores need at least one arc")
    n = net.n
    pairs = _unique(net.tails * (n + 1) + net.heads)  # by (tail, head)
    cited = pairs // (n + 1) - 1    # receives authority
    citing = pairs % (n + 1) - 1    # receives hub

    hub = np.ones(n)
    hub /= np.linalg.norm(hub)
    auth = hub.copy()
    residual = np.inf
    for rounds in range(1, max_iter + 1):
        new_auth = np.bincount(cited, hub[citing], n)
        norm = np.linalg.norm(new_auth)
        if norm > 0.0:
            new_auth /= norm
        new_hub = np.bincount(citing, auth[cited], n)
        norm = np.linalg.norm(new_hub)
        if norm > 0.0:
            new_hub /= norm
        residual = max(float(np.linalg.norm(new_auth - auth)),
                       float(np.linalg.norm(new_hub - hub)))
        auth, hub = new_auth, new_hub
        if residual < tolerance:
            return HitsScores(hub, auth, rounds, residual, True)
    return HitsScores(hub, auth, max_iter, residual, False)
