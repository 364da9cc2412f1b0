"""Hub and authority scores (Kleinberg, JACM 46(5), 1999) by Lanczos
iteration (Lanczos 1950).

In a citation network the arc (u, v) records that v cites u, so the citing
side of every arc is the head and the cited side the tail.  Hubs are strong
citers (review-like documents), authorities are strongly cited ones; the two
roles swap when the network is reversed.  Every inner product and norm here
is a numpy reduction: np.linalg.eigh on the small tridiagonal matrix is the
only LAPACK call, and no BLAS call grows with the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network, _unique

_BASIS = 64  # Lanczos vectors kept; a longer run restarts from its Ritz vector


@dataclass(frozen=True)
class HitsScores:
    """Unit-norm score vectors, indexed by vertex id minus one."""

    hub: np.ndarray
    authority: np.ndarray
    iterations: int
    residual: float
    converged: bool

    def top(self, count: int, kind: str = "authority") -> list[tuple[int, float]]:
        """Best `count` vertices as (id, score), score-descending, id tiebreak;
        `kind` is "authority" or "hub"."""
        if count < 0:
            raise ValueError(f"count must be at least 0, got {count}")
        if kind not in ("authority", "hub"):
            raise ValueError(f"kind must be 'authority' or 'hub', got {kind!r}")
        vec = self.authority if kind == "authority" else self.hub
        order = np.argsort(-vec, kind="stable")[:count]  # ties by id
        return [(i + 1, float(vec[i])) for i in order.tolist()]


def hits(net: Network, tolerance: float = 1e-12,
         max_iter: int = 1000) -> HitsScores:
    """Hub and authority scores (multiplicities ignored), unit-norm vectors.

    With A the distinct (citing, cited) pairs, the authorities are the
    uniform vector's projection onto the dominant eigenspace of AᵀA (the
    limit of the classic power iteration) and the hubs that of AAᵀ.  Each
    comes from a Lanczos run that stops after `max_iter` Krylov steps or once
    its relative eigen-residual ‖Mx − θx‖/θ is below `tolerance`;
    `iterations` counts the steps of the longer run.  Pulled across the arcs
    once, each vector is the iteration's other (odd-round) chain.  When
    several score splits fit equally well the chains differ and the
    iteration alternates forever: a pulled vector farther than
    sqrt(`tolerance`) from the other run's gives converged=False, with that
    distance as `residual`.  Vertices nobody cites get no authority and
    vertices citing nothing no hub, exactly.  One code serves both runs, so
    reversing the network swaps the two vectors exactly.
    """
    if net.m == 0:
        raise ValueError("hub and authority scores need at least one arc")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n = net.n
    pairs = _unique(net.tails * (n + 1) + net.heads)  # by (tail, head)
    cited = pairs // (n + 1) - 1    # receives authority
    citing = pairs % (n + 1) - 1    # receives hub

    auth, auth_res, auth_steps = _lanczos(cited, citing, n, tolerance, max_iter)
    hub, hub_res, hub_steps = _lanczos(citing, cited, n, tolerance, max_iter)
    residual = max(auth_res, hub_res)
    split = max(_norm(_unit(np.bincount(cited, hub[citing], n)) - auth),
                _norm(_unit(np.bincount(citing, auth[cited], n)) - hub))
    if split >= math.sqrt(tolerance):  # the two chains disagree
        residual = max(residual, split)
    return HitsScores(hub, auth, max(auth_steps, hub_steps), residual,
                      residual < tolerance)


def _lanczos(into, out_of, n, tolerance, max_iter):
    """(unit vector, relative eigen-residual, steps) of the dominant
    eigenvector of M = BᵀB, B x = bincount(out_of, x[into]), by Lanczos
    from the uniform vector, reorthogonalized (Gram-Schmidt, twice) against
    a basis allocated once, whose rows are touched only when used.  Stops on
    the estimate β|s_k| of the top Ritz pair's residual, or on β at rounding
    level (an invariant Krylov space)."""
    def apply(x):
        return np.bincount(into, np.bincount(out_of, x[into], n)[out_of], n)

    basis = np.empty((min(max_iter, _BASIS), n))
    x = np.full(n, 1.0 / math.sqrt(n))
    steps, done = 0, False
    while not done:  # a restart begins from the last Ritz vector
        basis[0] = x / _norm(x)
        alpha, beta = [], []
        for k in range(1, len(basis) + 1):
            w = apply(basis[k - 1])
            coef = np.zeros(k)
            for _ in range(2):
                c = np.einsum("kn,n->k", basis[:k], w)
                w -= np.einsum("k,kn->n", c, basis[:k])
                coef += c
            alpha.append(coef[-1])
            beta.append(_norm(w))
            theta, vecs = np.linalg.eigh(
                np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
            s = vecs[:, -1] if vecs[0, -1] >= 0 else -vecs[:, -1]
            steps += 1
            done = (steps == max_iter or beta[-1] <= 1e-13 * theta[-1]
                    or beta[-1] * abs(s[-1]) < tolerance * theta[-1])
            if done or k == len(basis):
                break
            basis[k] = w / beta[-1]
        x = np.maximum(np.einsum("k,kn->n", s, basis[:k]), 0.0)
    pulled = apply(x)
    return _unit(pulled), _norm(pulled - theta[-1] * x) / float(theta[-1]), steps


def _norm(x: np.ndarray) -> float:
    return math.sqrt(np.einsum("n,n->", x, x))


def _unit(x: np.ndarray) -> np.ndarray:
    norm = _norm(x)
    return x / norm if norm > 0.0 else x
