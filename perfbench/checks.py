"""Output checks.  Each check returns a list of problems; empty means passed.

A CLI command passes when its exit code is the expected one, its manifest's
sha256 records match the files on disk, and every written file parses back
to the expected values.  Expected values come from citeflow called in
process on the same input, or from the independent closure count below.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from gen import longest_levels

REL = 1e-12  # CLI numbers are written with repr, so they read back exactly


# --- readers for the files the CLI writes ---

def read_net(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(n, tails, heads, weights) of .net text whose arc lines have weights."""
    head, _, arcs = text.partition("*Arcs\n")
    n = int(head.split("\n", 1)[0].split()[1])
    cols = np.array(arcs.split(), dtype=np.float64).reshape(-1, 3)
    return n, cols[:, 0].astype(np.int64), cols[:, 1].astype(np.int64), cols[:, 2]


def read_column(text: str) -> np.ndarray:
    """Values of .vec or .clu text, header dropped."""
    return np.array(text.split("\n", 1)[1].split(), dtype=np.float64)


def read_sizes(text: str) -> dict[int, int]:
    """island_sizes.csv as {size: count}, zero counts dropped."""
    rows = (line.split(",") for line in text.splitlines()[1:])
    return {int(s): int(c) for s, c in rows if int(c)}


def read_hits(text: str) -> list[tuple[int, float, int, float]]:
    """(hub id, hub score, authority id, authority score) per hits.csv row.
    Labels in the benchmark's inputs hold no commas or quotes."""
    out = []
    for line in text.splitlines()[1:]:
        f = line.split(",")
        out.append((int(f[1]), float(f[3]), int(f[4]), float(f[6])))
    return out


def read_stats(text: str) -> dict[str, str]:
    """`citeflow stats` table as {statistic: value}."""
    rows = (line.rsplit("  ", 1) for line in text.splitlines() if line.strip())
    return {name.strip(): value.strip() for name, value in rows}


READERS = {"net": read_net, "vec": read_column, "clu": read_column,
           "sizes": read_sizes, "hits": read_hits, "stats": read_stats}


# --- comparisons ---

def close(actual, expected, rel: float = REL) -> bool:
    a = np.asarray(actual, dtype=np.float64)
    b = np.asarray(expected, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b))))


def compare(kind: str, actual, expected) -> str | None:
    """None when `actual` (as read) matches `expected`, else what differs."""
    if kind == "net":
        (n, t, h, w), (en, et, eh, ew) = actual, expected
        if n != en or not np.array_equal(t, et) or not np.array_equal(h, eh):
            return f"arcs differ (n {n} vs {en}, m {len(t)} vs {len(et)})"
        return None if close(w, ew) else "arc weight column differs"
    if kind in ("vec", "clu"):
        return None if close(actual, expected) else f"{kind} values differ"
    if kind == "hits":
        if [(a[0], a[2]) for a in actual] != [(e[0], e[2]) for e in expected]:
            return "ranking ids differ"
        ok = close([(a[1], a[3]) for a in actual],
                   [(e[1], e[3]) for e in expected], 1e-9)
        return None if ok else "scores differ"
    if kind == "stats":
        actual = {name: actual.get(name) for name in expected}
    return None if actual == expected else f"{kind} differs: {actual} vs {expected}"


# --- CLI command outputs ---

def check_manifest(outdir: Path, names: set[str]) -> list[str]:
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    problems = []
    recorded = {rec["path"]: rec["sha256"] for rec in manifest["outputs"]}
    if set(recorded) != names:
        problems.append(f"manifest lists {sorted(recorded)}, expected {sorted(names)}")
    for name, digest in recorded.items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name} listed in manifest but missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name} does not match its manifest sha256")
    return problems


def check_command(code: int, outdir: Path, stdout: Path,
                  expected: dict[str, tuple[str, object]]) -> list[str]:
    """Exit code 0, manifest, and each expected file (or "stdout") read back
    by its kind and compared."""
    if code != 0:
        return [f"exit code {code}"]
    problems = check_manifest(outdir, {f for f in expected if f != "stdout"})
    for name, (kind, want) in expected.items():
        path = stdout if name == "stdout" else outdir / name
        try:
            got = READERS[kind](path.read_text())
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{name} unreadable: {exc}")
            continue
        diff = compare(kind, got, want)
        if diff:
            problems.append(f"{name}: {diff}")
    return problems


# --- independent references for the library session ---

def closure_counts(n: int, tails: np.ndarray, heads: np.ndarray):
    """Ancestors and descendants of every vertex 1..n of a DAG, itself
    included, by word-parallel bitsets over a topological order.  Index 0
    is unused."""
    order = np.argsort(longest_levels(n + 1, tails, heads), kind="stable")
    ids = np.arange(n + 1)
    one = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))

    def sweep(src, dst, seq):
        by_src = np.argsort(src, kind="stable")
        dst = dst[by_src]
        ptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n + 1), out=ptr[1:])
        bits = np.zeros((n + 1, n // 64 + 1), dtype=np.uint64)
        bits[ids, ids >> 6] = one
        for v in seq.tolist():
            nb = dst[ptr[v]:ptr[v + 1]]
            if nb.size:
                bits[v] |= np.bitwise_or.reduce(bits[nb], axis=0)
        return np.bitwise_count(bits).sum(axis=1, dtype=np.int64)

    desc = sweep(tails, heads, order[::-1])
    anc = sweep(heads, tails, order)
    return anc, desc


def log_matches_exact(log_result, exact_result, rel: float = 1e-9) -> list[str]:
    """exp(log) and exact arc weights agree within `rel` (compared as logs)."""
    exact = exact_result.arc.values
    ln_exact = np.fromiter((math.log(x) if x > 0 else -math.inf for x in exact),
                           dtype=np.float64, count=len(exact))
    ln = np.asarray(log_result.arc.values)
    both_zero = np.isneginf(ln) & np.isneginf(ln_exact)
    with np.errstate(invalid="ignore"):
        bad = ~both_zero & ~(np.abs(ln - ln_exact) <= rel)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{int(bad.sum())} arcs differ beyond {rel} relative, "
                f"first arc {i}: ln {ln[i]!r} vs {ln_exact[i]!r}"]
    return []


def kirchhoff(std, exact_result) -> list[str]:
    """Exact-mode flow into every vertex equals the flow out of it and its
    vertex weight (the feedback arc carries the total back to s)."""
    base = std.base
    inflow = [0] * (base.n + 1)
    outflow = [0] * (base.n + 1)
    for w, t, h in zip(exact_result.arc.values, base.tails.tolist(),
                       base.heads.tolist()):
        outflow[t] += w
        inflow[h] += w
    vertex = exact_result.vertex
    bad = [v for v in range(1, base.n + 1)
           if not inflow[v] == outflow[v] == vertex[v - 1]]
    return [f"flow not conserved at {len(bad)} vertices, first {bad[0]}"] if bad else []
