"""One CLI run per numeric mode on drawn multigraphs: the extractors must pick
the same arcs and islands in float, log and exact mode.

Each example is a multigraph of up to 12 vertices and 42 arcs with loops,
parallel arcs and 2-cycles, repaired by shrinking.  Its arcs point any way,
which makes strong components, or mostly to the larger id, which keeps arcs
whose weights differ.  Its path counts stay far below the 1e-12 tie
tolerance of float and log mode, so every mode sees the same ties.  The cut
threshold is one of the exact normalized shares.  Both mode-agreement
properties also run a fixed set of graphs whose arcs weigh unequally
(`SPREAD`), so that what they cover does not rest on the examples drawn.
"""

import contextlib
import io
import itertools
import json
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from citeflow import (is_acyclic, normalize, parse_pajek, shrink_components,
                      simplify, spc, standardize)
from citeflow.cli import main

MODES = ("float", "log", "exact")
EXITS = {0, 2, 3, 4, 5}  # the documented exit codes; 1 is a crash
REPORT = re.compile(r"(\d+) vertices, (\d+) arcs")


@st.composite
def multigraphs(draw):
    """Pajek text of a multigraph; some drawn arcs come back reversed.  Its
    arc count is drawn uniformly, so that few examples are near empty."""
    n = draw(st.integers(1, 12))
    vertex, size = st.integers(1, n), draw(st.integers(0, 34))
    arcs = draw(st.lists(st.tuples(vertex, vertex), min_size=size,
                         max_size=size))
    if arcs:
        arcs += [(h, t) for t, h in draw(st.lists(st.sampled_from(arcs),
                                                  max_size=6))]
    return (f"*Vertices {n}\n*Arcs\n"
            + "".join(f"{t} {h}\n" for t, h in arcs))


@st.composite
def forward_multigraphs(draw):
    """Pajek text of a multigraph whose arcs point to the larger id, bar its
    loops and up to two drawn reversed; its arc count is drawn uniformly, so
    that most examples weigh their arcs unequally."""
    n = draw(st.integers(2, 12))
    vertex, size = st.integers(1, n), draw(st.integers(0, 40))
    arcs = list(map(sorted, draw(st.lists(st.tuples(vertex, vertex),
                                          min_size=size, max_size=size))))
    if arcs:
        arcs += [(h, t) for t, h in draw(st.lists(st.sampled_from(arcs),
                                                  max_size=2))]
    return (f"*Vertices {n}\n*Arcs\n"
            + "".join(f"{t} {h}\n" for t, h in arcs))


def exact_shares(text):
    """The exact normalized SPC shares of the arcs that the CLI weighs."""
    net = simplify(parse_pajek(text))
    if not is_acyclic(net):
        net = shrink_components(net)
    return normalize(spc(standardize(net), "exact")).arc.values[:net.m]


def run(argv, out):
    """(exit code, stdout, the files written) of one in-process CLI run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv] + ["--out", str(out)])
    files = {p.name: p.read_text() for p in Path(out).glob("*")
             if p.name != "manifest.json"} if Path(out).exists() else {}
    return code, stdout.getvalue(), files


def written_arcs(text):
    """The arcs of a written .net by endpoint label, and (n, m)."""
    net = parse_pajek(text)
    labels = [(net.label(t), net.label(h))
              for t, h in zip(net.tails.tolist(), net.heads.tolist())]
    return labels, (net.n, net.m)


# (graph, share level of the cut threshold): parallel arcs, loops, 2-cycles
# and larger strong components among them, each weighing its arcs unequally
SPREAD = [
    ("*Vertices 4\n*Arcs\n1 2\n1 3\n2 3\n2 4\n3 4\n", 0),
    ("*Vertices 4\n*Arcs\n1 2\n1 3\n2 3\n2 4\n3 4\n", 1),
    ("*Vertices 6\n*Arcs\n1 2\n1 2\n2 3\n3 2\n3 4\n1 4\n4 5\n4 6\n5 6\n"
     "6 6\n2 5\n", 1),
    ("*Vertices 7\n*Arcs\n1 3\n2 3\n3 4\n3 5\n4 6\n5 6\n2 5\n6 7\n1 7\n", 2),
    ("*Vertices 8\n*Arcs\n1 2\n2 3\n3 1\n3 4\n4 5\n5 4\n4 6\n2 6\n6 7\n"
     "7 8\n1 8\n5 8\n", 1),
    *(("*Vertices 12\n*Arcs\n" + "".join(f"{t} {h}\n" for t, h in [
        (1, 5), (1, 8), (1, 11), (2, 3), (2, 6), (2, 7), (2, 8), (2, 10),
        (3, 6), (3, 7), (3, 10), (3, 12), (4, 5), (4, 8), (4, 12), (5, 6),
        (5, 8), (6, 7), (6, 11), (6, 12), (7, 10), (7, 12), (8, 11),
        (8, 12), (9, 10), (9, 12), (10, 11)]), level) for level in (0, 3, 6)),
]


def spread(test):
    """`test` with every SPREAD graph as an explicit example."""
    for text, level in SPREAD:
        test = example(text=text, level=level)(test)
    return test


@spread
@given(text=multigraphs(), level=st.integers(0, 40))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_extractors_agree_across_modes(text, level):
    agree_across_modes(text, level)


@spread
@given(text=forward_multigraphs(), level=st.integers(0, 40))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_extractors_agree_across_modes_on_forward_arcs(text, level):
    agree_across_modes(text, level)


def agree_across_modes(text, level):
    """Each extractor writes the same arcs (islands) in every mode; the cut
    keeps the arcs at or above share level `level` (wrapped round)."""
    shares = exact_shares(text)
    levels = sorted(set(shares)) or [1]
    assert len(levels) > 1 or (text, level) not in SPREAD
    threshold = float(levels[level % len(levels)])
    commands = {"mainpath": ["mainpath"], "cpm": ["cpm"],
                "cpm-aged": ["cpm", "--method", "spnp", "--alpha", "0.5"],
                "cut": ["cut", "--normalize", "--threshold", repr(threshold)],
                "islands": ["islands", "--k", "2"]}
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "in.net")
        src.write_text(text)
        for name, argv in commands.items():
            runs = [run([argv[0], src, *argv[1:], "--mode", mode, "--repair",
                         "shrink"], Path(tmp, name, mode)) for mode in MODES]
            codes = [code for code, _, _ in runs]
            assert set(codes) <= EXITS
            assert len(set(codes)) == 1, (name, codes)
            if codes[0]:
                continue
            picked = []
            for code, stdout, files in runs:
                if name == "islands":
                    picked.append((files["islands.clu"],
                                   files["island_sizes.csv"]))
                    continue
                arcs, size = written_arcs(files[f"{argv[0]}.net"])
                assert size == tuple(map(int, REPORT.search(stdout).groups()))
                picked.append(arcs)
            assert picked[0] == picked[1] == picked[2], (name, threshold)


def parsed_column(text):
    """The numbers of a written .vec, as floats."""
    return [float(line) for line in text.splitlines()[1:]]


@given(text=forward_multigraphs())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_weights_jsonl_records_what_the_net_holds(text):
    # exact weights reach the jsonl as ints or Fraction strings, the .net as
    # the nearest double: only the arcs are compared there
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "in.net")
        src.write_text(text)
        for mode in MODES:
            code, _, files = run(["weights", src, "--mode", mode, "--repair",
                                  "shrink", "--jsonl"], Path(tmp, mode))
            assert code == 0, mode
            net = parse_pajek(files["spc.net"])
            records = [json.loads(line)
                       for line in files["spc.jsonl"].splitlines()]
            summary, arcs = records[0], records[1:net.m + 1]
            vertices = records[net.m + 1:]
            assert (summary["vertices"], summary["arcs"]) == (net.n, net.m)
            assert [(r["record"], r["index"], r["tail"], r["head"])
                    for r in arcs] == [
                ("arc", i, t, h) for i, (t, h) in enumerate(zip(
                    net.tails.tolist(), net.heads.tolist()))]
            assert [(r["record"], r["id"]) for r in vertices] == [
                ("vertex", v) for v in range(1, net.n + 1)]
            if mode != "exact":
                assert [r["weight"] for r in arcs] == net.weights.tolist()
                assert [r["weight"] for r in vertices] == parsed_column(
                    files["spc.vec"])


@given(text=forward_multigraphs(), data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_log_weights_select_what_linear_weights_select(text, data):
    # --log in log mode passes the weights through, so float and exact only
    shares = exact_shares(text)
    threshold = float(data.draw(st.sampled_from(sorted(set(shares)) or [1])))
    commands = {"mainpath": ["mainpath"],
                "cut": ["cut", "--normalize", "--threshold", repr(threshold)],
                "islands": ["islands", "--k", "2"]}
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "in.net")
        src.write_text(text)
        for (name, argv), mode in itertools.product(commands.items(),
                                                    ("float", "exact")):
            codes, picked = [], []
            for log in ([], ["--log"]):
                code, _, files = run(
                    [argv[0], src, *argv[1:], "--mode", mode, "--repair",
                     "shrink", *log], Path(tmp, name, mode, *log))
                codes.append(code)
                picked.append(None if code else
                              (files["islands.clu"], files["island_sizes.csv"])
                              if name == "islands" else
                              written_arcs(files[f"{name}.net"]))
            assert set(codes) <= EXITS and codes[0] == codes[1], (name, codes)
            assert picked[0] == picked[1], (name, mode, threshold)
