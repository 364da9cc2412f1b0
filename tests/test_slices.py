"""Per-row outputs render one `_CHUNK` slice at a time: .vec and .clu values,
.net vertex lines and --jsonl records must read the same across slice
boundaries as one value or one record at a time, and peak at a small
multiple of their output.  `pajek._CHUNK` is patched small so that a few
hundred rows cross several slices.  The last properties check every writer
byte for byte against `oracles.render_rows`, one value at a time."""

import json
import math
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import zip_longest
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from citeflow import (ArcWeights, Network, Subnetwork, aged_path_counts, cli,
                      complete_acyclic, format_number, log_transform,
                      normalize, pajek, parse_pajek, spc, standardize,
                      write_pajek, write_partition, write_subnetwork,
                      write_vector)
from citeflow.weights import WeightResult

from oracles import render_rows
from test_pajek import CORPUS, EDGE

CHUNK = 16  # rows per slice in these tests
dumps = partial(json.dumps, sort_keys=True, default=str)  # one per record


@pytest.fixture
def small_chunk(monkeypatch):
    monkeypatch.setattr(pajek, "_CHUNK", CHUNK)


def _pool(kind):
    """Values drawn from CORPUS and EDGE, 3 slices and 5 more of them."""
    pool = [v for v in CORPUS + EDGE if kind == "object" or type(v) is float]
    picked = np.random.default_rng(7).integers(0, len(pool), 3 * CHUNK + 5)
    return np.array(pool, dtype=object if kind == "object" else np.float64
                    )[picked]


def _vec(values):
    return f"*Vertices {len(values)}\n" + "".join(
        f"{format_number(v)}\n" for v in values)


# --- .vec and .clu values ---

@pytest.mark.parametrize("kind", ["float64", "object", "tuple",
                                  "float ArcWeights", "exact ArcWeights"])
def test_vector_across_slices_renders_like_format_number(small_chunk, kind):
    floats, objects = _pool("float"), _pool("object")
    assert np.isinf(floats).any() and np.isnan(floats).any()
    assert any(abs(v) >= 1e16 and abs(v) < 1.01e16 for v in floats)
    assert any(type(v) is int and abs(v) > 2 ** 63 for v in objects)
    assert any(type(v) is Fraction for v in objects)
    values = {"float64": floats, "object": objects,
              "tuple": tuple(objects.tolist()),
              "float ArcWeights": ArcWeights(floats, "float"),
              "exact ArcWeights": ArcWeights(objects, "exact")}[kind]
    assert write_vector(values) == _vec(list(values))


def test_partition_across_slices_renders_like_format_number(small_chunk):
    classes = np.random.default_rng(8).integers(
        -2 ** 62, 2 ** 62, 3 * CHUNK + 5)
    classes[:3] = 0, np.iinfo(np.int64).max, np.iinfo(np.int64).min
    assert write_partition(classes) == _vec(classes.tolist())
    assert write_partition(classes.tolist()) == _vec(classes.tolist())


@pytest.mark.parametrize("size", [0, 1, CHUNK, CHUNK + 1, 3 * CHUNK])
def test_vector_slice_edges(small_chunk, size):
    values = np.arange(size) / 4
    assert write_vector(values) == _vec(values.tolist())


# --- .net vertex lines ---

def test_vertex_lines_across_slices_quote_as_one_line_would(small_chunk):
    labels = [("p{}", "a b {}", 'x"{}', "é{}", "{}")[v % 5].format(v)
              for v in range(1, 3 * CHUNK + 3)]
    net = Network(len(labels), [(1, 2), (2, 3)], labels)
    text = write_pajek(net)
    want = [f"{v} {label}" if '"' in label else f'{v} "{label}"'
            for v, label in enumerate(labels, start=1)]
    assert text == "\n".join([f"*Vertices {net.n}", *want,
                              "*Arcs", "1 2 1", "2 3 1", ""])
    assert parse_pajek(text) == net


# --- --jsonl records ---

def _first_difference(got, want):
    """(line number, got, want) of the first line where two texts differ, or
    None: pytest's own diff of texts this long takes minutes."""
    return next(((no, a, b) for no, (a, b) in enumerate(zip_longest(
        got.split("\n"), want.split("\n")), start=1) if a != b), None)


def _jsonl_reference(net, result, mode):
    """The report with one json.dumps per record, the arcs and vertices in
    the order of `net`."""
    lines = [dumps({"record": "summary", "method": result.method,
                    "mode": mode, "alpha": result.alpha,
                    "normalized": result.normalized,
                    "total_flow": result.total_flow, "vertices": net.n,
                    "arcs": net.m})]
    lines += [dumps({"record": "arc", "index": i, "tail": t, "head": h,
                     "weight": w})
              for i, (t, h, w) in enumerate(zip(
                  net.tails.tolist(), net.heads.tolist(),
                  result.arc.values[:net.m].tolist()))]
    if result.vertex is not None:
        lines += [dumps({"record": "vertex", "id": v, "weight": w})
                  for v, w in enumerate(list(result.vertex)[:net.n], 1)]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("mode, options", [
    ("float", []), ("float", ["--normalize"]), ("log", []),
    ("log", ["--normalize"]), ("exact", []), ("exact", ["--normalize"]),
    ("exact", ["--log"]), ("exact", ["--method", "spnp", "--alpha", "0.5"]),
])
def test_jsonl_across_slices_matches_one_dumps_per_record(
        small_chunk, tmp_path, mode, options):
    net = complete_acyclic(70)  # 2415 arcs, SPC counts up to 2**68
    src = tmp_path / "in.net"
    src.write_text(write_pajek(net))
    assert cli.main(["weights", str(src), "--mode", mode, "--jsonl",
                     *options, "--out", str(tmp_path)]) == 0
    std = standardize(net)
    result = (aged_path_counts(std, 0.5, mode) if "--alpha" in options
              else spc(std, mode))
    if "--normalize" in options:
        result = normalize(result)
    if "--log" in options:
        result = log_transform(result)
    name = "spnp.jsonl" if "--alpha" in options else "spc.jsonl"
    text = (tmp_path / name).read_text()
    assert _first_difference(text, _jsonl_reference(net, result, mode)) is None
    if mode == "exact" and not options:
        assert max(result.arc.values.tolist()) > 2 ** 63


@pytest.mark.parametrize("kind", ["float", "object"])
def test_jsonl_template_lines_equal_json_dumps_of_the_corpus(
        small_chunk, tmp_path, monkeypatch, kind):
    # the writer corpus stands in for the weights: floats, ±inf, nan, ints
    # beyond int64 and Fractions
    net = complete_acyclic(12)  # 66 arcs over 5 slices
    mode = "exact" if kind == "object" else "float"
    pool = [v for v in CORPUS + EDGE if isinstance(v, float) == (
        mode == "float")]
    column = np.array(pool, dtype=object if mode == "exact" else np.float64)
    arc, vertex = np.resize(column, net.m), np.resize(column[::-1], net.n)

    def counts(std, mode):
        return WeightResult("SPC", ArcWeights(arc, mode), vertex, 1)

    monkeypatch.setattr(cli, "spc", counts)
    src = tmp_path / "in.net"
    src.write_text(write_pajek(net))
    assert cli.main(["weights", str(src), "--mode", mode, "--jsonl",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spc.jsonl").read_text().splitlines()
    assert lines[1:] == [
        *(dumps({"record": "arc", "index": i, "tail": t, "head": h,
                 "weight": w}) for i, (t, h, w) in enumerate(zip(
                     net.tails.tolist(), net.heads.tolist(), arc.tolist()))),
        *(dumps({"record": "vertex", "id": v, "weight": w})
          for v, w in enumerate(vertex.tolist(), start=1))]


# --- peaks over the output ---

def _peak(render):
    tracemalloc.start()
    try:
        out = render()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["float", "int"])
def test_vector_peak_over_many_slices(monkeypatch, kind):
    # holding every value's str at once peaks at 6.0 (floats) and 23.8
    # (ints) times the output on this input; one slice at a time, at 2.0
    # and 2.9
    monkeypatch.setattr(pajek, "_CHUNK", 1 << 11)
    rng = np.random.default_rng(12)
    size = 12 * pajek._CHUNK
    values = (rng.random(size) if kind == "float"
              else rng.integers(0, 1000, size))
    text, peak = _peak(lambda: (write_vector(values) if kind == "float"
                                else write_partition(values)))
    assert text.count("\n") == size + 1
    assert peak <= 4 * len(text), f"peak {peak / len(text):.1f}x the text"


def test_jsonl_peak_over_many_slices(monkeypatch):
    # one dumps per record, kept in a list of every record, peaks at 3.4
    # times the .net, .vec and .jsonl texts on this input; one slice at a
    # time joined into one text, at 2.1; kept as the slices' bytes, at 1.7
    monkeypatch.setattr(pajek, "_CHUNK", 1 << 11)
    rng = np.random.default_rng(13)
    n, m = 3000, 12 * pajek._CHUNK
    tails = rng.integers(1, n, m)
    heads = rng.integers(tails + 1, n + 1)
    net = Network.from_arrays(n, tails, heads)
    result = spc(standardize(net), "log")
    args = SimpleNamespace(method="spc", jsonl=True, log=False)
    params = {"mode": "log"}
    files, peak = _peak(lambda: cli._cmd_weights(
        args, net, None, result, params, "none")[1])
    files["spc.jsonl"] = "".join(files["spc.jsonl"])  # as written
    size = sum(map(len, files.values()))
    assert files["spc.jsonl"].count("\n") == 1 + m + n
    assert peak <= 3 * size, f"peak {peak / size:.1f}x the outputs"


# --- every writer against the one-value-at-a-time oracle ---

INT64 = (-2 ** 63, 2 ** 63 - 1)
EDGES = [*INT64, 0, -1, 2 ** 32 - 1, 2 ** 32, -2 ** 32, 10 ** 18, -10 ** 17]
FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, -1e16,
          float(np.nextafter(1e16, 0)), float(np.nextafter(1e16, math.inf)),
          float(2 ** 53 - 1), float(2 ** 53 + 2), 2.0 ** 63, 2.0 ** 32, 0.5,
          5e-324]
NUMBERS = [*EDGES, 2 ** 53 - 1, 2 ** 53 + 1, 2 ** 63, 2 ** 64 + 1,
           -2 ** 70, Fraction(1, 3), Fraction(-7, 2), Fraction(10, 5), *FLOATS]
ROWS = 3 * CHUNK + 5  # rows of a column at most: crosses slice boundaries


def columns(size):
    """A number column of `size` rows as a writer takes it: a float64,
    int64, int32 or uint64 array, or Python numbers (ints past int64,
    Fractions, floats) in a tuple, a list or an object array."""
    def rows(values):
        return st.lists(values, min_size=size, max_size=size)

    python = st.one_of(st.sampled_from(NUMBERS), st.integers(), st.floats(),
                       st.fractions())
    return st.one_of(
        rows(st.one_of(st.sampled_from(FLOATS), st.floats())).map(
            partial(np.array, dtype=np.float64)),
        rows(st.one_of(st.sampled_from(EDGES), st.integers(*INT64))).map(
            partial(np.array, dtype=np.int64)),
        rows(st.integers(-2 ** 31, 2 ** 31 - 1)).map(
            partial(np.array, dtype=np.int32)),
        rows(st.one_of(st.sampled_from([0, 2 ** 32, 2 ** 64 - 1]),
                       st.integers(0, 2 ** 64 - 1))).map(
            partial(np.array, dtype=np.uint64)),
        rows(python).map(tuple), rows(python),
        rows(python).map(partial(np.array, dtype=object)))


def python_values(column):
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


# quotes, tabs, spaces, NUL, non-ASCII and empty labels: a label with a quote
# is one token that does not start with it, as a written label must be
LABEL = st.one_of(
    st.text(st.sampled_from(' \tab\x00\u00e9\u6f22%*'), max_size=4),
    st.builds("{}{}\"{}".format, st.text(st.sampled_from("a\u00e9\x00"),
                                          min_size=1, max_size=2),
              st.text(st.sampled_from('"b'), max_size=2),
              st.text(st.sampled_from("c\u00fc"), max_size=2)))
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _vertex_lines(labels):
    return render_rows("{} {}", range(1, len(labels) + 1), [
        label if '"' in label else f'"{label}"' for label in labels])


@given(data=st.data())
@SETTINGS
def test_vectors_and_partitions_render_as_the_oracle(small_chunk, data):
    size = data.draw(st.integers(0, ROWS))
    values = data.draw(columns(size))
    assert write_vector(values) == f"*Vertices {size}\n" + render_rows(
        "{}", python_values(values))
    classes = data.draw(st.lists(st.integers(*INT64), min_size=size,
                                 max_size=size))
    assert write_partition(classes) == f"*Vertices {size}\n" + render_rows(
        "{}", classes)


@given(data=st.data())
@SETTINGS
def test_networks_and_subnetworks_render_as_the_oracle(small_chunk, data):
    labels = data.draw(st.lists(LABEL, min_size=1, max_size=ROWS))
    n = len(labels)
    m = data.draw(st.integers(0, ROWS))
    ends = st.lists(st.integers(1, n), min_size=m, max_size=m)
    tails, heads, weights = data.draw(ends), data.draw(ends), data.draw(
        columns(m))
    net = Network.from_arrays(n, tails, heads, None, labels)
    assert write_pajek(net, weights) == (
        f"*Vertices {n}\n" + _vertex_lines(labels) + "*Arcs\n"
        + render_rows("{} {} {}", tails, heads, python_values(weights)))
    assert parse_pajek(write_pajek(net)).labels == net.labels

    vertices = data.draw(st.sets(st.integers(1, n), min_size=1))
    arcs = tuple(a for a in range(m) if {tails[a], heads[a]} <= vertices)
    sub = Subnetwork(net, frozenset(vertices), arcs, "arc_cut")
    dense = sub.to_network()
    picked = [python_values(weights)[a] for a in arcs]
    assert write_subnetwork(sub, weights) == (
        f"*Vertices {dense.n}\n" + _vertex_lines(dense.labels) + "*Arcs\n"
        + render_rows("{} {} {}", dense.tails.tolist(), dense.heads.tolist(),
                      picked))


@given(data=st.data())
@SETTINGS
def test_jsonl_records_render_as_the_oracle(small_chunk, data):
    n, m = data.draw(st.integers(1, ROWS)), data.draw(st.integers(0, ROWS))
    ends = st.lists(st.integers(1, n), min_size=m, max_size=m)
    net = Network.from_arrays(n, data.draw(ends), data.draw(ends))
    mode = data.draw(st.sampled_from(["float", "exact"]))
    arc, vertex = (np.array(data.draw(st.lists(st.one_of(
        st.sampled_from(FLOATS), st.floats()), min_size=size, max_size=size)))
        if mode == "float" else np.array(python_values(data.draw(
            columns(size))), object) for size in (m, n))
    result = WeightResult("SPC", ArcWeights(arc, mode), vertex, 1)
    args = SimpleNamespace(method="spc", jsonl=True, log=False)
    files = cli._cmd_weights(args, net, None, result, {"mode": mode},
                             "none")[1]
    lines = "".join(files["spc.jsonl"]).split("\n", 1)[1]
    assert lines == render_rows(
        '{{"head": {}, "index": {}, "record": "arc", "tail": {}, '
        '"weight": {}}}', net.heads.tolist(), range(m), net.tails.tolist(),
        list(map(dumps, arc.tolist()))) + render_rows(
        '{{"id": {}, "record": "vertex", "weight": {}}}', range(1, n + 1),
        list(map(dumps, vertex.tolist())))
