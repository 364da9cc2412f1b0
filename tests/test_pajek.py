import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citeflow import (ArcWeights, Network, PajekParseError, Subnetwork,
                      format_number, parse_pajek, write_pajek, write_partition,
                      write_subnetwork, write_vector)
from citeflow import pajek

from conftest import arcs_of

DIAMOND = """\
*Vertices 4
1 "a"
2 "b"
3 "c"
4 "d"
*Arcs
1 2
1 3
2 4
3 4
"""


def test_parse_minimal():
    net = parse_pajek(DIAMOND)
    assert net.n == 4
    assert arcs_of(net) == [(1, 2), (1, 3), (2, 4), (3, 4)]
    assert net.label(2) == "b"


def test_parse_is_case_insensitive_and_skips_noise():
    text = ("% a comment\n\n*vertices 2\n"
            "1 \"x\"\n\n% another\n*ARCS\n1 2 2.5\n")
    net = parse_pajek(text)
    assert net.n == 2
    assert net.label(1) == "x"
    assert net.label(2) == "2"  # unlisted vertex falls back to its id
    assert net.weights.tolist() == [2.5]


def test_labels_with_spaces_and_quotes():
    net = parse_pajek('*Vertices 1\n1 "hello world"\n*Arcs\n')
    assert net.label(1) == "hello world"


def test_trailing_vertex_tokens_ignored():
    # coordinate columns from layout tools
    net = parse_pajek('*Vertices 1\n1 "v" 0.5 0.5 0.5\n*Arcs\n')
    assert net.label(1) == "v"


def test_bare_label_token():
    net = parse_pajek("*Vertices 2\n1 alpha\n*Arcs\n1 2\n")
    assert net.label(1) == "alpha"


def test_vertices_without_arcs_section():
    net = parse_pajek("*Vertices 3\n")
    assert (net.n, net.m) == (3, 0)


def test_empty_network():
    net = parse_pajek("*Vertices 0\n*Arcs\n")
    assert (net.n, net.m) == (0, 0)


def test_multiple_arcs_sections_concatenate():
    net = parse_pajek("*Vertices 3\n*Arcs\n1 2\n*Arcs\n2 3\n")
    assert arcs_of(net) == [(1, 2), (2, 3)]


def test_integer_and_float_weights():
    net = parse_pajek("*Vertices 2\n*Arcs\n1 2 3\n2 1 0.25\n")
    assert net.weights.tolist() == [3.0, 0.25]


@pytest.mark.parametrize("text, fragment", [
    ("*Arcs\n1 2\n", "*Vertices"),
    ("*Vertices 2\n*Edges\n1 2\n", "directed"),
    ("*Vertices 2\n*Vertices 2\n", "duplicate"),
    ("*Vertices 2\n*Partition\n", "unsupported"),
    ("1 \"a\"\n*Vertices 1\n", "*Vertices"),
    ("*Vertices 1\n1 \"unterminated\n*Arcs\n", "quote"),
    ("*Vertices 2\n*Arcs\n1 5\n", "outside"),
    ("*Vertices 2\n*Arcs\n0 1\n", "outside"),
    ("*Vertices 2\n*Arcs\n1\n", "tail head"),
    ("*Vertices 2\n*Arcs\n1 2 x\n", "weight"),
    ("*Vertices x\n", "count"),
    ("*Vertices 1\n9 \"z\"\n*Arcs\n", "range"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(PajekParseError) as err:
        parse_pajek(text)
    assert fragment.lower() in str(err.value).lower()


def test_parse_error_carries_line_number():
    with pytest.raises(PajekParseError) as err:
        parse_pajek("*Vertices 2\n*Arcs\n1 5\n")
    assert err.value.line_no == 3
    assert "line 3" in str(err.value)


def test_round_trip(diamond):
    assert parse_pajek(write_pajek(diamond)) == diamond


def test_round_trip_weights_and_odd_labels():
    net = Network(3, [(1, 2, 0.5), (2, 3, 4.0)], ["a b", "q\"q", "3"])
    back = parse_pajek(write_pajek(net))
    assert back.weights.tolist() == [0.5, 4.0]
    assert back.label(1) == "a b"
    assert [back.label(v) for v in (1, 2, 3)] == ["a b", 'q"q', "3"]


@pytest.mark.parametrize("label, line", [
    ('a"b', '1 a"b'),
    ('a"', '1 a"'),
    ("a b", '1 "a b"'),
    ("", '1 ""'),
    ("%x*", '1 "%x*"'),
])
def test_labels_write_so_that_they_read_back(label, line):
    text = write_pajek(Network(1, [], [label]))
    assert text.splitlines()[1] == line
    assert parse_pajek(text).label(1) == label


def test_a_parsed_bare_label_with_a_quote_survives_a_round_trip():
    net = parse_pajek('*Vertices 2\n1 a"b\n2 "c"\n*Arcs\n1 2\n')
    assert net.labels == ('a"b', "c")
    assert parse_pajek(write_pajek(net)) == net


@pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\x0bb", "a\x85b",
                                   "a\u2028b", "end\n", '"a', '"', 'a" b',
                                   'a"\tb', 'a\xa0"b'])
def test_labels_that_cannot_read_back_are_refused(label):
    with pytest.raises(ValueError, match="label"):
        write_pajek(Network(2, [(1, 2)], ["ok", label]))


def test_write_pajek_weight_override(chain3):
    text = write_pajek(chain3, [5, 7])
    assert "1 2 5\n" in text
    assert "2 3 7\n" in text
    with pytest.raises(ValueError):
        write_pajek(chain3, [1])


def test_write_vector():
    assert write_vector([1, 0.5]) == "*Vertices 2\n1\n0.5\n"


def test_write_partition():
    for classes in ((1, 1, 2), [1, 1, 2], np.array([1, 1, 2], np.int64)):
        assert write_partition(classes) == "*Vertices 3\n1\n1\n2\n"


@pytest.mark.parametrize("value, text", [
    (3, "3"),
    (2 ** 80, str(2 ** 80)),
    (3.0, "3"),
    (0.5, "0.5"),
    (Fraction(4, 2), "2"),
    (Fraction(1, 2), "0.5"),
    (1e300, "1e+300"),
])
def test_format_number(value, text):
    assert format_number(value) == text


@pytest.mark.parametrize("column", [
    [0.0, -0.0, 1.0, -7.0, 3.0, 2.0 ** 53 + 2, 1e16 - 2, -(1e16 - 2)],
    [1.0] * 5,
    [],
    [3.0, 1e16],
    [3.0, 0.5],
    [3.0, float("inf")],
    [3.0, float("nan")],
])
def test_float_columns_render_like_format_number(column):
    values = np.array(column, dtype=np.float64)
    want = [format_number(v) for v in column]
    assert write_vector(values).splitlines()[1:] == want
    net = Network.from_arrays(2, np.ones(len(values)),
                              np.full(len(values), 2), values)
    assert write_pajek(net).splitlines()[4:] == [f"1 2 {t}" for t in want]
    assert write_pajek(net, ArcWeights(values, "log")) == write_pajek(net)


def test_crlf_input_parses():
    net = parse_pajek(DIAMOND.replace("\n", "\r\n"))
    assert net.n == 4


# --- grammar corners: each parses to the same Network as a hand-built one ---

@pytest.mark.parametrize("text, n, arcs, labels", [
    ("*Vertices 3\n% c\n\n1 \"a\"\n  % indented comment\n3 \"c\"\n"
     "*Arcs\n% c\n1 2\n\n% c\n2 3\n", 3, [(1, 2), (2, 3)], ["a", "2", "c"]),
    ("*Vertices\t3\n1\t\"a b\"\n*Arcs\n1\t2\t0.5\n\t2 3 \t\n", 3,
     [(1, 2, 0.5), (2, 3)], ["a b", "2", "3"]),
    ("*Vertices 2\r\n1 \"x\"\r\n*Arcs\r\n1 2 4\r\n\r\n2 1\r\n", 2,
     [(1, 2, 4.0), (2, 1)], ["x", "2"]),
    ("*vertices 2\n*arcs\n1 2\n*ARCS\n2 1\n", 2, [(1, 2), (2, 1)], None),
    ("*Vertices 3\n*Arcs\n1 2\n*Arcs\n% only a comment\n*Arcs\n2 3 2\n"
     "1 3\n", 3, [(1, 2), (2, 3, 2.0), (1, 3)], None),
    ("*Vertices 3\n*Arcs\n1 2 1e-3\n2 3 inf\n1 3 1_0\n3 3 -2.5E2\n", 3,
     [(1, 2, 1e-3), (2, 3, float("inf")), (1, 3, 10.0), (3, 3, -250.0)],
     None),
    ("*Vertices 4\n*Arcs\n1 2\n2 3 3\n3 4\n1 4 7\n", 4,
     [(1, 2), (2, 3, 3.0), (3, 4), (1, 4, 7.0)], None),
    ("*Vertices 5\n", 5, [], None),
    ("*Vertices 2\n*Arcs\n", 2, [], None),
])
def test_grammar_corners_match_hand_built(text, n, arcs, labels):
    assert parse_pajek(text) == Network(n, arcs, labels)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_round_trip_any_network(data):
    n = data.draw(st.integers(0, 12))
    arc = st.tuples(st.integers(1, n), st.integers(1, n),
                    st.floats(allow_nan=False))
    arcs = data.draw(st.lists(arc, max_size=30)) if n else []
    label = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                                  blacklist_characters='"'), max_size=8)
    labels = data.draw(st.lists(label, min_size=n, max_size=n))
    net = Network(n, arcs, labels)
    assert parse_pajek(write_pajek(net)) == net


def long_section(bad_at: int, size: int) -> str:
    rows = ["1 2 1.5"] * size
    rows[bad_at - 1] = "1 2 1.5.0"
    return "*Vertices 2\n*Arcs\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("text, line_no, fragment", [
    ("*Vertices 3\n*Arcs\n1 2\n*Arcs\n2 3\n3 x\n", 6, "endpoint"),
    ("*Vertices 3\n*Arcs\n1 2\n% note\n\n% note\n2 3 w\n", 7, "weight"),
    ("*Vertices 3\n% note\n\n*Arcs\n% note\n1 2 3 4\n", 6, "tail head"),
    ("*Vertices 2\n*Arcs\n1 2\n1 5\n*Edges\n", 4, "outside"),
    ("*Vertices 2\n*Arcs\n1 2\n2 99999999999999999999\n", 4, "outside"),
    (long_section(90_001, 100_000), 90_003, "weight"),
])
def test_parse_errors_name_the_first_bad_line(text, line_no, fragment):
    with pytest.raises(PajekParseError) as err:
        parse_pajek(text)
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}: ")
    assert fragment in str(err.value)


# --- writers render every value as format_number does ---

CORPUS = [0, 7, -3, 2 ** 64 + 1, -(2 ** 70), Fraction(7, 3), Fraction(10, 5),
          Fraction(-1, 2 ** 80), np.float64(2.5), np.float64(3.0),
          np.float64(1e17), 0.0, -0.0, 1e16, -1e16, 1e16 - 2, 2.0 ** 53 + 1,
          0.1, 1 / 3, -7.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300,
          float("inf"), float("-inf"), float("nan")]


def test_writers_render_the_corpus_like_format_number():
    want = [format_number(v) for v in CORPUS]
    assert write_vector(CORPUS).splitlines() == [f"*Vertices {len(CORPUS)}",
                                                  *want]
    net = Network(2, [(1, 2)] * len(CORPUS))
    arc_lines = write_pajek(net, CORPUS).splitlines()[4:]
    assert arc_lines == [f"1 2 {text}" for text in want]


def test_writers_render_arrays_like_format_number():
    floats = np.array([v for v in CORPUS if isinstance(v, float)])
    want = [format_number(v) for v in floats]
    assert write_vector(floats).splitlines()[1:] == want
    net = Network.from_arrays(2, np.ones(len(floats)), np.full(len(floats), 2),
                              floats)
    assert write_pajek(net).splitlines()[4:] == [f"1 2 {t}" for t in want]
    assert write_pajek(net, ArcWeights(floats, "log")) == write_pajek(net)
    exact = [v for v in CORPUS if isinstance(v, (int, Fraction))]
    assert (write_vector(ArcWeights(exact, "exact")).splitlines()[1:]
            == [format_number(v) for v in exact])


# --- arc lines are written one slice at a time ---

EDGE = [float(np.nextafter(1e16, 0)), float(np.nextafter(1e16, np.inf)),
        float(np.nextafter(-1e16, 0)), 1e16 + 2, -(2.0 ** 63), 2.0 ** 64]


def _two_slices_and_one(kind, extra=0):
    """Endpoints of two slices of arcs plus one (and `extra` more), and a
    weight column drawn from CORPUS and EDGE: a float64 array of its floats,
    or an object array of every kind of number, ints beyond int64 and
    Fractions among them."""
    m = 2 * pajek._CHUNK + 1 + extra
    rng = np.random.default_rng(3)
    pool = [v for v in CORPUS + EDGE if kind == "object" or type(v) is float]
    column = np.array(pool, dtype=object if kind == "object" else np.float64)
    return (rng.integers(1, 101, m), rng.integers(1, 101, m),
            column[rng.integers(0, len(pool), m)])


def _arc_lines(tails, heads, weights):
    return "".join(f"{t} {h} {format_number(w)}\n" for t, h, w in zip(
        tails.tolist(), heads.tolist(), weights.tolist()))


@pytest.mark.parametrize("kind", ["float", "object"])
def test_arc_lines_across_slices_render_like_format_number(kind):
    tails, heads, weights = _two_slices_and_one(kind)
    net = Network.from_arrays(100, tails, heads)
    want = write_pajek(Network(100)) + _arc_lines(tails, heads, weights)
    assert write_pajek(net, weights) == want
    if kind == "float":
        assert write_pajek(Network.from_arrays(100, tails, heads,
                                               weights)) == want


@pytest.mark.parametrize("kind", ["float", "object"])
def test_subnetwork_arc_lines_across_slices_render_like_format_number(kind):
    tails, heads, weights = _two_slices_and_one(kind, extra=5000)
    parent = Network.from_arrays(100, tails, heads)
    inner = np.flatnonzero((tails > 1) & (heads > 1))  # vertex 1 left out
    picked = np.random.default_rng(4).choice(inner, 2 * pajek._CHUNK + 1,
                                             replace=False)
    sub = Subnetwork(parent, frozenset(range(2, 101)),
                     tuple(np.sort(picked).tolist()), "arc_cut")
    dense = sub.to_network()
    want = write_pajek(Network(99, (), dense.labels)) + _arc_lines(
        dense.tails, dense.heads, weights[list(sub.arcs)])
    assert write_subnetwork(sub, weights) == want


# --- the strict array read and the line reader agree ---

def _random_arcs_text(seed: int) -> str:
    """Valid arcs of 2 and 3 fields: weights of 1 to 18 digits, some with
    leading zeros, tabs and blank lines between the fields and lines."""
    rng = np.random.default_rng(seed)
    n, m = 50, 2000
    rows = []
    for tail, head, digits in zip(rng.integers(1, n + 1, m).tolist(),
                                  rng.integers(1, n + 1, m).tolist(),
                                  rng.integers(0, 19, m).tolist()):
        fields = [str(tail), str(head)]
        if digits:
            fields.append(str(int(rng.integers(0, 10 ** digits))).zfill(
                digits))
        rows.append(str(rng.choice([" ", "\t", " \t "])).join(fields))
        if rng.random() < 0.05:
            rows.append(str(rng.choice(["", " ", "\t"])))
    return f"*Vertices {n}\n*Arcs\n" + "\n".join(rows) + "\n"


TWO_PATHS = [  # (text, whether an *Arcs section takes the array read)
    pytest.param('*Vertices 3\n\n1 "a"\n\t\n*Arcs\n1\t2\n\n 2 3 \t4 \n\n',
                 True, id="blanks-and-tabs"),
    pytest.param(DIAMOND.replace("\n", "\r\n"), True, id="crlf"),
    pytest.param(DIAMOND.replace("\n", "\r"), True, id="lone-cr"),
    pytest.param('% head\n*Vertices 3\n% c\n1 "a"\n*Arcs\n% c\n1 2\n', False,
                 id="comments"),
    pytest.param("*Vertices 3\n*Arcs\n1 2\n*Arcs\n2 3 5\n\n*arcs\n3 1\n", True,
                 id="several-arcs-sections"),
    pytest.param("*Vertices 3\n*Arcs\n1 2\n2 3 7\n3 1\n1 3 2\n", True,
                 id="mixed-2-and-3-fields"),
    pytest.param("*Vertices 9\n*Arcs\n007 3 007\n", True, id="leading-zeros"),
    pytest.param("*Vertices 9\n*Arcs\n007 3 +3\n1 2 1_0\n", False,
                 id="sign-and-underscore"),
    pytest.param("*Vertices 2\n*Arcs\n1 2 99999999999999999999\n", False,
                 id="20-digit-weight"),
    pytest.param("*Vertices 2\n*Arcs\n1 2 123456789012345678\n", True,
                 id="18-digit-weight"),
    pytest.param('*Vertices 5\n1 "a" 0.5 0.5\n4 bare\n2 "b"\n1 "again"\n'
                 "*Arcs\n1 5\n", True, id="vertex-line-corners"),
    pytest.param('*Vertices 3\n3 "\u00e9\u6f22"\n1 "\u00fc b"\n*Arcs\n1 2\n',
                 True, id="non-ascii-labels"),
    pytest.param('*Vertices 2\n1 "\u00e9"\n*Arcs\n1 2 \u0663\n', False,
                 id="non-ascii-digit"),
    pytest.param("*Vertices 3\n*Arcs\n1 2 1e-3\n2 3 inf\n3 3 -2.5E2\n", False,
                 id="float-weights"),
    pytest.param("*Vertices 3\n*Arcs\n\n", False, id="blank-body"),
    pytest.param("*Vertices 3\n*Arcs", True, id="header-on-last-line"),
    pytest.param(_random_arcs_text(1), True, id="random-arcs"),
]


def _parse_both_ways(text, monkeypatch):
    strict = []
    real = pajek._strict_arcs

    def spy(body, n):
        columns = real(body, n)
        strict.append(columns is not None)
        return columns

    monkeypatch.setattr(pajek, "_strict_arcs", spy)
    fast = parse_pajek(text)
    monkeypatch.setattr(pajek, "_strict_arcs", lambda body, n: None)
    # no plain vertex line found: every *Vertices body goes line by line
    monkeypatch.setattr(pajek, "re", SimpleNamespace(findall=lambda *a: [],
                                                     M=re.M))
    return fast, parse_pajek(text), any(strict)


@pytest.mark.parametrize("text, strict", TWO_PATHS)
def test_strict_and_line_paths_agree(text, strict, monkeypatch):
    fast, slow, took = _parse_both_ways(text, monkeypatch)
    assert took == strict
    assert fast == slow
    assert fast.labels == slow.labels
    assert fast.weights.tobytes() == slow.weights.tobytes()


def test_plain_vertex_lines_skip_the_line_reader(monkeypatch):
    def line_reader(*args):
        raise AssertionError("plain vertex line read line by line")

    monkeypatch.setattr(pajek, "_vertex_line", line_reader)
    assert parse_pajek(DIAMOND).labels == ("a", "b", "c", "d")


def test_twenty_digit_weight_reads_as_float_does():
    net = parse_pajek("*Vertices 2\n*Arcs\n1 2 99999999999999999999\n")
    assert net.weights.tolist() == [1e20]


def test_vertex_ids_beyond_int_digit_limit_name_the_line():
    text = "*Vertices 2\n1 \"a\"\n" + "9" * 5000 + ' "b"\n'
    with pytest.raises(PajekParseError, match="line 3: vertex id"):
        parse_pajek(text)


def test_parse_peak_on_a_million_arc_lines():
    # a reader that makes one str per token peaks at about 23 times the
    # text on this input
    rng = np.random.default_rng(5)
    n, m = 50_000, 1_000_000
    tails = rng.integers(1, n + 1, m)
    heads = rng.integers(1, n + 1, m)
    labels = [f"p{v}" for v in range(1, n + 1)]
    text = "\n".join([f"*Vertices {n}",
                      *(f'{v} "{label}"' for v, label in enumerate(labels, 1)),
                      "*Arcs", *map("{} {}".format, tails.tolist(),
                                    heads.tolist())]) + "\n"
    tracemalloc.start()
    try:
        net = parse_pajek(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net == Network.from_arrays(n, tails, heads, None, labels)
    assert peak <= 8 * len(text), f"peak {peak / len(text):.1f}x the text"


@pytest.mark.parametrize("weighted", [False, True])
def test_write_peak_over_many_slices(monkeypatch, weighted):
    # a writer that holds every arc line at once peaks at about 19 (unit
    # weights) and 8 (float weights) times its output on this input; one
    # slice at a time, the text is held twice (the slices, then the join)
    # beside one slice's lists
    monkeypatch.setattr(pajek, "_CHUNK", 1 << 11)
    rng = np.random.default_rng(11)
    n, m = 1000, 12 * pajek._CHUNK
    net = Network.from_arrays(n, rng.integers(1, n + 1, m),
                              rng.integers(1, n + 1, m),
                              rng.random(m) if weighted else None)
    tracemalloc.start()
    try:
        text = write_pajek(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 2 + n + m
    assert peak <= 4 * len(text), f"peak {peak / len(text):.1f}x the text"
