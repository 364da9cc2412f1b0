"""Documented errors that no other test reaches: each raise site below
behaves as its docstring or the CLI's exit codes say."""

import numpy as np
import pytest

from citeflow import (ArcWeights, Network, PajekParseError, complete_acyclic,
                      parse_pajek, random_dag)
from citeflow.cli import main


def _cli(tmp_path, capsys, text, argv):
    src = tmp_path / "in.net"
    src.write_text(text)
    code = main([argv[0], str(src), *argv[1:], "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("mode", ["float", "log", "exact"])
def test_normalize_without_flow_exits_2(tmp_path, capsys, mode):
    code, err = _cli(tmp_path, capsys, "*Vertices 0\n",
                     ["weights", "--normalize", "--mode", mode])
    assert code == 2
    assert "total flow is zero" in err


@pytest.mark.parametrize("text", ["*Vertices 0\n", '*Vertices 2\n1 "a"\n'])
def test_hits_without_arcs_exits_2(tmp_path, capsys, text):
    code, err = _cli(tmp_path, capsys, text, ["hits"])
    assert code == 2
    assert "at least one arc" in err


def test_hits_csv_quotes_labels_with_commas_and_quotes(tmp_path, capsys):
    code, _ = _cli(tmp_path, capsys, '*Vertices 3\n1 "a,b"\n2 x"y\n3 "p"\n'
                   "*Arcs\n1 2\n2 3\n1 3\n", ["hits"])
    assert code == 0
    rows = (tmp_path / "o" / "hits.csv").read_text().splitlines()
    assert rows[1].split(",")[:3] == ["1", "3", "p"]
    assert ',1,"a,b",' in rows[1] and ',2,"x""y",' in rows[2]


@pytest.mark.parametrize("text, line_no, fragment", [
    ("", 1, "missing *Vertices header"),
    ("% only a comment\n\n", 3, "missing *Vertices header"),
    ("*Vertices\n", 1, "expected '*Vertices n'"),
    ("% c\n*Vertices 2 3\n", 2, "expected '*Vertices n'"),
    ("*Vertices -1\n", 1, "negative vertex count"),
])
def test_parse_header_errors(text, line_no, fragment):
    with pytest.raises(PajekParseError, match=f"line {line_no}: ") as info:
        parse_pajek(text)
    assert fragment in str(info.value)


@pytest.mark.parametrize("build, fragment", [
    (lambda: ArcWeights([1.0], "int"), "unknown numeric mode"),
    (lambda: ArcWeights([[1.0, 2.0]], "float"), "flat sequence"),
    (lambda: ArcWeights([[1, 2]], "exact"), "flat sequence"),
    (lambda: Network.from_arrays(3, [1], [2, 3]), "equal length"),
    (lambda: Network.from_arrays(3, [1], [2], np.ones(2)), "equal length"),
    (lambda: complete_acyclic(0), "n must be positive"),
    (lambda: random_dag(0, 0.5, 1), "n must be positive"),
    (lambda: random_dag(3, 1.5, 1), "density must lie in"),
    (lambda: random_dag(3, -0.5, 1), "density must lie in"),
])
def test_constructors_refuse_bad_arguments(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()
