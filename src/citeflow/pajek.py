"""Reading and writing the Pajek text formats (.net, .vec, .clu).

Supported .net grammar: one ``*Vertices n`` header, optional vertex lines
``id "label"`` (bare labels allowed, trailing layout fields ignored), one or
more ``*Arcs`` sections of ``tail head [weight]`` lines, ``%`` comments and
blank lines anywhere.  ``*Edges`` is rejected: citation networks are directed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .network import ArcWeights, Network


class PajekParseError(ValueError):
    """Malformed Pajek input; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_pajek(text: str) -> Network:
    """Parse .net text into a Network.

    Vertices without an explicit line get str(id) as label.  Parallel arcs
    and loops are preserved exactly as given.  Each *Arcs section converts
    in bulk with Python's int and float; a section that fails is scanned
    line by line for the first bad line, which the error then names.
    """
    lines = [raw.strip() for raw in text.splitlines()]
    headers = [i for i, line in enumerate(lines) if line[:1] == "*"]
    bounds = headers + [len(lines)]
    for line_no, line in enumerate(lines[:bounds[0]], start=1):
        if line and line[0] != "%":
            raise PajekParseError("content before *Vertices header", line_no)
    if not headers:
        raise PajekParseError("missing *Vertices header",
                              max(1, text.count("\n") + 1))
    n, labels, arcs = -1, [], []  # arcs: one column triple per section
    for at, end in zip(headers, bounds[1:]):
        line_no, parts = at + 1, lines[at].split()
        key = parts[0].lower()
        body = lines[at + 1:end]
        if key == "*vertices":
            if n >= 0:
                raise PajekParseError("duplicate *Vertices section", line_no)
            if len(parts) != 2:
                raise PajekParseError("expected '*Vertices n'", line_no)
            try:
                n = int(parts[1])
            except ValueError:
                raise PajekParseError("vertex count is not an integer",
                                      line_no) from None
            if n < 0:
                raise PajekParseError("negative vertex count", line_no)
            labels = [str(v) for v in range(1, n + 1)]
            for line_no, line in enumerate(body, start=at + 2):
                if not line or line[0] == "%":
                    continue
                vid, label = _vertex_line(line, line_no)
                if not 1 <= vid <= n:
                    raise PajekParseError(
                        f"vertex id {vid} out of range 1..{n}", line_no)
                labels[vid - 1] = label
        elif key == "*arcs":
            if n < 0:
                raise PajekParseError("*Arcs before *Vertices", line_no)
            try:
                arcs.append(_arc_rows([line for line in body
                                       if line and line[0] != "%"], n))
            except (ValueError, OverflowError):
                _first_bad_arc(body, at + 2, n)
        elif key == "*edges":
            raise PajekParseError(
                "undirected *Edges are not supported; citation networks "
                "are directed", line_no)
        else:
            raise PajekParseError(f"unsupported section {key!r}", line_no)
    tails, heads, weights = (map(np.concatenate, zip(*arcs)) if arcs
                             else ((),) * 3)
    return Network.from_arrays(n, tails, heads, weights, labels)


def _arc_rows(rows: list[str], n: int):
    """(tails, heads, weights) of stripped arc lines, converted in bulk with
    Python's int and float; ValueError or OverflowError if a line is bad."""
    width = np.fromiter(map(len, map(str.split, rows)), np.int64, len(rows))
    three = width == 3
    if not np.all(three | (width == 2)):
        raise ValueError
    token = " ".join(rows).split().__getitem__
    first = np.cumsum(width) - width  # each row's first token
    tails, heads = (np.fromiter(map(int, map(token, (first + k).tolist())),
                                np.int64, len(rows)) for k in (0, 1))
    weights = np.ones(len(rows))
    weights[three] = np.fromiter(
        map(float, map(token, (first[three] + 2).tolist())), np.float64)
    if rows and not (1 <= min(tails.min(), heads.min())
                     and max(tails.max(), heads.max()) <= n):
        raise ValueError
    return tails, heads, weights


def _first_bad_arc(body: list[str], first_no: int, n: int):
    """Raise PajekParseError for the first malformed arc line in `body`."""
    for line_no, line in enumerate(body, start=first_no):
        if not line or line[0] == "%":
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise PajekParseError("expected 'tail head [weight]'", line_no)
        try:
            tail, head = int(parts[0]), int(parts[1])
        except ValueError:
            raise PajekParseError("arc endpoint is not an integer",
                                  line_no) from None
        if len(parts) == 3:
            try:
                float(parts[2])
            except ValueError:
                raise PajekParseError("arc weight is not a number",
                                      line_no) from None
        if not 1 <= tail <= n or not 1 <= head <= n:
            raise PajekParseError(
                f"arc ({tail}, {head}) references a vertex outside 1..{n}",
                line_no)


def _vertex_line(line: str, line_no: int) -> tuple[int, str]:
    parts = line.split(None, 1)
    try:
        vid = int(parts[0])
    except ValueError:
        raise PajekParseError("vertex id is not an integer", line_no) from None
    if len(parts) == 1:
        return vid, str(vid)
    rest = parts[1].lstrip()
    if rest.startswith('"'):
        end = rest.find('"', 1)
        if end < 0:
            raise PajekParseError("unterminated label quote", line_no)
        return vid, rest[1:end]
    return vid, rest.split()[0]


# --- writers ---

def format_number(value) -> str:
    """Integral values render without a decimal point; floats use repr."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        value = float(value)
    value = float(value)
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _numbers(values) -> list[str]:
    """format_number over a column (sequence, array or ArcWeights), with
    its rule for Python floats inlined."""
    if hasattr(values, "tolist"):
        values = values.tolist()
    return [(str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v))
            if type(v) is float else format_number(v) for v in values]


def write_pajek(net: Network, weights: ArcWeights | None = None) -> str:
    """Render a Network as .net text.

    `weights` overrides the stored arc weight column (same arc order).
    """
    if weights is not None and len(weights) != net.m:
        raise ValueError("weight vector does not match arc count")
    out = [f"*Vertices {net.n}"]
    out += [f'{v} "{label}"' for v, label in enumerate(net.labels, start=1)]
    out.append("*Arcs")
    out += map("{} {} {}".format, net.tails.tolist(), net.heads.tolist(),
               _numbers(net.weights if weights is None else weights))
    return "\n".join(out) + "\n"


def write_vector(values) -> str:
    """Render per-vertex numeric values as .vec text."""
    out = _numbers(values)
    return "\n".join([f"*Vertices {len(out)}", *out]) + "\n"


def write_partition(classes) -> str:
    """Render per-vertex integer class ids as .clu text."""
    seq = [int(c) for c in classes]
    out = [f"*Vertices {len(seq)}"]
    out.extend(str(c) for c in seq)
    return "\n".join(out) + "\n"
