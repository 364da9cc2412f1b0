"""Reading and writing the Pajek text formats (.net, .vec, .clu).

Supported .net grammar: one ``*Vertices n`` header, optional vertex lines
``id "label"`` (bare labels allowed, trailing layout fields ignored), one or
more ``*Arcs`` sections of ``tail head [weight]`` lines, ``%`` comments and
blank lines anywhere.  ``*Edges`` is rejected: citation networks are directed.
A body that passes a strict check is read whole, others line by line.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from .network import _CHUNK, ArcWeights, Network

_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # as str.splitlines


class PajekParseError(ValueError):
    """Malformed Pajek input; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_pajek(text: str) -> Network:
    """Parse .net text into a Network.

    Vertices without an explicit line get str(id) as label.  Parallel arcs
    and loops are preserved exactly as given.  A body of plain integer arcs
    (see _strict_arcs) or of plain ``id "label"`` lines is read whole; any
    other is read line by line, and an error names the first bad line.
    """
    flat = ("\n".join(text.splitlines())  # "\n" for every line break
            if any(map(text.__contains__, _LINE_BREAKS[1:])) else text)
    headers, at = [], flat.find("*")  # where each header line starts
    while at >= 0:
        start = flat.rfind("\n", 0, at) + 1
        if not flat[start:at].strip():
            headers.append(start)
        at = flat.find("*", flat.find("\n", at) + 1 or len(flat))
    bounds = headers + [len(flat)]
    for line_no, line in enumerate(flat[:bounds[0]].split("\n"), start=1):
        if line.strip()[:1] not in ("", "%"):
            raise PajekParseError("content before *Vertices header", line_no)
    if not headers:
        raise PajekParseError("missing *Vertices header",
                              max(1, text.count("\n") + 1))
    n, labels, arcs = -1, [], []  # arcs: one column triple per section
    for at, stop in zip(headers, bounds[1:]):
        header, _, body = flat[at:stop].partition("\n")
        line_no, parts = flat.count("\n", 0, at) + 1, header.split()
        key = parts[0].lower()
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
            found = re.findall(  # an id of 1 to 18 digits, no leading 0
                r'^[ \t]*(?:([1-9]\d{0,17})[ \t]+"([^"\n]*)"[ \t]*)?$', body, re.M)
            rows = [(int(vid), label) for vid, label in found if vid]
            if len(found) <= body.count("\n") or rows and max(rows)[0] > n:
                rows = [_vertex_line(line, no, n) for no, line in enumerate(
                    map(str.strip, body.split("\n")), start=line_no + 1)
                    if line and line[0] != "%"]
            for vid, label in rows:
                labels[vid - 1] = label
            del found, rows  # as large as the body: free before *Arcs
        elif key == "*arcs":
            if n < 0:
                raise PajekParseError("*Arcs before *Vertices", line_no)
            arcs.append(_strict_arcs(body, n) or _arc_lines(
                body.split("\n"), line_no + 1, n))
        elif key == "*edges":
            raise PajekParseError(
                "undirected *Edges are not supported; citation networks "
                "are directed", line_no)
        else:
            raise PajekParseError(f"unsupported section {key!r}", line_no)
    tails, heads, weights = (map(np.concatenate, zip(*arcs)) if arcs
                             else ((),) * 3)
    return Network.from_arrays(n, tails, heads, weights, labels)


def _strict_arcs(body: str, n: int):
    """np.fromstring columns of an *Arcs body of plain integers, or None."""
    data = body.encode() if body.isascii() else b"-"
    if data.translate(None, b"0123456789 \t\n"):  # signs, dots, comments...
        return None
    raw = np.frombuffer(data, np.uint8)
    edge = np.flatnonzero(np.diff(raw > 32, prepend=False, append=False))
    if np.any(edge[1::2] - edge[::2] > 18):  # fromstring saturates 19 digits
        return None
    width = np.diff(np.searchsorted(edge[::2], np.flatnonzero(raw == 10)),
                    prepend=0, append=len(edge) // 2)  # tokens per line
    del data, raw, edge  # larger than the body: free before fromstring
    values = np.fromstring(body, np.int64, sep=" ")
    if len(values) != width.sum() or not np.isin(width, (0, 2, 3)).all():
        return None  # fromstring reads a blank body as [0]
    width = width[width > 0]
    first = np.cumsum(width) - width  # each line's first token
    tails, heads = values[first], values[first + 1]
    if not np.all((0 < tails) & (tails <= n) & (0 < heads) & (heads <= n)):
        return None
    three = values.take(first + 2, mode="clip")  # a third token, if any
    return tails, heads, np.where(width == 3, three, 1.0)


def _arc_lines(body: list[str], first_no: int, n: int):
    """(tails, heads, weights) of *Arcs lines, read one by one with Python's
    int and float; PajekParseError names the first malformed line."""
    tails, heads, weights = [], [], []
    for line_no, line in enumerate(body, start=first_no):
        parts = line.split()
        if not parts or parts[0][0] == "%":
            continue
        if len(parts) not in (2, 3):
            raise PajekParseError("expected 'tail head [weight]'", line_no)
        try:
            tail, head = int(parts[0]), int(parts[1])
        except ValueError:
            raise PajekParseError("arc endpoint is not an integer",
                                  line_no) from None
        try:
            weight = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise PajekParseError("arc weight is not a number",
                                  line_no) from None
        if not 1 <= tail <= n or not 1 <= head <= n:
            raise PajekParseError(
                f"arc ({tail}, {head}) references a vertex outside 1..{n}",
                line_no)
        tails.append(tail)
        heads.append(head)
        weights.append(weight)
    return (np.array(tails, np.int64), np.array(heads, np.int64),
            np.array(weights, np.float64))


def _vertex_line(line: str, line_no: int, n: int) -> tuple[int, str]:
    parts = line.split(None, 1)
    try:
        vid = int(parts[0])
    except ValueError:
        raise PajekParseError("vertex id is not an integer", line_no) from None
    label = parts[1] if len(parts) == 2 else str(vid)  # quoted, or one token
    label, quote, _ = (label[1:].partition('"') if label[:1] == '"'
                       else (label.split()[0], '"', ""))
    if not quote:
        raise PajekParseError("unterminated label quote", line_no)
    if not 1 <= vid <= n:
        raise PajekParseError(f"vertex id {vid} out of range 1..{n}", line_no)
    return vid, label


# --- writers ---

def format_number(value) -> str:
    """Integral values render without a decimal point; floats use repr."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    value = float(value)
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _numbers(values) -> list[str]:
    """format_number over a column (sequence, array or ArcWeights).  A
    float64 array takes one mask of its integral values: those are cast to
    int64, so str renders every value, an int's digits or a float's repr."""
    values = values.values if isinstance(values, ArcWeights) else values
    if getattr(values, "dtype", None) != np.float64:
        return list(map(format_number, values.tolist()
                        if hasattr(values, "tolist") else values))
    whole = (np.abs(values) < 1e16) & (np.trunc(values) == values)
    out = np.where(whole, values, 0).astype(np.int64).astype(object)
    out[~whole] = values[~whole]  # as Python floats
    return list(map(str, out))


def write_pajek(net: Network, weights: ArcWeights | None = None) -> str:
    """Render a Network as .net text, its arc lines one `_CHUNK` slice at a
    time, so that one slice's per-arc lists live beside the text, which is
    joined once.  `weights` overrides the stored arc weight column (same arc
    order).  A label holding a quote is written bare; ValueError if it cannot
    read back."""
    vals = net.weights if weights is None else weights
    if len(vals) != net.m:
        raise ValueError("weight vector does not match arc count")
    if any(map("".join(net.labels).__contains__, '"' + _LINE_BREAKS)):
        for label in net.labels:
            if (any(map(label.__contains__, _LINE_BREAKS)) or label[:1] == '"'
                    or '"' in label and label.split() != [label]):
                raise ValueError(f"vertex label {label!r} would not read back")
    out = [f"*Vertices {net.n}"]
    out += [f"{v} {label}" if '"' in label else f'{v} "{label}"'
            for v, label in enumerate(net.labels, start=1)]
    out.append("*Arcs")
    for at in range(0, net.m, _CHUNK):
        part = slice(at, at + _CHUNK)
        out.append("\n".join(map(
            "{} {} {}".format, net.tails[part].tolist(),
            net.heads[part].tolist(), _numbers(vals[part]))))
    out.append("")  # the last line break, with no copy of the text
    return "\n".join(out)


def write_vector(values) -> str:
    """Render per-vertex numeric values as .vec text."""
    out = _numbers(values)
    return "\n".join([f"*Vertices {len(out)}", *out]) + "\n"


def write_partition(classes) -> str:
    """Render per-vertex integer class ids as .clu text."""
    return write_vector(np.asarray(classes, dtype=np.int64))
