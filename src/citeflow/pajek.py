"""Reading and writing the Pajek text formats (.net, .vec, .clu).

Supported .net grammar: one ``*Vertices n`` header, optional vertex lines
``id "label"`` (bare labels allowed, trailing layout fields ignored), one or
more ``*Arcs`` sections of ``tail head [weight]`` lines, ``%`` comments and
blank lines anywhere.  ``*Edges`` is rejected: citation networks are directed.
A body that passes a strict check is read whole, others line by line: the
lines ``1 "a"`` to ``n "z"`` by one split, plain arc lines (float weights
too) by ``np.fromstring``.  The writers render one slice of rows at a time,
integers by digit arithmetic on arrays and other values from their strs.
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
    and loops are preserved exactly as given.  A body of plain arc lines
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
            labels = _plain_labels(body, n) or _labels(body, line_no, n)
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
    """np.fromstring columns of an *Arcs body of `tail head [weight]` lines
    of digits, or None.  A weight may also hold, in this order, a leading
    `-`, a `.` beside a digit and an exponent: what float() reads, and
    fromstring rounds as float() does."""
    data = body.encode() if body.isascii() else b"x"
    floats = data.translate(None, b"0123456789 \t\n")  # . e E + -, or else
    if floats.translate(None, b".eE+-"):  # comments, inf...
        return None
    raw = np.frombuffer(data, np.uint8)
    edge = np.flatnonzero(np.diff(raw > 32, prepend=False, append=False))
    width = np.diff(np.searchsorted(edge[::2], np.flatnonzero(raw == 10)),
                    prepend=0, append=len(edge) // 2)  # tokens per line
    if not np.all((width <= 3) & (width != 1)):
        return None
    width = width[width > 0]
    if floats:  # each in a weight; kinds: -, ., e or E, then a sign
        at = np.flatnonzero((raw < 48) & (raw > 32) | (raw > 57))
        token = np.searchsorted(edge[::2], at, "right") - 1
        char, prev = raw[at], raw[at - 1]
        after = raw.take(at + 1, mode="clip")
        digit = [(c >= 48) & (c <= 57) for c in (prev, after, raw[at - 2])]
        sign = [(c == 43) | (c == 45) for c in (char, after)]
        kinds = [(char == 45) & (at == edge[::2][token]), char == 46,
                 char | 32 == 101, sign[0] & (prev | 32 == 101)]
        fine = np.select(kinds, [
            digit[1] | (after == 46), digit[0] | digit[1],
            (digit[0] | (prev == 46) & digit[2]) & (digit[1] | sign[1]),
            digit[1]], False)
        phase = np.select(kinds, [0, 1, 2, 3])
        weight = np.zeros(len(edge) // 2, bool)
        weight[(np.cumsum(width) - 1)[width == 3]] = True
        if not (fine.all() and weight[token].all() and np.all(  # in turn
                (phase[1:] > phase[:-1]) | (token[1:] != token[:-1]))):
            return None
        del at, token, char, prev, after, digit, sign, kinds, fine, phase
    floats = floats or np.any(edge[1::2] - edge[::2] > 18)  # past int64
    del data, raw, edge  # larger than the body: free before fromstring
    values = np.fromstring(body, np.float64 if floats else np.int64, sep=" ")
    if len(values) != width.sum():
        return None  # fromstring reads a blank body as [0]
    first = np.cumsum(width) - width  # each line's first token
    tails, heads = values[first], values[first + 1]
    if not np.all((0 < tails) & (tails <= n) & (0 < heads) & (heads <= n)):
        return None
    three = values.take(first + 2, mode="clip")  # a third token, if any
    return (tails.astype(np.int64, copy=False), heads.astype(
        np.int64, copy=False), np.where(width == 3, three, 1.0))


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


def _plain_labels(body: str, n: int) -> list[str] | None:
    """The labels of a body of the lines `1 "a"` to `n "z"`, or None."""
    parts = body.split('"')  # the text between the labels must be the ids
    return parts[1::2] if len(parts) == 2 * n + 1 and body.count("\n") == n \
        and '"'.join(parts[::2]) == ' "\n'.join(map(str, range(1, n + 1))) \
        + ' "\n' else None


def _labels(body: str, line_no: int, n: int) -> list[str]:
    """The labels of any other *Vertices body: by a regex if every line is
    plain, else line by line.  A vertex with no line is labelled str(id)."""
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
    return labels


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


def _rows(form: str, count: int, columns) -> list[str]:
    """The lines `form.format(*row)` of `count` rows, one text per `_CHUNK`
    slice `at`, from `columns(at)`: that slice's columns alone, each of
    numbers, written as format_number writes them, or (one at most) of
    strs, given as one text of a str a line."""
    return [_lines(form, [_column(c) for c in columns(slice(at, at + _CHUNK))],
                   min(_CHUNK, count - at)) for at in range(0, count, _CHUNK)]


def _column(values):
    """(magnitudes, signs, field width) of integers, integral floats below
    1e16 among them, with magnitudes below 2**32 as uint32, which divides
    faster; any other column as (its values' strs a line each, 0, 0)."""
    if isinstance(values, range):
        values = np.arange(values.start, values.stop, values.step)
    kind = "text" if isinstance(values, str) else getattr(
        values, "dtype", np.dtype(object)).kind
    if kind == "f":  # as format_number: integral values as ints, else repr
        values = values.astype(np.float64, copy=False)
        whole = (np.abs(values) < 1e16) & (np.trunc(values) == values)
        ints, kind = np.where(whole, values, 0).astype(np.int64), "i"
        if not whole.all():
            ints, kind = ints.astype(object), "text"
            ints[~whole] = values[~whole]  # as Python floats
            ints = repr(ints.tolist())[1:-1].replace(", ", "\n")
        values = ints
    if kind not in "iu":
        return (values if kind == "text" else "\n".join(map(
            format_number, np.asarray(values, object).tolist()))), 0, 0
    minus = values < 0
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=minus)  # |v|, int64's minimum too
    top = int(mag.max(initial=0))
    return (mag.astype(np.uint32) if top < 2 ** 32 else mag, minus,
            len(str(top)) + bool(minus.any()))


def _lines(form: str, columns, k: int) -> str:
    """One slice's lines.  The form's text and the integers go into a grid
    of k rows of bytes, each integer right-aligned in its column's field by
    one pass per digit place; one length mask picks the bytes to keep, and
    a str column's bytes are then spliced in where it stands."""
    texts = [t.encode() for t in form.format(*"\n" * len(columns)).split("\n")]
    texts[-1] += b"\n"
    grid = np.empty((k, sum(map(len, texts)) + sum(c[2] for c in columns)),
                    np.uint8)
    keep = np.ones(grid.shape, bool)
    at, kept, spliced = 0, np.zeros(k, np.int64), None
    for text, (mag, minus, width) in zip(texts, columns):
        grid[:, at:at + len(text)] = np.frombuffer(text, np.uint8)
        at, kept = at + len(text), kept + len(text)
        if isinstance(mag, str):
            spliced = mag, kept
            continue
        field, size = grid[:, at:at + width], minus + 1
        for place in range(width - 1, -1, -1):  # one pass per digit place
            high = mag // 10
            field[:, place] = mag - high * 10 + 48
            size += high > 0
            mag = high
        field[minus, width - size[minus]] = 45  # "-"
        keep[:, at:at + width] = np.arange(width) >= width - size[:, None]
        at, kept = at + width, kept + size
    grid[:, at:] = np.frombuffer(texts[-1], np.uint8)
    if spliced is None:
        return grid[keep].tobytes().decode()
    data = np.frombuffer(spliced[0].encode(), np.uint8)  # a str a line
    size = np.diff(np.flatnonzero(data == 10), prepend=-1, append=len(data))
    part = np.stack([spliced[1], size - 1, kept + len(texts[-1]) - spliced[1]])
    strs = np.repeat(np.tile([False, True, False], k), part.T.ravel())
    out = np.empty(len(strs), np.uint8)
    out[strs], out[~strs] = data[data != 10], grid[keep]
    return out.tobytes().decode()


def write_pajek(net: Network, weights: ArcWeights | None = None) -> str:
    """Render a Network as .net text, its vertex and arc lines one `_CHUNK`
    slice at a time, joined once.  `weights` overrides the stored arc weight
    column (same arc order).  A label holding a quote is written bare;
    ValueError if it cannot read back."""
    vals = net.weights if weights is None else weights
    if len(vals) != net.m:
        raise ValueError("weight vector does not match arc count")
    if any(map("".join(net.labels).__contains__, '"' + _LINE_BREAKS)):
        for label in net.labels:
            if (any(map(label.__contains__, _LINE_BREAKS)) or label[:1] == '"'
                    or '"' in label and label.split() != [label]):
                raise ValueError(f"vertex label {label!r} would not read back")
    return "".join([f"*Vertices {net.n}\n", *_rows("{} {}", net.n, lambda at: (
        range(1, net.n + 1)[at],
        "\n".join(s if '"' in s else f'"{s}"' for s in net.labels[at]))),
        "*Arcs\n", *_rows("{} {} {}", net.m, lambda at: (
            net.tails[at], net.heads[at], vals[at]))])


def write_vector(values) -> str:
    """Render per-vertex numeric values as .vec text, one slice at a time."""
    return "".join([f"*Vertices {len(values)}\n", *_rows(
        "{}", len(values), lambda at: (values[at],))])


def write_partition(classes) -> str:
    """Render per-vertex integer class ids as .clu text."""
    return write_vector(np.asarray(classes, dtype=np.int64))
