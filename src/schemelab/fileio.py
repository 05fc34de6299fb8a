"""File formats: edge lists, relation matrices, partitions, permutations.

All formats are plain text. Vertex labels are opaque whitespace-free
tokens; "#" starts a comment anywhere on a line. Rational numbers are
serialized as "p/q" (or "p" for integers) so nothing is lost to floats.
"""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import InputError
from .scheme import LabeledGraph


def format_rational(x) -> str:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _clean_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        out.append(line)
    return out


def read_edge_list(path) -> LabeledGraph:
    """One "u v" pair per line; labels are arbitrary tokens."""
    pairs = []
    for lineno, line in enumerate(_clean_lines(Path(path).read_text()), start=1):
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise InputError(f"{path}:{lineno}: expected two labels, got {line!r}")
        pairs.append((tokens[0], tokens[1]))
    if not pairs:
        raise InputError(f"{path}: no edges found")
    return LabeledGraph.from_edge_labels(pairs)


def read_relation_file(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Header "v d", then d+1 blocks of v rows of 0/1, blank-line separated.

    Rows may be whitespace-separated digits or one contiguous 0/1 string.
    Vertices are labeled "0".."v-1". Returns the labels and the blocks as
    one integer array of shape (d+1, v, v), block i being A_i; entries are
    kept as read, so a 2 is left for the axiom check to report.
    """
    lines = _clean_lines(Path(path).read_text())
    body = [ln for ln in lines if ln]
    if not body:
        raise InputError(f"{path}: empty relation file")
    header = body[0].split()
    if len(header) != 2:
        raise InputError(f"{path}: header must be 'v d', got {body[0]!r}")
    try:
        v, d = int(header[0]), int(header[1])
    except ValueError:
        raise InputError(f"{path}: non-integer header {body[0]!r}") from None
    if v < 1 or d < 0:
        raise InputError(f"{path}: header values out of range")
    rows_needed = (d + 1) * v
    data_rows = body[1:]
    if len(data_rows) != rows_needed:
        raise InputError(f"{path}: expected {rows_needed} matrix rows, "
                         f"got {len(data_rows)}")
    rows = []
    for line in data_rows:
        tokens = line.split()
        if len(tokens) == 1:
            tokens = list(tokens[0])
        if len(tokens) != v:
            raise InputError(f"{path}: row {line!r} has {len(tokens)} "
                             f"entries, expected {v}")
        try:
            rows.append(list(map(int, tokens)))
        except ValueError:
            raise InputError(f"{path}: non-integer entry in {line!r}") from None
    labels = tuple(str(i) for i in range(v))
    return labels, np.array(rows).reshape(d + 1, v, v)


def read_partition_file(path, labels) -> list[list[str]]:
    """One cell per line, vertex labels whitespace-separated."""
    known = set(labels)
    cells = []
    for lineno, line in enumerate(_clean_lines(Path(path).read_text()), start=1):
        if not line:
            continue
        tokens = line.split()
        for t in tokens:
            if t not in known:
                raise InputError(f"{path}:{lineno}: unknown vertex label {t!r}")
        cells.append(tokens)
    if not cells:
        raise InputError(f"{path}: no cells found")
    return cells


def read_permutation_file(path, labels) -> dict[str, str] | list[str]:
    """Either one "x y" mapping per line, or a single line of images.

    The single-line form lists sigma(x) for every vertex x in scheme order.
    """
    lines = [ln for ln in _clean_lines(Path(path).read_text()) if ln]
    if not lines:
        raise InputError(f"{path}: empty permutation file")
    if len(lines) == 1 and len(lines[0].split()) == len(labels) != 2:
        return lines[0].split()
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if len(tokens) != 2:
            raise InputError(f"{path}:{lineno}: expected 'x y', got {line!r}")
        if tokens[0] in mapping:
            raise InputError(f"{path}:{lineno}: vertex {tokens[0]!r} mapped twice")
        mapping[tokens[0]] = tokens[1]
    return mapping
