"""Vertex partitions: characteristic matrices, equitability, quotients.

A partition is equitable when every vertex of a cell sees the same number
of R_i-neighbours in every cell, for every relation; equivalently, when its
projector commutes with every relation matrix. Both tests, and the cell-pair
counts C_i = H^T A_i H of ``feasibility``, share one count, ``_pair_counts``:
a bincount per relation over ``AssociationScheme.relation_pairs``. The
commutation test reads the cells off the projector F and each FA_i - A_iF
off these counts, with no v x v product. Independent of that count stay
the float64 product A_i H = H N_i that ``is_equitable`` asserts,
``feasibility.trace_profile``'s own count, and the test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InputError, InternalConsistencyError
from .ratmat import RationalMatrix, column_space_projector
from .scheme import AssociationScheme


@dataclass(frozen=True)
class Partition:
    """Partition of a labeled vertex set into ordered, nonempty cells.

    Cell order is the input order; vertices inside a cell are stored in
    ascending index order. Validation happens here, so downstream code may
    assume disjoint nonempty cells covering every vertex.
    """

    labels: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cell in self.cells:
            if not cell:
                raise InputError("empty cell")
            for x in cell:
                if not (0 <= x < len(self.labels)):
                    raise InputError(f"vertex index {x} out of range")
                if x in seen:
                    raise InputError(
                        f"vertex {self.labels[x]!r} appears in two cells")
                seen.add(x)
            if tuple(sorted(cell)) != cell:
                raise InputError("cell vertices must be sorted ascending")
        if len(seen) != len(self.labels):
            missing = next(i for i in range(len(self.labels)) if i not in seen)
            raise InputError(f"vertex {self.labels[missing]!r} is in no cell")

    @property
    def v(self) -> int:
        return len(self.labels)

    @property
    def t(self) -> int:
        return len(self.cells)

    @property
    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    @cached_property
    def cell_of(self) -> tuple[int, ...]:
        out = [0] * self.v
        for k, cell in enumerate(self.cells):
            for x in cell:
                out[x] = k
        return tuple(out)

    def characteristic_matrix(self) -> RationalMatrix:
        """v x t 0/1 matrix H whose columns are the cell indicators."""
        return RationalMatrix([[int(self.cell_of[x] == k) for k in range(self.t)]
                               for x in range(self.v)])

    def cell_size_diagonal(self) -> RationalMatrix:
        """D = H^T H, the diagonal matrix of cell sizes."""
        return RationalMatrix.diagonal(self.cell_sizes)


def make_partition(scheme_or_labels, cells) -> Partition:
    """Validated partition from cells given as vertex labels or indices."""
    if isinstance(scheme_or_labels, AssociationScheme):
        labels = scheme_or_labels.labels
    else:
        labels = tuple(scheme_or_labels)
    index = {label: i for i, label in enumerate(labels)}
    resolved = []
    for cell in cells:
        members = []
        for x in cell:
            if isinstance(x, int):
                if not (0 <= x < len(labels)):
                    raise InputError(f"vertex index {x} out of range")
                members.append(x)
            else:
                try:
                    members.append(index[str(x)])
                except KeyError:
                    raise InputError(f"unknown vertex label {x!r}") from None
        resolved.append(tuple(sorted(members)))
    return Partition(labels, tuple(resolved))


def singleton_partition(s: AssociationScheme) -> Partition:
    return Partition(s.labels, tuple((x,) for x in range(s.v)))


def one_cell_partition(s: AssociationScheme) -> Partition:
    return Partition(s.labels, (tuple(range(s.v)),))


@dataclass(frozen=True)
class EquitabilityWitness:
    """First violating pair found by the deterministic scan.

    The scan runs lexicographically over (relation, cell, vertex); the
    reference vertex is the first vertex of the cell and ``vertex`` is the
    first cell-mate whose neighbour-count profile differs. ``target_cells``
    lists every cell against which the two profiles disagree, with the full
    profiles alongside, so any single disagreement can be read off.
    """

    relation: int
    cell: int  # 0-based index of the cell containing the pair
    vertex_ref: int
    vertex: int
    target_cells: tuple[int, ...]
    counts_ref: tuple[int, ...]
    counts: tuple[int, ...]

    def describe(self, labels: tuple[str, ...]) -> str:
        diffs = ", ".join(
            f"C_{j + 1} ({self.counts[j]} vs {self.counts_ref[j]})"
            for j in self.target_cells)
        return (f"relation {self.relation}, cell C_{self.cell + 1}: vertex "
                f"{labels[self.vertex]!r} vs {labels[self.vertex_ref]!r} "
                f"disagree on {diffs}")


@dataclass(frozen=True)
class EquitabilityResult:
    equitable: bool
    quotients: tuple[RationalMatrix, ...] | None = None
    witness: EquitabilityWitness | None = None


def _pair_counts(s: AssociationScheme, rows: np.ndarray, cols: np.ndarray):
    """Per relation i = 0..d in turn, the int64 array counting the pairs
    (x, y) of R_i by (rows[x], cols[y]): n_i(x, C) for rows the identity and
    cols the cells, C_i = H^T A_i H for both the cells. One ``np.bincount``
    over ``s.relation_pairs`` each; the extra memory is one such array."""
    shape = (int(rows.max()) + 1, int(cols.max()) + 1)
    for xs, ys in s.relation_pairs:
        key = rows[xs] * shape[1] + cols[ys]
        yield np.bincount(key, minlength=shape[0] * shape[1]).reshape(shape)


def is_equitable(s: AssociationScheme, part: Partition) -> EquitabilityResult:
    """Combinatorial equitability test with quotient matrices or a witness.

    Reads the counts n_i(x, C) off ``_pair_counts``, one relation at a time.
    The witness is the first (relation, cell, vertex) in that order whose
    profile differs from that of the cell's first vertex. On success the
    quotients N_i satisfy A_i H = H N_i, which is asserted before returning
    as a float64 product of the 0/1 indicator of R_i with H, independent of
    the bincount; every entry counts at most v < 2^53 vertices, so the
    product is exact.
    """
    if part.labels != s.labels:
        raise InputError("partition is over a different vertex set")
    cell = np.array(part.cell_of)
    first = np.array([c[0] for c in part.cells])
    quotients = []
    for i, n_i in enumerate(_pair_counts(s, np.arange(s.v), cell)):
        ref = n_i[first]  # row k: the profile of cell k's first vertex
        bad = (n_i != ref[cell]).any(axis=1)
        if bad.any():
            k = int(cell[bad].min())
            x = int(np.argmax(bad & (cell == k)))
            diffs = np.flatnonzero(n_i[x] != ref[k])
            return EquitabilityResult(False, witness=EquitabilityWitness(
                relation=i, cell=k, vertex_ref=part.cells[k][0], vertex=x,
                target_cells=tuple(diffs.tolist()),
                counts_ref=tuple(ref[k].tolist()),
                counts=tuple(n_i[x].tolist())))
        quotients.append(ref)
    h = np.eye(part.t)[cell]
    for i, ((xs, ys), n_i) in enumerate(zip(s.relation_pairs, quotients)):
        a_i = np.zeros((s.v, s.v))
        a_i[xs, ys] = 1.0
        if not np.array_equal(a_i @ h, h @ n_i):
            raise InternalConsistencyError(
                f"quotient identity A_{i} H = H N_{i} failed after "
                "a positive count test")
    return EquitabilityResult(True, quotients=tuple(
        RationalMatrix(n_i.tolist()) for n_i in quotients))


def partition_projector(part: Partition) -> RationalMatrix:
    """Orthogonal projector onto the column space of H.

    Entry (x, y) is 1/|C| when x and y share the cell C, else 0.
    """
    f = column_space_projector(part.characteristic_matrix())
    for x in range(part.v):
        for y in range(part.v):
            same = part.cell_of[x] == part.cell_of[y]
            want = Fraction(1, len(part.cells[part.cell_of[x]])) if same else 0
            if f[x][y] != want:
                raise InternalConsistencyError("projector lost its block form")
    return f


def _projector_cells(f: RationalMatrix) -> list[int]:
    """Cell index of every vertex, read off a partition projector F.

    The support of row x is the cell C(x); every row must equal its cell's
    template row exactly (1/|C| on C, 0 elsewhere), else InputError.
    """
    v = f.nrows
    cell_of = [-1] * v
    templates: list[tuple[Fraction, ...]] = []
    zero = Fraction(0)
    for x, row in enumerate(f.rows):
        if cell_of[x] < 0:
            cell = {y for y, entry in enumerate(row) if entry}
            if x not in cell or any(cell_of[y] >= 0 for y in cell):
                raise InputError("matrix is not the projector of a partition")
            share = Fraction(1, len(cell))
            for y in cell:
                cell_of[y] = len(templates)
            templates.append(tuple(share if y in cell else zero
                                   for y in range(v)))
        if row != templates[cell_of[x]]:
            raise InputError("matrix is not the projector of a partition")
    return cell_of


def commutes_with_scheme(f: RationalMatrix, s: AssociationScheme
                         ) -> tuple[bool, Fraction]:
    """Exact commutation test of a partition projector F against every A_i.

    Returns (commutes, largest absolute entry of any commutator FA_i - A_iF).
    F must be the block projector of a partition (entry 1/|C| when x and y
    share the cell C, else 0), as ``partition_projector`` returns; any other
    matrix raises InputError. The commutator is read off the relation table
    without forming a v x v product: with n_i(x, C) the number of y in C
    with (x, y) in R_i, (FA_i)[x][y] = n_i(y, C(x))/|C(x)|, so its entry is

        (n_i(y, C(x))|C(y)| - n_i(x, C(y))|C(x)|) / (|C(x)||C(y)|).

    Each n_i comes from ``_pair_counts``, one relation at a time. Every
    numerator is at most v^2 in absolute value, so int64 holds it exactly;
    the largest ratio is located in float64, which cannot confuse two
    distinct ratios (they differ by at least 1/v^4), and returned as an
    exact Fraction.
    """
    if f.shape != (s.v, s.v):
        raise InputError(f"projector shape {f.shape} does not match v={s.v}")
    cell_of = np.array(_projector_cells(f))
    size_of = np.bincount(cell_of)[cell_of]  # |C(x)|
    den = np.outer(size_of, size_of)
    worst = Fraction(0)
    for n_i in _pair_counts(s, np.arange(s.v), cell_of):
        m = n_i.T[cell_of] * size_of  # m[x, y] = n_i(y, C(x))|C(y)|
        num = np.abs(m - m.T)
        if num.any():
            k = int(np.argmax(num / den))
            worst = max(worst, Fraction(int(num.flat[k]), int(den.flat[k])))
    return worst == 0, worst


def distance_partition(s: AssociationScheme, i: int, code
                       ) -> tuple[Partition, int]:
    """Distance partition of the graph (V, R_i) around a vertex subset.

    Cells are ordered by distance 0..rho; returns (partition, covering
    radius rho). Requires (V, R_i) connected and the code nonempty.
    """
    if not (0 <= i <= s.d):
        raise InputError(f"relation index {i} out of range 0..{s.d}")
    start = sorted(s.vertex(x) if not isinstance(x, int) else x for x in code)
    if not start:
        raise InputError("code must be nonempty")
    for x in start:
        if not (0 <= x < s.v):
            raise InputError(f"vertex index {x} out of range")
    dist = [-1] * s.v
    frontier = list(dict.fromkeys(start))
    for x in frontier:
        dist[x] = 0
    neigh = s.relation_neighbors[i]
    level = 0
    cells = [tuple(sorted(frontier))]
    while True:
        nxt = sorted({y for x in frontier for y in neigh[x] if dist[y] < 0})
        if not nxt:
            break
        level += 1
        for y in nxt:
            dist[y] = level
        cells.append(tuple(nxt))
        frontier = nxt
    if any(x < 0 for x in dist):
        raise InputError(f"the graph (V, R_{i}) is disconnected")
    return Partition(s.labels, tuple(cells)), level
