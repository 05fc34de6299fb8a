"""Symmetric association schemes: construction and axiom verification.

A scheme is a family of 0/1 relation matrices A_0..A_d on a vertex set V
with A_0 = I, sum A_i = J, every A_i symmetric, and every product A_i A_j
an integer combination of the family. Distance-regular graphs give the main
examples; named families (Hamming, Johnson, cycles, Petersen) are built
here, and arbitrary relation matrices can be verified directly.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError, NotDistanceRegularError
from .ratmat import RationalMatrix

DEFAULT_MAX_VERTICES = 512


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph over opaque string labels."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]  # index pairs, i < j, sorted

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise InputError("duplicate vertex labels")
        for a, b in self.edges:
            if a == b:
                raise InputError(f"loop at vertex {self.labels[a]!r}")
            if not (0 <= a < self.v and 0 <= b < self.v):
                raise InputError("edge endpoint out of range")
        if len(set(self.edges)) != len(self.edges):
            raise InputError("repeated edge")

    @classmethod
    def from_edge_labels(cls, pairs, labels=None) -> "LabeledGraph":
        """Build from (label, label) pairs.

        Vertex order is first appearance unless an explicit label order is
        supplied.
        """
        if labels is not None:
            labels = [str(x) for x in labels]
            index = {token: i for i, token in enumerate(labels)}
            for u, v in pairs:
                for token in (str(u), str(v)):
                    if token not in index:
                        raise InputError(f"edge endpoint {token!r} not in "
                                         "the supplied label order")
        else:
            labels = []
            index = {}
            for u, v in pairs:
                for token in (str(u), str(v)):
                    if token not in index:
                        index[token] = len(labels)
                        labels.append(token)
        edges = set()
        for u, v in pairs:
            a, b = index[str(u)], index[str(v)]
            if a == b:
                raise InputError(f"loop at vertex {u!r}")
            edges.add((min(a, b), max(a, b)))
        return cls(tuple(labels), tuple(sorted(edges)))

    @property
    def v(self) -> int:
        return len(self.labels)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.v)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(frozenset(s) for s in adj)

    def adjacency(self) -> RationalMatrix:
        rows = [[0] * self.v for _ in range(self.v)]
        for a, b in self.edges:
            rows[a][b] = rows[b][a] = 1
        return RationalMatrix(rows)


@dataclass(frozen=True)
class AssociationScheme:
    """Verified symmetric association scheme.

    Immutable after construction; always built through ``verify_axioms`` or
    one of the graph constructors, so the stored intersection numbers and
    valencies are trustworthy.
    """

    labels: tuple[str, ...]
    relations: tuple[RationalMatrix, ...]
    valencies: tuple[int, ...]
    intersection: tuple[tuple[tuple[int, ...], ...], ...]  # p[i][j][k]

    @property
    def v(self) -> int:
        return len(self.labels)

    @property
    def d(self) -> int:
        return len(self.relations) - 1

    @cached_property
    def index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def vertex(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise InputError(f"unknown vertex label {label!r}") from None

    @cached_property
    def relation_of(self) -> tuple[tuple[int, ...], ...]:
        """relation_of[x][y] = the unique i with (x, y) in R_i."""
        table = [[-1] * self.v for _ in range(self.v)]
        for i, a in enumerate(self.relations):
            for x in range(self.v):
                row = a[x]
                for y in range(self.v):
                    if row[y]:
                        table[x][y] = i
        return tuple(tuple(r) for r in table)

    @cached_property
    def relation_neighbors(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """relation_neighbors[i][x] = {y : (x, y) in R_i}."""
        out = []
        for a in self.relations:
            out.append(tuple(frozenset(y for y in range(self.v) if a[x][y])
                             for x in range(self.v)))
        return tuple(out)

    def p(self, i: int, j: int, k: int) -> int:
        return self.intersection[i][j][k]


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of axiom verification: pass with a scheme, or a witness."""

    ok: bool
    axiom: int | None = None
    detail: str = ""
    witness: tuple | None = None
    scheme: AssociationScheme | None = field(default=None, compare=False)


def _coerce_binary(matrices) -> list[RationalMatrix]:
    mats = [m if isinstance(m, RationalMatrix) else RationalMatrix(m)
            for m in matrices]
    if not mats:
        raise InputError("need at least one relation matrix")
    n = mats[0].nrows
    for m in mats:
        if not m.is_square:
            raise InputError("relation matrices must be square")
        if m.nrows != n:
            raise InputError("relation matrices have mixed dimensions")
    return mats


def verify_axioms(matrices, labels=None) -> AxiomReport:
    """Check the four scheme axioms on a family of square matrices.

    Returns a report with the first violated axiom and a witness, or, when
    all hold, the populated AssociationScheme (valencies and intersection
    numbers included). Non-square or mixed-dimension input raises
    InputError; entries outside {0, 1} are reported as an axiom-2 failure
    since they break the partition of V x V.
    """
    mats = _coerce_binary(matrices)
    n = mats[0].nrows
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise InputError(f"{len(labels)} labels for {n} vertices")

    ident = RationalMatrix.identity(n)
    if mats[0] != ident:
        pos = next((x, y) for x in range(n) for y in range(n)
                   if mats[0][x][y] != ident[x][y])
        return AxiomReport(False, 1, "A_0 is not the identity matrix", pos)

    for idx, m in enumerate(mats):
        bad = next(((x, y) for x in range(n) for y in range(n)
                    if m[x][y] not in (0, 1)), None)
        if bad is not None:
            return AxiomReport(False, 2,
                               f"entry of A_{idx} at {bad} is not 0 or 1",
                               (idx,) + bad)
        if all(x == 0 for row in m.rows for x in row):
            return AxiomReport(False, 2, f"relation A_{idx} is empty; "
                               "relations must be non-empty subsets of V x V",
                               (idx,))
    total = mats[0]
    for m in mats[1:]:
        total = total + m
    if total != RationalMatrix.ones(n):
        pos = next((x, y) for x in range(n) for y in range(n)
                   if total[x][y] != 1)
        return AxiomReport(False, 2,
                           f"relations do not partition V x V at {pos} "
                           f"(sum entry {total[pos[0]][pos[1]]})", pos)

    for idx, m in enumerate(mats):
        if not m.is_symmetric():
            pos = next((x, y) for x in range(n) for y in range(n)
                       if m[x][y] != m[y][x])
            return AxiomReport(False, 3, f"A_{idx} is not symmetric", (idx,) + pos)

    d = len(mats) - 1
    supports = []
    for m in mats:
        supports.append(next((x, y) for x in range(n) for y in range(n)
                             if m[x][y] == 1))
    p = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(d + 1):
            prod = mats[i] @ mats[j]
            coeff = [prod[x][y] for x, y in supports]
            for k in range(d + 1):
                mk = mats[k]
                for x in range(n):
                    prow, krow = prod[x], mk[x]
                    for y in range(n):
                        if krow[y] and prow[y] != coeff[k]:
                            return AxiomReport(
                                False, 4,
                                f"A_{i} A_{j} is not constant on the support "
                                f"of A_{k}: entry ({x},{y}) is {prow[y]}, "
                                f"expected {coeff[k]}",
                                (i, j, k, x, y))
                c = coeff[k]
                if c.denominator != 1 or c < 0:
                    return AxiomReport(False, 4,
                                       f"coefficient of A_{k} in A_{i} A_{j} "
                                       f"is {c}, not a non-negative integer",
                                       (i, j, k))
                p[i][j][k] = int(c)

    valencies = tuple(p[i][i][0] for i in range(d + 1))
    scheme = AssociationScheme(
        labels=labels,
        relations=tuple(mats),
        valencies=valencies,
        intersection=tuple(tuple(tuple(row) for row in plane) for plane in p),
    )
    return AxiomReport(True, scheme=scheme)


def check_size_cap(v: int, max_vertices: int) -> None:
    """Raise InputError when a scheme on v vertices exceeds the size cap."""
    if v > max_vertices:
        raise InputError(f"{v} vertices exceeds the size cap {max_vertices}")


def _all_pairs_distances(g: LabeledGraph) -> list[list[int]]:
    dist = []
    for s in range(g.v):
        row = [-1] * g.v
        row[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.neighbor_sets[x]:
                if row[y] < 0:
                    row[y] = row[x] + 1
                    queue.append(y)
        if any(x < 0 for x in row):
            raise InputError("graph is disconnected")
        dist.append(row)
    return dist


def from_distance_regular_graph(g: LabeledGraph,
                                max_vertices: int = DEFAULT_MAX_VERTICES
                                ) -> AssociationScheme:
    """Scheme of the distance relations of a connected distance-regular graph.

    Distance matrices are built by breadth-first search and verified against
    the scheme axioms; a graph that is not distance-regular fails axiom 4
    and raises NotDistanceRegularError naming the violated triple (i, j, k).
    """
    check_size_cap(g.v, max_vertices)
    dist = _all_pairs_distances(g)
    diameter = max(max(row) for row in dist)
    mats = [RationalMatrix([[int(dist[x][y] == i) for y in range(g.v)]
                            for x in range(g.v)])
            for i in range(diameter + 1)]
    report = verify_axioms(mats, labels=g.labels)
    if not report.ok:
        triple = report.witness[:3] if report.axiom == 4 else None
        raise NotDistanceRegularError(
            f"graph is not distance-regular: axiom {report.axiom} fails "
            f"({report.detail})", triple)
    return report.scheme


# -- named families --------------------------------------------------------

def petersen_graph() -> LabeledGraph:
    """Petersen graph as a 5-cycle, its complement cycle, and a matching.

    Vertices 0..4 carry the outer cycle; 0'..4' carry the complement cycle
    (i' ~ j' iff i and j are non-adjacent on the outer cycle); i ~ i'.
    """
    outer = [str(i) for i in range(5)]
    inner = [f"{i}'" for i in range(5)]
    pairs = []
    for i in range(5):
        pairs.append((outer[i], outer[(i + 1) % 5]))
        pairs.append((outer[i], inner[i]))
    for i in range(5):
        for j in range(i + 1, 5):
            if (j - i) % 5 not in (1, 4):
                pairs.append((inner[i], inner[j]))
    return LabeledGraph.from_edge_labels(pairs, labels=outer + inner)


def _hamming_order(n: int, q: int) -> int:
    if n < 1 or q < 2:
        raise InputError("hamming family needs n >= 1 and q >= 2")
    return q ** n


def hamming_graph(n: int, q: int) -> LabeledGraph:
    """Hamming graph H(n, q): q-ary words of length n, adjacent at distance 1.

    Words are ordered lexicographically.
    """
    _hamming_order(n, q)
    words = list(itertools.product(range(q), repeat=n))
    sep = "" if q <= 10 else "-"
    labels = [sep.join(str(x) for x in w) for w in words]
    pairs = []
    for a, wa in enumerate(words):
        for b in range(a + 1, len(words)):
            if sum(x != y for x, y in zip(wa, words[b])) == 1:
                pairs.append((labels[a], labels[b]))
    return LabeledGraph.from_edge_labels(pairs, labels=labels)


def _johnson_order(n: int, k: int) -> int:
    if not (0 < k and 2 * k <= n):
        raise InputError("johnson family needs 0 < k <= n/2")
    return math.comb(n, k)


def johnson_graph(n: int, k: int) -> LabeledGraph:
    """Johnson graph J(n, k): k-subsets, adjacent when they share k-1 points.

    Subsets are ordered colexicographically.
    """
    _johnson_order(n, k)
    subsets = sorted(itertools.combinations(range(n), k),
                     key=lambda c: tuple(reversed(c)))
    labels = [",".join(str(x) for x in s) for s in subsets]
    pairs = []
    for a, sa in enumerate(subsets):
        for b in range(a + 1, len(subsets)):
            if len(set(sa) & set(subsets[b])) == k - 1:
                pairs.append((labels[a], labels[b]))
    return LabeledGraph.from_edge_labels(pairs, labels=labels)


def _cycle_order(n: int) -> int:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return n


def cycle_graph(n: int) -> LabeledGraph:
    _cycle_order(n)
    return LabeledGraph.from_edge_labels(
        [(str(i), str((i + 1) % n)) for i in range(n)],
        labels=[str(i) for i in range(n)])


# family -> (graph builder, parameter count, vertex count from the
# parameters, which validates them first)
_FAMILIES = {
    "petersen": (petersen_graph, 0, lambda: 10),
    "hamming": (hamming_graph, 2, _hamming_order),
    "johnson": (johnson_graph, 2, _johnson_order),
    "cycle": (cycle_graph, 1, _cycle_order),
}


def named_scheme(family: str, *params: int,
                 max_vertices: int = DEFAULT_MAX_VERTICES) -> AssociationScheme:
    """Scheme of a named distance-regular family.

    Families: petersen; hamming(n, q); johnson(n, k); cycle(n). The size
    cap is checked on the vertex count the parameters give, before the
    graph is built.
    """
    key = family.lower()
    if key not in _FAMILIES:
        raise InputError(f"unknown family {family!r}; "
                         f"choose from {', '.join(sorted(_FAMILIES))}")
    builder, arity, order = _FAMILIES[key]
    if len(params) != arity:
        raise InputError(f"family {key!r} takes {arity} parameter(s), "
                         f"got {len(params)}")
    check_size_cap(order(*params), max_vertices)
    return from_distance_regular_graph(builder(*params), max_vertices=max_vertices)


def intersection_numbers(s: AssociationScheme):
    """The tensor p[i][j][k] with A_i A_j = sum_k p[i][j][k] A_k."""
    return s.intersection
