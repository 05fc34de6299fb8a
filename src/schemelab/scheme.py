"""Symmetric association schemes: construction and axiom verification.

A scheme is a family of 0/1 relation matrices A_0..A_d on a vertex set V
with A_0 = I, sum A_i = J, every A_i symmetric, and every product A_i A_j
an integer combination of the family; it is stored as its relation table,
on which product closure is counted in integers. Distance-regular graphs
give the main examples; named families (Hamming, Johnson, cycles,
Petersen) are built here, and arbitrary relation matrices can be verified
directly.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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

    The relations are stored once, as the table ``relation_of[x][y]`` = the
    unique i with (x, y) in R_i; the 0/1 matrices A_i are built from it when
    ``relations`` is first read, and the pairs of each R_i as integer
    arrays, which the partition counts read, when ``relation_pairs`` is.
    Immutable after construction; always built through ``verify_axioms`` or
    one of the graph constructors, so the stored intersection numbers and
    valencies are trustworthy.
    """

    labels: tuple[str, ...]
    relation_of: tuple[tuple[int, ...], ...]
    valencies: tuple[int, ...]
    intersection: tuple[tuple[tuple[int, ...], ...], ...]  # p[i][j][k]

    @property
    def v(self) -> int:
        return len(self.labels)

    @property
    def d(self) -> int:
        return len(self.valencies) - 1

    @cached_property
    def index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def vertex(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise InputError(f"unknown vertex label {label!r}") from None

    @cached_property
    def relations(self) -> tuple[RationalMatrix, ...]:
        """The relation matrices A_0..A_d, built from the table."""
        return tuple(RationalMatrix([[int(r == i) for r in row]
                                     for row in self.relation_of])
                     for i in range(self.d + 1))

    @cached_property
    def relation_neighbors(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """relation_neighbors[i][x] = {y : (x, y) in R_i}."""
        return tuple(tuple(frozenset(y for y, r in enumerate(row) if r == i)
                           for row in self.relation_of)
                     for i in range(self.d + 1))

    @cached_property
    def relation_pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """relation_pairs[i] = (xs, ys), the pairs (x, y) of R_i in row-major
        order of the table, as read-only integer arrays."""
        table = np.array(self.relation_of, dtype=np.intp)
        out = []
        for i in range(self.d + 1):
            pair = np.nonzero(table == i)
            for a in pair:
                a.flags.writeable = False
            out.append(pair)
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


def _closure(table, labels) -> AxiomReport:
    """Axiom 4 on a relation table whose relations satisfy axioms 1-3.

    table[x][y] = i for (x, y) in R_i. Each A_i A_j with i <= j is a BLAS
    float64 product of 0/1 indicator arrays; its entry (x, y) counts the z
    with (x, z) in R_i and (z, y) in R_j, so every sum is an integer <= v,
    exact for v < 2^53, far above the size cap. p^k_ij is read at the
    first pair of R_k and checked on all of R_k. As A_j A_i = (A_i A_j)^T
    and every R_k is symmetric, a product (j, i) with j > i fails only if
    (i, j) does, so the witness is the first (i, j, k, x, y) of the scan
    over all ordered pairs (i, j).
    """
    rel = np.asarray(table, dtype=np.intp)
    v, d = len(rel), int(rel.max())
    assert v < 2 ** 53, "float64 counts are exact only for v < 2^53"
    ind = [(rel == i).astype(np.float64) for i in range(d + 1)]
    first = [int(np.argmax(a)) for a in ind]  # flat index of R_k's first pair
    p = [[None] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = ind[i] @ ind[j]
            coeff = prod.ravel()[first]
            bad = prod != coeff[rel]
            if bad.any():
                k = int(rel[bad].min())
                x, y = divmod(int(np.argmax(bad & (rel == k))), v)
                return AxiomReport(
                    False, 4,
                    f"A_{i} A_{j} is not constant on the support of A_{k}: "
                    f"entry ({x},{y}) is {int(prod[x, y])}, "
                    f"expected {int(coeff[k])}",
                    (i, j, k, x, y))
            p[i][j] = p[j][i] = tuple(int(c) for c in coeff)
    scheme = AssociationScheme(
        labels=labels,
        relation_of=tuple(map(tuple, rel.tolist())),
        valencies=tuple(p[i][i][0] for i in range(d + 1)),
        intersection=tuple(tuple(plane) for plane in p),
    )
    return AxiomReport(True, scheme=scheme)


def verify_axioms(matrices, labels=None) -> AxiomReport:
    """Check the four scheme axioms on a family of square matrices.

    Returns a report with the first violated axiom and a witness, or, when
    all hold, the populated AssociationScheme (valencies and intersection
    numbers included). The matrices may be RationalMatrix objects, nested
    lists or arrays, such as the integer blocks of ``read_relation_file``.
    Non-square or mixed-dimension input raises InputError. Every entry is
    compared exactly with 0 and 1 before anything else, so an entry outside
    {0, 1}, such as 2 or 1/2, is reported as an axiom-2 failure since it
    breaks the partition of V x V. Axioms 1-3 are array operations on the
    stacked matrices, scanned in (matrix, row, column) order for the
    witness; the partition scan gives the relation table, on which axiom 4
    is counted in integers.
    """
    blocks = [np.asarray(m.rows if isinstance(m, RationalMatrix) else m)
              for m in matrices]
    if not blocks:
        raise InputError("need at least one relation matrix")
    for b in blocks:
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise InputError("relation matrices must be square")
        if b.shape != blocks[0].shape:
            raise InputError("relation matrices have mixed dimensions")
    n = len(blocks[0])
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise InputError(f"{len(labels)} labels for {n} vertices")

    stack = np.stack(blocks)
    one, zero = stack == 1, stack == 0
    off = np.where(np.eye(n, dtype=bool), ~one[0], ~zero[0])
    if off.any():
        pos = divmod(int(np.argmax(off)), n)
        return AxiomReport(False, 1, "A_0 is not the identity matrix", pos)

    binary = one | zero
    bad = ~binary.all(axis=(1, 2)) | ~one.any(axis=(1, 2))
    if bad.any():
        idx = int(np.argmax(bad))
        if not binary[idx].all():
            pos = divmod(int(np.argmin(binary[idx])), n)
            return AxiomReport(False, 2,
                               f"entry of A_{idx} at {pos} is not 0 or 1",
                               (idx,) + pos)
        return AxiomReport(False, 2, f"relation A_{idx} is empty; "
                           "relations must be non-empty subsets of V x V",
                           (idx,))
    hits = one.sum(axis=0)
    if (hits != 1).any():
        pos = divmod(int(np.argmax(hits != 1)), n)
        return AxiomReport(False, 2,
                           f"relations do not partition V x V at {pos} "
                           f"(sum entry {int(hits[pos])})", pos)

    asym = one != one.transpose(0, 2, 1)
    if asym.any():
        idx, x, y = map(int, np.unravel_index(np.argmax(asym), asym.shape))
        return AxiomReport(False, 3, f"A_{idx} is not symmetric", (idx, x, y))

    return _closure(np.argmax(one, axis=0), labels)


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

    Distances come from breadth-first search and form the relation table
    directly. Axioms 1-3 hold by construction (distance 0 is the diagonal,
    every distance up to the diameter occurs, distances are symmetric), so
    only axiom 4 is checked; a graph that is not distance-regular fails it
    and raises NotDistanceRegularError naming the violated triple (i, j, k).
    """
    check_size_cap(g.v, max_vertices)
    report = _closure(_all_pairs_distances(g), g.labels)
    if not report.ok:
        raise NotDistanceRegularError(
            f"graph is not distance-regular: axiom {report.axiom} fails "
            f"({report.detail})", report.witness[:3])
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
