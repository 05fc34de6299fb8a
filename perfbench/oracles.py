"""Independent oracles for the benchmark.

Nothing here calls schemelab. Each named family is restated from its
definition: vertex labels in the program's format, the graph distance as a
closed form, and the eigenmatrix P with its multiplicities from the closed
forms in Brouwer-Cohen-Neumaier, *Distance-Regular Graphs* (1989), 2.2:
Krawtchouk polynomials for H(n, q), Eberlein polynomials for J(n, k), the
Petersen table, and 2cos(2 pi i j / n) for the n-cycle. Rows of P are
ordered W_0 first, then by decreasing eigenvalue of A_1, which is the order
schemelab reports for distance-regular graphs.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Float-mode tolerance for P, Q and derived values of the cycles. The float
# path groups eigenvalues at 1e-9 and reports values about 1e-15 from exact.
FLOAT_TOL = 1e-9

# The Petersen graph restated from its definition (outer 5-cycle, spokes,
# inner pentagram), independent of the program's builder.
PETERSEN_EDGES = (
    ("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("0", "4"),
    ("0", "0'"), ("1", "1'"), ("2", "2'"), ("3", "3'"), ("4", "4'"),
    ("0'", "2'"), ("2'", "4'"), ("1'", "4'"), ("1'", "3'"), ("0'", "3'"),
)
PETERSEN_P = ((1, 3, 6), (1, 1, -2), (1, -2, 1))
PETERSEN_MULT = (1, 5, 4)


@dataclass(frozen=True)
class Family:
    """One named family, stated without the program.

    ``p_matrix[j][i]`` is the eigenvalue of A_i on W_j (Fractions when
    ``exact``, floats otherwise); ``automorphism(rng)`` draws a label map
    that is an automorphism by construction.
    """

    spec: str                     # CLI form, e.g. "hamming,4,2"
    labels: tuple[str, ...]
    dist: Callable[[str, str], int]
    p_matrix: tuple[tuple, ...]
    multiplicities: tuple[int, ...]
    exact: bool
    automorphism: Callable[[random.Random], dict[str, str]]

    @property
    def v(self) -> int:
        return len(self.labels)

    @property
    def d(self) -> int:
        return len(self.multiplicities) - 1

    @property
    def name_and_params(self) -> tuple:
        name, *params = self.spec.split(",")
        return (name,) + tuple(int(x) for x in params)

    @property
    def valencies(self) -> tuple[int, ...]:
        return tuple(self.p_matrix[0][i] for i in range(self.d + 1))

    def q_matrix(self) -> tuple[tuple, ...]:
        """Q_ij = m_j P_ji / k_i (the duality relation)."""
        d, p, m, k = self.d, self.p_matrix, self.multiplicities, self.valencies
        if self.exact:
            return tuple(tuple(Fraction(m[j]) * p[j][i] / k[i] for j in range(d + 1))
                         for i in range(d + 1))
        return tuple(tuple(m[j] * p[j][i] / k[i] for j in range(d + 1))
                     for i in range(d + 1))

    def relation_table(self, order) -> list[list[int]]:
        """dist between every pair of labels, rows and columns in ``order``."""
        return [[self.dist(a, b) for b in order] for a in order]

    def distance_cells(self, code) -> list[list[str]]:
        """Distance partition of the graph around a set of labels."""
        cells: dict[int, list[str]] = {}
        for x in self.labels:
            cells.setdefault(min(self.dist(x, c) for c in code), []).append(x)
        return [cells[r] for r in sorted(cells)]

    def fixed_relation_counts(self, mapping: dict[str, str]) -> tuple[int, ...]:
        counts = [0] * (self.d + 1)
        for x, y in mapping.items():
            counts[self.dist(x, y)] += 1
        return tuple(counts)

    def is_automorphism(self, mapping: dict[str, str]) -> bool:
        labels = self.labels
        return all(self.dist(mapping[a], mapping[b]) == self.dist(a, b)
                   for a, b in itertools.combinations(labels, 2))

    def higman_values(self, alpha) -> tuple:
        """<P_sigma, E_j> = (m_j / v) sum_i P_ji alpha_i / k_i."""
        d, p, m, k = self.d, self.p_matrix, self.multiplicities, self.valencies
        if self.exact:
            return tuple(Fraction(m[j], self.v) * sum(Fraction(p[j][i]) * alpha[i] / k[i]
                                                      for i in range(d + 1))
                         for j in range(d + 1))
        return tuple(m[j] / self.v * sum(p[j][i] * alpha[i] / k[i] for i in range(d + 1))
                     for j in range(d + 1))


def hamming(n: int, q: int) -> Family:
    words = list(itertools.product(range(q), repeat=n))
    labels = tuple("".join(str(x) for x in w) for w in words)

    def dist(a: str, b: str) -> int:
        return sum(x != y for x, y in zip(a, b))

    def krawtchouk(i: int, j: int) -> Fraction:
        return Fraction(sum((-1) ** h * (q - 1) ** (i - h) * math.comb(j, h)
                            * math.comb(n - j, i - h) for h in range(i + 1)))

    def automorphism(rng: random.Random) -> dict[str, str]:
        coords = list(range(n))
        rng.shuffle(coords)
        shift = [rng.randrange(q) for _ in range(n)]
        return {a: "".join(str((int(a[coords[c]]) + shift[c]) % q) for c in range(n))
                for a in labels}

    return Family(f"hamming,{n},{q}", labels, dist,
                  tuple(tuple(krawtchouk(i, j) for i in range(n + 1)) for j in range(n + 1)),
                  tuple(math.comb(n, j) * (q - 1) ** j for j in range(n + 1)),
                  True, automorphism)


def johnson(n: int, k: int) -> Family:
    subsets = sorted(itertools.combinations(range(n), k), key=lambda c: c[::-1])
    labels = tuple(",".join(str(x) for x in c) for c in subsets)
    sets = {a: frozenset(int(x) for x in a.split(",")) for a in labels}

    def dist(a: str, b: str) -> int:
        return k - len(sets[a] & sets[b])

    def eberlein(i: int, j: int) -> Fraction:
        return Fraction(sum((-1) ** h * math.comb(j, h) * math.comb(k - j, i - h)
                            * math.comb(n - k - j, i - h) for h in range(i + 1)))

    def automorphism(rng: random.Random) -> dict[str, str]:
        points = list(range(n))
        rng.shuffle(points)
        return {a: ",".join(str(x) for x in sorted(points[y] for y in sets[a]))
                for a in labels}

    return Family(f"johnson,{n},{k}", labels, dist,
                  tuple(tuple(eberlein(i, j) for i in range(k + 1)) for j in range(k + 1)),
                  tuple(math.comb(n, j) - (math.comb(n, j - 1) if j else 0)
                        for j in range(k + 1)),
                  True, automorphism)


def petersen() -> Family:
    labels = tuple([str(i) for i in range(5)] + [f"{i}'" for i in range(5)])
    neighbours: dict[str, set[str]] = {a: set() for a in labels}
    for a, b in PETERSEN_EDGES:
        neighbours[a].add(b)
        neighbours[b].add(a)
    table = {a: _bfs(neighbours, a) for a in labels}

    def dist(a: str, b: str) -> int:
        return table[a][b]

    def automorphism(rng: random.Random) -> dict[str, str]:
        # the dihedral group of the drawing: i -> s*i + c on both pentagons
        c, s = rng.randrange(5), rng.choice((1, -1))
        out = {}
        for i in range(5):
            j = (s * i + c) % 5
            out[str(i)] = str(j)
            out[f"{i}'"] = f"{j}'"
        return out

    return Family("petersen", labels, dist,
                  tuple(tuple(Fraction(x) for x in row) for row in PETERSEN_P),
                  PETERSEN_MULT, True, automorphism)


def cycle(n: int) -> Family:
    labels = tuple(str(i) for i in range(n))
    d = n // 2

    def dist(a: str, b: str) -> int:
        gap = abs(int(a) - int(b))
        return min(gap, n - gap)

    def eigenvalue(i: int, j: int) -> float:
        if i == 0:
            return 1.0
        if 2 * i == n:
            return float((-1) ** j)
        return 2.0 * math.cos(2.0 * math.pi * i * j / n)

    def automorphism(rng: random.Random) -> dict[str, str]:
        c = rng.randrange(n)  # the reflection x -> c - x
        return {str(x): str((c - x) % n) for x in range(n)}

    return Family(f"cycle,{n}", labels, dist,
                  tuple(tuple(eigenvalue(i, j) for i in range(d + 1)) for j in range(d + 1)),
                  tuple(1 if j == 0 or 2 * j == n else 2 for j in range(d + 1)),
                  False, automorphism)


def family(spec: str) -> Family:
    name, *params = spec.split(",")
    builders = {"hamming": hamming, "johnson": johnson, "petersen": petersen,
                "cycle": cycle}
    return builders[name](*(int(x) for x in params))


def _bfs(neighbours: dict[str, set[str]], start: str) -> dict[str, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in neighbours[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


# -- count-profile oracle -----------------------------------------------------

def equitable_by_counts(rel, cell_of) -> bool:
    """Brute-force equitability from a relation table.

    ``rel[x][y]`` is the relation index of (x, y); ``cell_of[x]`` the cell of
    x. Equitable iff, for every relation and every pair of cells, all
    vertices of the first cell have the same number of related vertices in
    the second.
    """
    profile_of_cell: dict[int, dict] = {}
    for x, row in enumerate(rel):
        counts: dict[tuple[int, int], int] = {}
        for y, r in enumerate(row):
            key = (r, cell_of[y])
            counts[key] = counts.get(key, 0) + 1
        ref = profile_of_cell.setdefault(cell_of[x], counts)
        if ref is not counts and ref != counts:
            return False
    return True


def distance_cell_of(rel, relation: int, code) -> list[int]:
    """Distance from ``code`` in the graph (V, R_relation), per vertex."""
    dist = [-1] * len(rel)
    frontier = list(code)
    for x in frontier:
        dist[x] = 0
    level = 0
    while frontier:
        level += 1
        nxt = []
        for x in frontier:
            for y, r in enumerate(rel[x]):
                if r == relation and dist[y] < 0:
                    dist[y] = level
                    nxt.append(y)
        frontier = nxt
    return dist


def completely_regular(rel, relation: int, code) -> bool:
    return equitable_by_counts(rel, distance_cell_of(rel, relation, code))


def pair_signature(rel, code) -> tuple[int, ...]:
    return tuple(sorted(rel[a][b] for a, b in itertools.combinations(code, 2)))


def search_candidates(rel, sizes: tuple[int, int], dedup: bool) -> tuple[list, int]:
    """Candidate codes of a search in enumeration order, and the skip count."""
    out, seen, skipped = [], set(), 0
    for size in range(sizes[0], sizes[1] + 1):
        for code in itertools.combinations(range(len(rel)), size):
            if dedup:
                sig = (size,) + pair_signature(rel, code)
                if sig in seen:
                    skipped += 1
                    continue
                seen.add(sig)
            out.append(code)
    return out, skipped


def close(a, b, tol: float = FLOAT_TOL) -> bool:
    return abs(float(a) - float(b)) <= tol
