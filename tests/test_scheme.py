import collections
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import schemelab as sl
from schemelab import fileio
from schemelab.ratmat import RationalMatrix

from conftest import PETERSEN_EDGES


def bfs_distances(neighbor_sets, start):
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in neighbor_sets[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


class TestPetersenGraph:
    def test_edge_set_matches_oracle(self):
        g = sl.petersen_graph()
        built = sorted((g.labels[a], g.labels[b]) for a, b in g.edges)
        oracle = sorted(tuple(sorted(e)) for e in PETERSEN_EDGES)
        assert built == oracle

    def test_label_order(self):
        g = sl.petersen_graph()
        assert g.labels == ("0", "1", "2", "3", "4",
                            "0'", "1'", "2'", "3'", "4'")

    def test_adjacency_matrix(self, petersen):
        g = sl.petersen_graph()
        adj = g.adjacency()
        assert adj.is_symmetric()
        assert all(sum(row) == 3 for row in adj.rows)
        assert adj == petersen.relations[1]


class TestVerifyAxioms:
    def test_complete_graph_scheme(self):
        i4 = RationalMatrix.identity(4)
        rest = RationalMatrix.ones(4) - i4
        report = sl.verify_axioms([i4, rest])
        assert report.ok
        assert report.scheme.d == 1
        assert report.scheme.valencies == (1, 3)

    def test_petersen_distance_matrices(self, petersen):
        # rebuild distance matrices from scratch by BFS and compare schemes
        g = sl.petersen_graph()
        mats = []
        for i in range(3):
            rows = []
            for x in range(10):
                dist = bfs_distances(g.neighbor_sets, x)
                rows.append([int(dist[y] == i) for y in range(10)])
            mats.append(RationalMatrix(rows))
        report = sl.verify_axioms(mats, labels=g.labels)
        assert report.ok and report.scheme.d == 2
        assert report.scheme == petersen

    def test_non_binary_fails_axiom_2(self):
        i4 = RationalMatrix.identity(4)
        bad = RationalMatrix.ones(4) - 2 * i4
        report = sl.verify_axioms([i4, bad])
        assert not report.ok and report.axiom == 2

    def test_empty_relation_rejected(self):
        i4 = RationalMatrix.identity(4)
        report = sl.verify_axioms([i4, RationalMatrix.zeros(4),
                                   RationalMatrix.ones(4) - i4])
        assert not report.ok and report.axiom == 2
        assert "empty" in report.detail

    def test_wrong_identity_fails_axiom_1(self):
        j2 = RationalMatrix.ones(2)
        report = sl.verify_axioms([j2 - RationalMatrix.identity(2),
                                   RationalMatrix.identity(2)])
        assert not report.ok and report.axiom == 1

    def test_asymmetric_fails_axiom_3(self):
        i2 = RationalMatrix.identity(2)
        up = RationalMatrix([[0, 1], [0, 0]])
        low = RationalMatrix([[0, 0], [1, 0]])
        report = sl.verify_axioms([i2, up, low])
        assert not report.ok and report.axiom == 3

    def test_closure_failure_names_triple(self):
        # path 0-1-2: distance matrices of a non-distance-regular graph
        a0 = RationalMatrix.identity(3)
        a1 = RationalMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        a2 = RationalMatrix([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        report = sl.verify_axioms([a0, a1, a2])
        assert not report.ok and report.axiom == 4
        assert report.witness[:3] == (1, 1, 0)

    def test_mixed_dimensions_raise(self):
        with pytest.raises(sl.InputError):
            sl.verify_axioms([RationalMatrix.identity(2),
                              RationalMatrix.identity(3)])

    def test_non_square_raises(self):
        with pytest.raises(sl.InputError):
            sl.verify_axioms([RationalMatrix.ones(2, 3)])

    def test_label_count_mismatch(self):
        with pytest.raises(sl.InputError):
            sl.verify_axioms([RationalMatrix.identity(2)], labels=["a"])


class TestFromDistanceRegularGraph:
    def test_path_rejected(self):
        g = sl.LabeledGraph.from_edge_labels([("a", "b"), ("b", "c")])
        with pytest.raises(sl.NotDistanceRegularError) as err:
            sl.from_distance_regular_graph(g)
        assert err.value.triple is not None

    def test_disconnected_rejected(self):
        g = sl.LabeledGraph.from_edge_labels([("a", "b"), ("c", "d")])
        with pytest.raises(sl.InputError):
            sl.from_distance_regular_graph(g)

    def test_size_cap(self):
        g = sl.petersen_graph()
        with pytest.raises(sl.InputError):
            sl.from_distance_regular_graph(g, max_vertices=5)

    def test_k4(self, k4):
        assert (k4.v, k4.d) == (4, 1)
        assert k4.valencies == (1, 3)


class TestNamedSchemes:
    def test_petersen(self, petersen):
        assert (petersen.v, petersen.d) == (10, 2)
        assert petersen.valencies == (1, 3, 6)

    def test_hamming(self, hamming32):
        assert (hamming32.v, hamming32.d) == (8, 3)
        assert hamming32.valencies == (1, 3, 3, 1)

    def test_johnson(self, johnson42, johnson52):
        assert (johnson42.v, johnson42.d) == (6, 2)
        assert (johnson52.v, johnson52.d) == (10, 2)
        assert johnson52.valencies == (1, 6, 3)

    def test_cycle(self, cycle5):
        assert cycle5.valencies == (1, 2, 2)

    def test_bad_family(self):
        with pytest.raises(sl.InputError):
            sl.named_scheme("grassmann", 4, 2)

    def test_bad_params(self):
        with pytest.raises(sl.InputError):
            sl.named_scheme("hamming", 3)
        with pytest.raises(sl.InputError):
            sl.named_scheme("johnson", 4, 3)
        with pytest.raises(sl.InputError):
            sl.named_scheme("cycle", 2)
        with pytest.raises(sl.InputError):
            sl.named_scheme("hamming", 3, 1)

    def test_size_cap(self):
        with pytest.raises(sl.InputError):
            sl.named_scheme("hamming", 10, 2, max_vertices=512)

    def test_size_cap_checked_before_building(self, monkeypatch):
        # C(24, 6) = 134596 vertices: building the graph would take minutes
        def never(*args):
            raise AssertionError("graph built before the size cap was checked")

        monkeypatch.setattr(itertools, "combinations", never)
        monkeypatch.setattr(itertools, "product", never)
        with pytest.raises(sl.InputError,
                           match="134596 vertices exceeds the size cap 512"):
            sl.named_scheme("johnson", 24, 6)
        with pytest.raises(sl.InputError, match="2048 vertices"):
            sl.named_scheme("hamming", 11, 2)
        with pytest.raises(sl.InputError, match="needs 0 < k <= n/2"):
            sl.named_scheme("johnson", 24, 20)


class TestSchemeStructure:
    def test_relations_partition_and_valencies(self, exact_catalog):
        for s in exact_catalog:
            total = s.relations[0]
            for a in s.relations[1:]:
                total = total + a
            assert total == RationalMatrix.ones(s.v)
            assert sum(s.valencies) == s.v
            for i, a in enumerate(s.relations):
                for row in a.rows:
                    assert sum(row) == s.valencies[i]

    def test_intersection_identity(self, exact_catalog):
        for s in exact_catalog:
            p = sl.intersection_numbers(s)
            for i in range(s.d + 1):
                for j in range(s.d + 1):
                    combo = RationalMatrix.zeros(s.v)
                    for k in range(s.d + 1):
                        combo = combo + p[i][j][k] * s.relations[k]
                    assert s.relations[i] @ s.relations[j] == combo

    def test_double_counting(self, exact_catalog):
        # v_k p_ij^k = v_i p_kj^i in a symmetric scheme
        for s in exact_catalog:
            for i, j, k in itertools.product(range(s.d + 1), repeat=3):
                assert s.valencies[k] * s.p(i, j, k) == \
                    s.valencies[i] * s.p(k, j, i)

    def test_specific_intersection_numbers(self, petersen, cycle5, exact_catalog):
        for s in exact_catalog:
            assert s.p(0, 0, 0) == 1
        assert petersen.p(1, 1, 1) == 0  # triangle-free
        assert cycle5.p(1, 1, 2) == 1

    def test_vertex_lookup(self, petersen):
        assert petersen.vertex("0'") == 5
        with pytest.raises(sl.InputError):
            petersen.vertex("nope")

    def test_relation_of_table(self, petersen):
        counts = collections.Counter(
            petersen.relation_of[0][y] for y in range(10))
        assert counts == {0: 1, 1: 3, 2: 6}

    def test_relation_pairs_index(self, petersen):
        rel = petersen.relation_of
        for i, (xs, ys) in enumerate(petersen.relation_pairs):
            assert list(zip(xs.tolist(), ys.tolist())) == [
                (x, y) for x in range(10) for y in range(10) if rel[x][y] == i]
            assert not xs.flags.writeable and not ys.flags.writeable


def matmul_axiom4(mats):
    """First axiom-4 failure as (axiom, detail, witness), or None.

    The reference route: every ordered product A_i A_j as a Fraction
    matmul, scanned over (i, j), then k, then (x, y) in row-major order.
    """
    n, r = mats[0].nrows, range(len(mats))
    supports = [next((x, y) for x in range(n) for y in range(n) if m[x][y])
                for m in mats]
    for i, j in itertools.product(r, r):
        prod = mats[i] @ mats[j]
        coeff = [prod[x][y] for x, y in supports]
        for k in r:
            for x, y in itertools.product(range(n), range(n)):
                if mats[k][x][y] and prod[x][y] != coeff[k]:
                    return (4, f"A_{i} A_{j} is not constant on the support "
                            f"of A_{k}: entry ({x},{y}) is {prod[x][y]}, "
                            f"expected {coeff[k]}", (i, j, k, x, y))
    return None


def table_matrices(table):
    d = max(max(row) for row in table)
    return [RationalMatrix([[int(r == i) for r in row] for row in table])
            for i in range(d + 1)]


def split_or_merge(table, rng):
    """A random symmetric split of one relation, or a merge of two, with the
    non-identity relations relabelled at random afterwards."""
    v, d = len(table), max(max(row) for row in table)
    out = [list(row) for row in table]
    if d >= 2 and rng.random() < 0.4:
        a, b = rng.sample(range(1, d + 1), 2)
        out = [[a if r == b else r for r in row] for row in out]
    else:
        r = rng.randint(1, d)
        pairs = [(x, y) for x in range(v) for y in range(x + 1, v)
                 if out[x][y] == r]
        if len(pairs) < 2:
            return None
        moved = rng.sample(pairs, rng.randint(1, len(pairs) - 1))
        for x, y in moved:
            out[x][y] = out[y][x] = d + 1
    used = sorted({r for row in out for r in row} - {0})
    shuffled = rng.sample(used, len(used))
    relabel = {0: 0, **{old: new for new, old in enumerate(shuffled, 1)}}
    return [[relabel[r] for r in row] for row in out]


class TestAxiomFourWitness:
    def test_matches_matmul_scan_on_splits_and_merges(self, exact_catalog,
                                                      cycle5, cycle7):
        rng = random.Random(20261018)
        outcomes = []
        for s in exact_catalog + [cycle5, cycle7]:
            for _ in range(12):
                table = s.relation_of
                for _ in range(rng.randint(1, 2)):
                    table = split_or_merge(table, rng) or table
                mats = table_matrices(table)
                report = sl.verify_axioms(mats, labels=s.labels)
                expected = matmul_axiom4(mats)
                if expected is None:
                    assert report.ok
                    assert report.scheme.relation_of == tuple(map(tuple, table))
                else:
                    assert (report.axiom, report.detail, report.witness) \
                        == expected
                outcomes.append(expected)
        # the variants reach passing schemes and witnesses past (i, j) = (1, 1)
        assert any(e is None for e in outcomes)
        assert any(e is not None and e[2][:2] > (1, 1) for e in outcomes)


def reference_verify_axioms(matrices, labels=None):
    """Axioms 1-3 as Python scans over RationalMatrix entries, then axiom 4
    on the table: the route the array checks replaced."""
    from schemelab.scheme import _closure
    mats = [m if isinstance(m, RationalMatrix) else RationalMatrix(m)
            for m in matrices]
    n = mats[0].nrows
    labels = tuple(str(i) for i in range(n)) if labels is None \
        else tuple(labels)
    ident = RationalMatrix.identity(n)
    if mats[0] != ident:
        pos = next((x, y) for x in range(n) for y in range(n)
                   if mats[0][x][y] != ident[x][y])
        return sl.AxiomReport(False, 1, "A_0 is not the identity matrix", pos)
    for idx, m in enumerate(mats):
        bad = next(((x, y) for x in range(n) for y in range(n)
                    if m[x][y] not in (0, 1)), None)
        if bad is not None:
            return sl.AxiomReport(False, 2,
                                  f"entry of A_{idx} at {bad} is not 0 or 1",
                                  (idx,) + bad)
        if all(x == 0 for row in m.rows for x in row):
            return sl.AxiomReport(False, 2, f"relation A_{idx} is empty; "
                                  "relations must be non-empty subsets of "
                                  "V x V", (idx,))
    hits = [[[i for i, m in enumerate(mats) if m[x][y]] for y in range(n)]
            for x in range(n)]
    pos = next(((x, y) for x in range(n) for y in range(n)
                if len(hits[x][y]) != 1), None)
    if pos is not None:
        return sl.AxiomReport(False, 2,
                              f"relations do not partition V x V at {pos} "
                              f"(sum entry {len(hits[pos[0]][pos[1]])})", pos)
    for idx, m in enumerate(mats):
        if not m.is_symmetric():
            pos = next((x, y) for x in range(n) for y in range(n)
                       if m[x][y] != m[y][x])
            return sl.AxiomReport(False, 3, f"A_{idx} is not symmetric",
                                  (idx,) + pos)
    return _closure([[h[0] for h in row] for row in hits], labels)


def assert_same_report(matrices):
    """verify_axioms on ``matrices`` equals the reference route, witness
    and detail included, with a witness of Python ints."""
    report = sl.verify_axioms(matrices)
    expected = reference_verify_axioms([np.asarray(m).tolist()
                                        for m in matrices])
    assert (report.ok, report.axiom, report.detail, report.witness) == \
        (expected.ok, expected.axiom, expected.detail, expected.witness)
    assert all(type(x) is int for x in report.witness or ())
    assert report.scheme == expected.scheme
    return report


class TestArrayAxioms:
    """Axioms 1-3 on the stacked integer array against the Python scans."""

    def test_golden_relation_files(self, tmp_path):
        from test_cli_golden import VERIFY_INPUTS
        axioms = []
        for name, text in VERIFY_INPUTS.items():
            if name.endswith(".rel"):
                (tmp_path / name).write_text(text)
                mats = fileio.read_relation_file(tmp_path / name)[1]
                axioms.append(assert_same_report(mats).axiom)
        assert sorted(axioms) == [1, 2, 2, 2, 3, 4, 4]

    @pytest.mark.parametrize("family", [("petersen",), ("hamming", 3, 2)],
                             ids=str)
    def test_every_single_entry_flip(self, family, tmp_path):
        from test_fileio import write_relation_file
        s = sl.named_scheme(*family)
        path = tmp_path / "s.rel"
        write_relation_file(path, s)
        mats = fileio.read_relation_file(path)[1]
        assert assert_same_report(mats).ok
        axioms = collections.Counter()
        for i, x, y in itertools.product(range(s.d + 1), range(s.v),
                                         range(s.v)):
            flipped = mats.copy()
            flipped[i, x, y] = 1 - flipped[i, x, y]
            axioms[assert_same_report(flipped).axiom] += 1
        assert set(axioms) == {1, 2}

    @pytest.mark.parametrize("entry", [2, Fraction(1, 2)], ids=str)
    def test_entry_outside_zero_one(self, petersen, entry):
        for i, x, y in [(0, 0, 0), (0, 3, 4), (1, 0, 1), (2, 9, 8)]:
            mats = [[list(row) for row in a.rows] for a in petersen.relations]
            mats[i][x][y] = entry
            report = assert_same_report(mats)
            assert report.axiom == (1 if i == 0 else 2)
            as_matrices = [RationalMatrix(m) for m in mats]
            assert sl.verify_axioms(as_matrices) == report


CATALOGUE = [("petersen",), ("hamming", 1, 4), ("hamming", 2, 3),
             ("hamming", 3, 2), ("hamming", 4, 2), ("hamming", 3, 3),
             ("johnson", 4, 2), ("johnson", 5, 2), ("johnson", 6, 2),
             ("johnson", 6, 3), ("johnson", 7, 3)] + \
    [("cycle", n) for n in range(3, 10)]


class TestTableRoute:
    @pytest.mark.parametrize("family", CATALOGUE, ids=str)
    def test_agrees_with_matrix_route(self, family):
        s = sl.named_scheme(*family)
        assert s == sl.verify_axioms(s.relations, s.labels).scheme

    def test_relations_built_on_first_read(self, hamming32):
        s = sl.verify_axioms(hamming32.relations).scheme
        assert "relations" not in vars(s)
        assert s.relations == hamming32.relations
        assert s.relations is s.relations
