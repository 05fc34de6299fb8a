import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schemelab as sl
import schemelab.partition as partition_module
from schemelab import fileio
from schemelab.poly import char_poly, integer_roots
from schemelab.ratmat import RationalMatrix
from conftest import PAIR_CELLS
from test_fileio import write_relation_file
from test_spectra import product_scheme


def direct_quotient_oracle(scheme, cells_idx, rel):
    """n_ij^k by raw neighbour counting, bypassing the partition module."""
    neigh = scheme.relation_neighbors[rel]
    rows = []
    for cell in cells_idx:
        counts = [len(neigh[cell[0]] & set(c)) for c in cells_idx]
        for x in cell[1:]:
            if [len(neigh[x] & set(c)) for c in cells_idx] != counts:
                return None
        rows.append(counts)
    return rows


def reference_is_equitable(s, part):
    """The frozenset scan and the A_iH pass over ``relation_of`` that the
    bincount route replaced, with the same witness and quotients."""
    cell_sets = [frozenset(c) for c in part.cells]

    def profile(i, x):
        return tuple(len(s.relation_neighbors[i][x] & c) for c in cell_sets)

    quotients = []
    for i in range(s.d + 1):
        rows = []
        for k, cell in enumerate(part.cells):
            ref = profile(i, cell[0])
            for x in cell[1:]:
                counts = profile(i, x)
                if counts != ref:
                    witness = sl.EquitabilityWitness(
                        relation=i, cell=k, vertex_ref=cell[0], vertex=x,
                        target_cells=tuple(j for j in range(part.t)
                                           if counts[j] != ref[j]),
                        counts_ref=ref, counts=counts)
                    return sl.EquitabilityResult(False, witness=witness)
            rows.append(ref)
        quotients.append(rows)
    cell = part.cell_of
    for x, row in enumerate(s.relation_of):
        counts = [[0] * part.t for _ in range(s.d + 1)]
        for y, i in enumerate(row):
            counts[i][cell[y]] += 1
        for i in range(s.d + 1):
            assert tuple(counts[i]) == quotients[i][cell[x]]
    return sl.EquitabilityResult(
        True, quotients=tuple(RationalMatrix(n) for n in quotients))


def reference_cell_pair_counts(s, part):
    """C_i[a][b] = #{(x, y) in R_i : x in cell a, y in cell b}."""
    cell = part.cell_of
    out = [[[0] * part.t for _ in range(part.t)] for _ in range(s.d + 1)]
    for x, row in enumerate(s.relation_of):
        for y, i in enumerate(row):
            out[i][cell[x]][cell[y]] += 1
    return out


def reference_commutes(f, s):
    """The dense route: every commutator FA_i - A_iF as v x v Fraction matmuls."""
    worst = Fraction(0)
    for a in s.relations:
        worst = max(worst, (f @ a - a @ f).max_abs())
    return worst == 0, worst


def partition_from_assignment(s, assignment):
    cells = (tuple(x for x in range(s.v) if assignment[x] == k)
             for k in range(max(assignment) + 1))
    return sl.Partition(s.labels, tuple(c for c in cells if c))


def random_partition(s, rng):
    t = rng.randint(1, 5)
    return partition_from_assignment(s, [rng.randrange(t) for _ in range(s.v)])


class TestMakePartition:
    def test_singletons(self, petersen):
        part = sl.singleton_partition(petersen)
        assert part.t == petersen.v
        assert part.characteristic_matrix() == RationalMatrix.identity(10)

    def test_one_cell(self, petersen):
        part = sl.one_cell_partition(petersen)
        assert part.t == 1
        assert part.cell_size_diagonal() == RationalMatrix([[10]])

    def test_pair_cells(self, petersen, pair_partition):
        assert pair_partition.t == 5
        assert pair_partition.cell_size_diagonal() == \
            2 * RationalMatrix.identity(5)
        h = pair_partition.characteristic_matrix()
        assert h.transpose() @ h == pair_partition.cell_size_diagonal()

    def test_integer_indices_accepted(self, petersen):
        by_label = sl.make_partition(petersen, [["0", "0'"],
                                                petersen.labels[1:5]
                                                + petersen.labels[6:]])
        by_index = sl.make_partition(petersen, [[0, 5],
                                                [1, 2, 3, 4, 6, 7, 8, 9]])
        assert by_label == by_index

    def test_validation_errors(self, petersen):
        with pytest.raises(sl.InputError):
            sl.make_partition(petersen, [["0", "1"], ["1", "2"]])  # overlap
        with pytest.raises(sl.InputError):
            sl.make_partition(petersen, [["0"], []])  # empty cell
        with pytest.raises(sl.InputError):
            sl.make_partition(petersen, [["0", "1"]])  # not covering
        with pytest.raises(sl.InputError):
            sl.make_partition(petersen, [petersen.labels[:-1] + ("zzz",)])


class TestIsEquitable:
    def test_one_cell_quotients_are_valencies(self, exact_catalog):
        for s in exact_catalog:
            result = sl.is_equitable(s, sl.one_cell_partition(s))
            assert result.equitable
            for i, n_i in enumerate(result.quotients):
                assert n_i == RationalMatrix([[s.valencies[i]]])

    def test_pair_partition_witness(self, petersen, pair_partition):
        result = sl.is_equitable(petersen, pair_partition)
        assert not result.equitable
        w = result.witness
        assert w.relation == 1
        assert {petersen.labels[w.vertex_ref], petersen.labels[w.vertex]} == \
            {"1", "2'"}
        # the vertex 2' has one neighbour in C_4, the vertex 1 none
        assert 3 in w.target_cells
        assert w.counts[3] == 1 and w.counts_ref[3] == 0

    def test_distance_partition_quotient(self, petersen):
        part, rho = sl.distance_partition(petersen, 1, ["0"])
        assert rho == 2 and part.cell_sizes == (1, 3, 6)
        result = sl.is_equitable(petersen, part)
        assert result.equitable
        oracle = direct_quotient_oracle(petersen, part.cells, 1)
        assert oracle == [[0, 3, 0], [1, 0, 2], [0, 1, 2]]
        assert result.quotients[1] == RationalMatrix(oracle)

    def test_quotient_row_sums_and_column_identity(self, petersen):
        part, _ = sl.distance_partition(petersen, 1, ["0", "0'"])
        result = sl.is_equitable(petersen, part)
        assert result.equitable
        total = RationalMatrix.zeros(part.t)
        for i, n_i in enumerate(result.quotients):
            total = total + n_i
            for row in n_i.rows:
                assert sum(row) == petersen.valencies[i]
        for k in range(part.t):
            for j in range(part.t):
                assert total[k][j] == len(part.cells[j])

    def test_quotient_spectrum_within_scheme_spectrum(self, petersen,
                                                      petersen_spec):
        part, _ = sl.distance_partition(petersen, 1, ["0"])
        result = sl.is_equitable(petersen, part)
        for i in range(petersen.d + 1):
            roots, rest = integer_roots(char_poly(result.quotients[i]),
                                        bound=petersen.valencies[i])
            assert rest.degree == 0
            allowed = {petersen_spec.p_matrix[j][i]
                       for j in range(petersen.d + 1)}
            assert set(roots) <= allowed

    def test_mismatched_vertex_set(self, petersen, hamming32):
        with pytest.raises(sl.InputError):
            sl.is_equitable(hamming32, sl.one_cell_partition(petersen))


class TestProjector:
    def test_one_cell(self, petersen):
        f = sl.partition_projector(sl.one_cell_partition(petersen))
        assert f == Fraction(1, 10) * RationalMatrix.ones(10)

    def test_singletons(self, petersen):
        f = sl.partition_projector(sl.singleton_partition(petersen))
        assert f == RationalMatrix.identity(10)

    def test_pair_partition_blocks(self, pair_partition):
        f = sl.partition_projector(pair_partition)
        assert f @ f == f
        assert f.transpose() == f
        half = Fraction(1, 2)
        for x in range(10):
            for y in range(10):
                same = pair_partition.cell_of[x] == pair_partition.cell_of[y]
                assert f[x][y] == (half if same else 0)


class TestCommutation:
    def test_uniform_projector_commutes(self, exact_catalog):
        for s in exact_catalog:
            f = Fraction(1, s.v) * RationalMatrix.ones(s.v)
            ok, worst = sl.commutes_with_scheme(f, s)
            assert ok and worst == 0

    def test_pair_partition_does_not_commute(self, petersen, pair_partition):
        ok, worst = sl.commutes_with_scheme(
            sl.partition_projector(pair_partition), petersen)
        assert not ok and worst > 0

    def test_distance_partition_commutes(self, petersen):
        part, _ = sl.distance_partition(petersen, 1, ["0"])
        ok, _ = sl.commutes_with_scheme(sl.partition_projector(part), petersen)
        assert ok

    def test_dimension_mismatch(self, petersen):
        with pytest.raises(sl.InputError):
            sl.commutes_with_scheme(RationalMatrix.identity(3), petersen)

    @pytest.mark.parametrize("family", [("petersen",), ("hamming", 3, 2),
                                        ("hamming", 4, 2), ("johnson", 6, 3),
                                        ("cycle", 9)])
    def test_matches_dense_route(self, family):
        s = sl.named_scheme(*family)
        rng = random.Random(21)
        parts = [sl.distance_partition(s, 1, [0])[0],
                 sl.distance_partition(s, 1, [0, s.v - 1])[0],
                 *(random_partition(s, rng) for _ in range(6))]
        for part in parts:
            f = sl.partition_projector(part)
            assert sl.commutes_with_scheme(f, s) == reference_commutes(f, s)
            assert sl.is_equitable(s, part) == reference_is_equitable(s, part)
            cell = np.array(part.cell_of)
            assert [c.tolist() for c in partition_module._pair_counts(
                s, cell, cell)] == reference_cell_pair_counts(s, part)

    def test_matches_dense_route_on_relation_file(self, tmp_path):
        # K3 x K3 has four relations that no distance ordering produces
        k3 = sl.named_scheme("hamming", 1, 3)
        path = tmp_path / "k3xk3.rel"
        write_relation_file(path, product_scheme(k3, k3))
        labels, mats = fileio.read_relation_file(path)
        s = sl.verify_axioms(mats, labels).scheme
        rng = random.Random(33)
        equitable = sl.make_partition(s, [labels[:3], labels[3:]])
        for part in [equitable, *(random_partition(s, rng) for _ in range(8))]:
            f = sl.partition_projector(part)
            got = sl.commutes_with_scheme(f, s)
            assert got == reference_commutes(f, s)
            eq = sl.is_equitable(s, part)
            assert eq == reference_is_equitable(s, part)
            assert got[0] == eq.equitable

    def test_no_matmul_and_relations_unbuilt(self, monkeypatch):
        s = sl.named_scheme("petersen")
        f = sl.partition_projector(sl.distance_partition(s, 1, ["0"])[0])
        g = sl.partition_projector(sl.make_partition(s, PAIR_CELLS))

        def refuse(*args):
            raise AssertionError("RationalMatrix matmul called")
        monkeypatch.setattr(RationalMatrix, "__matmul__", refuse)
        assert sl.commutes_with_scheme(f, s) == (True, 0)
        assert sl.commutes_with_scheme(g, s) == (False, Fraction(1, 2))
        assert "relations" not in vars(s)

    def test_non_projector_rejected(self, petersen, pair_partition):
        f = sl.partition_projector(pair_partition)
        off_block = [list(row) for row in f.rows]
        off_block[0][1] = Fraction(1, 2)
        in_block = [list(row) for row in f.rows]
        in_block[0][0] = Fraction(1, 3)
        # rows 0 and 1 are [1, 0] twice: idempotent but not symmetric
        lopsided = [list(row) for row in RationalMatrix.identity(10).rows]
        lopsided[1] = list(lopsided[0])
        for bad in (RationalMatrix(off_block), RationalMatrix(in_block),
                    2 * f, RationalMatrix(lopsided),
                    RationalMatrix.zeros(10)):
            with pytest.raises(sl.InputError, match="not the projector"):
                sl.commutes_with_scheme(bad, petersen)

    def test_verdicts_agree_on_random_partitions(self, petersen, hamming32):
        rng = random.Random(99)
        for s in (petersen, hamming32):
            for _ in range(25):
                t = rng.randint(2, 5)
                assignment = [rng.randrange(t) for _ in range(s.v)]
                cells = [tuple(x for x in range(s.v) if assignment[x] == k)
                         for k in range(t)]
                cells = [c for c in cells if c]
                part = sl.Partition(s.labels, tuple(cells))
                combinatorial = sl.is_equitable(s, part).equitable
                algebraic, _ = sl.commutes_with_scheme(
                    sl.partition_projector(part), s)
                assert combinatorial == algebraic


@pytest.fixture(scope="module")
def property_schemes(petersen, hamming32, johnson42):
    return [(s, sl.spectral_data(s)) for s in (petersen, hamming32, johnson42)]


class TestCommutationProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_routes_agree(self, property_schemes, data):
        s, spec = data.draw(st.sampled_from(property_schemes))
        if data.draw(st.booleans()):
            code = data.draw(st.sets(st.integers(0, s.v - 1), min_size=1,
                                     max_size=3))
            part = sl.distance_partition(s, 1, code)[0]
        else:
            assignment = data.draw(st.lists(st.integers(0, 4), min_size=s.v,
                                            max_size=s.v))
            part = partition_from_assignment(s, assignment)
        f = sl.partition_projector(part)
        got = sl.commutes_with_scheme(f, s)
        assert got == reference_commutes(f, s)
        eq = sl.is_equitable(s, part)
        assert eq == reference_is_equitable(s, part)
        assert got[0] == eq.equitable
        assert sum(sl.godsil_condition(s, spec, part).values) == part.t


class TestDistancePartition:
    def test_whole_set(self, petersen):
        part, rho = sl.distance_partition(petersen, 1, petersen.labels)
        assert rho == 0 and part.t == 1

    def test_single_vertex(self, petersen):
        part, rho = sl.distance_partition(petersen, 1, ["0"])
        assert (rho, part.cell_sizes) == (2, (1, 3, 6))

    def test_edge(self, petersen):
        part, rho = sl.distance_partition(petersen, 1, ["0", "0'"])
        assert (rho, part.cell_sizes) == (2, (2, 4, 4))

    def test_second_relation(self, petersen):
        # the distance-2 graph of Petersen is 6-regular and connected
        part, rho = sl.distance_partition(petersen, 2, ["0"])
        assert part.cell_sizes == (1, 6, 3)
        assert rho == 2

    def test_empty_code(self, petersen):
        with pytest.raises(sl.InputError):
            sl.distance_partition(petersen, 1, [])

    def test_disconnected_relation(self):
        # in the 4-cycle scheme the distance-2 relation is a perfect matching
        c4 = sl.named_scheme("cycle", 4)
        with pytest.raises(sl.InputError):
            sl.distance_partition(c4, 2, ["0"])

    def test_bad_relation_index(self, petersen):
        with pytest.raises(sl.InputError):
            sl.distance_partition(petersen, 9, ["0"])


class TestQuotientIdentityCheck:
    def test_wrong_count_profile_is_caught(self, petersen, monkeypatch):
        # a constant count passes the count test on every partition; the
        # float64 product A_i H = H N_i must reject it
        def constant(s, rows, cols):
            shape = (rows.max() + 1, cols.max() + 1)
            return (np.ones(shape, dtype=np.int64) for _ in range(s.d + 1))
        monkeypatch.setattr(partition_module, "_pair_counts", constant)
        part, _ = sl.distance_partition(petersen, 1, ["0"])
        with pytest.raises(sl.InternalConsistencyError,
                           match="A_0 H = H N_0 failed"):
            sl.is_equitable(petersen, part)
