import random
from fractions import Fraction

import numpy as np
import pytest

import schemelab as sl
from schemelab.feasibility import _relation_char_poly
from schemelab.floatlin import float_rank
from schemelab.poly import Polynomial, char_poly, integer_roots, poly_divides
from schemelab.ratmat import RationalMatrix, rank

from test_spectra import bases, numpy_eigen_multiset, product_scheme


def permutation_matrix(images):
    """P_sigma, with entry (x, sigma(x)) equal to 1."""
    n = len(images)
    rows = [[0] * n for _ in range(n)]
    for x, y in enumerate(images):
        rows[x][y] = 1
    return RationalMatrix(rows)


@pytest.fixture(scope="module")
def petersen_vertex_partition(petersen):
    part, _ = sl.distance_partition(petersen, 1, ["0"])
    return part


class TestTraceProfile:
    def test_entry_zero_counts_cells(self, petersen, pair_partition):
        for part in (pair_partition, sl.singleton_partition(petersen),
                     sl.one_cell_partition(petersen)):
            assert sl.trace_profile(petersen, part)[0] == part.t

    def test_pair_partition(self, petersen, pair_partition):
        assert sl.trace_profile(petersen, pair_partition) == (5, 1, 4)

    def test_distance_partition_matches_quotient_traces(
            self, petersen, petersen_vertex_partition):
        profile = sl.trace_profile(petersen, petersen_vertex_partition)
        assert profile == (3, 2, 5)
        eq = sl.is_equitable(petersen, petersen_vertex_partition)
        assert profile == tuple(n.trace() for n in eq.quotients)

    def test_equals_projector_inner_products(self, petersen, pair_partition):
        f = sl.partition_projector(pair_partition)
        profile = sl.trace_profile(petersen, pair_partition)
        for i, a in enumerate(petersen.relations):
            assert sl.inner_product(f, a) == profile[i]


class TestGodsilCondition:
    def test_one_cell(self, petersen, petersen_spec):
        res = sl.godsil_condition(petersen, petersen_spec,
                                  sl.one_cell_partition(petersen))
        assert res.values == (1, 0, 0)
        assert res.all_pass

    def test_pair_partition_accepted_despite_non_equitability(
            self, petersen, petersen_spec, pair_partition):
        assert not sl.is_equitable(petersen, pair_partition).equitable
        res = sl.godsil_condition(petersen, petersen_spec, pair_partition)
        assert res.values == (1, 2, 2)
        assert res.all_pass

    def test_distance_partition(self, petersen, petersen_spec,
                                petersen_vertex_partition):
        res = sl.godsil_condition(petersen, petersen_spec,
                                  petersen_vertex_partition)
        assert res.values == (1, 1, 1)
        assert res.all_pass

    def test_sum_rule_on_random_partitions(self, petersen, petersen_spec):
        rng = random.Random(5)
        for _ in range(10):
            t = rng.randint(2, 6)
            assignment = [rng.randrange(t) for _ in range(petersen.v)]
            cells = [tuple(x for x in range(10) if assignment[x] == k)
                     for k in range(t)]
            part = sl.Partition(petersen.labels,
                                tuple(c for c in cells if c))
            res = sl.godsil_condition(petersen, petersen_spec, part)
            assert sum(res.values) == part.t
            assert res.values[0] == 1

    def test_rejects_fractional_value(self, hamming32, hamming32_spec):
        # a 2-subset whose projector contributes a half-integer trace profile
        cells = [["000", "011"]] + [[lab] for lab in hamming32.labels
                                    if lab not in ("000", "011")]
        part = sl.make_partition(hamming32, cells)
        res = sl.godsil_condition(hamming32, hamming32_spec, part)
        assert not res.all_pass
        assert any(v.denominator != 1 for v in res.values)


class TestSubducedMultiplicities:
    def test_singletons_give_multiplicities(self, petersen, petersen_spec):
        part = sl.singleton_partition(petersen)
        assert sl.subduced_multiplicities(petersen, petersen_spec, part) == \
            petersen_spec.multiplicities

    def test_one_cell(self, petersen, petersen_spec):
        part = sl.one_cell_partition(petersen)
        assert sl.subduced_multiplicities(petersen, petersen_spec, part) == \
            (1, 0, 0)

    def test_distance_partition(self, petersen, petersen_spec,
                                petersen_vertex_partition):
        assert sl.subduced_multiplicities(
            petersen, petersen_spec, petersen_vertex_partition) == (1, 1, 1)

    def test_antipodal_pairs(self, hamming32, hamming32_spec):
        cells = [["000", "111"], ["001", "110"], ["010", "101"], ["011", "100"]]
        part = sl.make_partition(hamming32, cells)
        assert sl.subduced_multiplicities(hamming32, hamming32_spec, part) == \
            (1, 0, 3, 0)

    def test_non_equitable_sum_can_exceed_cells(self, petersen, petersen_spec,
                                                pair_partition):
        m = sl.subduced_multiplicities(petersen, petersen_spec, pair_partition)
        assert sum(m) == 7  # strictly above t = 5; equality needs equitability


class TestMultiplicityIdentity:
    def test_distance_partition(self, petersen, petersen_spec,
                                petersen_vertex_partition):
        check = sl.verify_equitable_multiplicities(
            petersen, petersen_spec, petersen_vertex_partition)
        assert check.ok
        assert check.projection_values == (1, 1, 1)
        assert check.subduced == (1, 1, 1)
        assert check.quotient_spectra_ok

    def test_one_cell(self, exact_catalog):
        for s in exact_catalog:
            spec = sl.spectral_data(s)
            check = sl.verify_equitable_multiplicities(
                s, spec, sl.one_cell_partition(s))
            assert check.ok
            assert check.projection_values[0] == 1
            assert all(v == 0 for v in check.projection_values[1:])

    def test_antipodal_pairs(self, hamming32, hamming32_spec):
        cells = [["000", "111"], ["001", "110"], ["010", "101"], ["011", "100"]]
        part = sl.make_partition(hamming32, cells)
        eq = sl.is_equitable(hamming32, part)
        assert eq.equitable
        assert eq.quotients[1] == RationalMatrix.ones(4) - RationalMatrix.identity(4)
        assert char_poly(eq.quotients[1]) == Polynomial.from_roots([3, -1, -1, -1])
        check = sl.verify_equitable_multiplicities(hamming32, hamming32_spec,
                                                   part, eq)
        assert check.ok and check.subduced == (1, 0, 3, 0)

    def test_requires_equitable(self, petersen, petersen_spec, pair_partition):
        with pytest.raises(sl.NotEquitableError):
            sl.verify_equitable_multiplicities(petersen, petersen_spec,
                                               pair_partition)


class TestLloyd:
    def test_one_cell(self, exact_catalog):
        for s in exact_catalog:
            assert sl.lloyd_check(s, sl.one_cell_partition(s)).all_pass

    def test_distance_partition(self, petersen, petersen_vertex_partition):
        res = sl.lloyd_check(petersen, petersen_vertex_partition)
        assert res.divides == (True, True, True)

    def test_adversarial_quotient_rejected(self, petersen):
        assert not poly_divides(char_poly(RationalMatrix([[2]])),
                                char_poly(petersen.relations[1]))

    def test_requires_equitable(self, petersen, pair_partition):
        with pytest.raises(sl.NotEquitableError):
            sl.lloyd_check(petersen, pair_partition)

    def test_multiplicity_identity_implies_lloyd(self, petersen, petersen_spec):
        for code in (["0"], ["0", "0'"], ["3"], ["2", "2'"]):
            part, _ = sl.distance_partition(petersen, 1, code)
            check = sl.verify_equitable_multiplicities(petersen, petersen_spec,
                                                       part)
            assert check.ok
            assert sl.lloyd_check(petersen, part).all_pass


def rotation_map():
    rot = {str(i): str((i + 1) % 5) for i in range(5)}
    rot.update({f"{i}'": f"{(i + 1) % 5}'" for i in range(5)})
    return rot


class TestHigman:
    def test_identity_gives_multiplicities(self, petersen, petersen_spec):
        res = sl.higman_condition(petersen, petersen_spec, list(range(10)))
        assert res.alpha == (10, 0, 0)
        assert res.values == (1, 5, 4)
        assert res.all_pass and res.conclusive

    def test_rotation(self, petersen, petersen_spec):
        res = sl.higman_condition(petersen, petersen_spec, rotation_map())
        assert res.alpha == (0, 5, 5)
        assert res.values == (1, 0, -1)
        assert res.all_pass  # algebraic integers may be negative

    def test_transposition_rejected(self, petersen, petersen_spec):
        images = list(range(10))
        images[0], images[1] = 1, 0  # swap two adjacent vertices
        assert not sl.is_scheme_automorphism(petersen, tuple(images))
        with pytest.raises(sl.NotAutomorphismError):
            sl.higman_condition(petersen, petersen_spec, images)

    def test_precheck_can_be_skipped(self, petersen, petersen_spec):
        images = list(range(10))
        images[0], images[1] = 1, 0
        res = sl.higman_condition(petersen, petersen_spec, images,
                                  check_automorphism=False)
        assert not res.automorphism_checked
        assert sum(res.alpha) == 10

    def test_not_a_bijection(self, petersen, petersen_spec):
        with pytest.raises(sl.InputError):
            sl.higman_condition(petersen, petersen_spec, [0] * 10)
        with pytest.raises(sl.InputError):
            sl.higman_condition(petersen, petersen_spec, {"0": "1"})

    def test_alpha_equals_matrix_inner_product(self, petersen):
        images = tuple(
            petersen.vertex(rotation_map()[lab]) for lab in petersen.labels)
        p = permutation_matrix(images)
        alpha = sl.fixed_relation_counts(petersen, images)
        for i, a in enumerate(petersen.relations):
            assert sl.inner_product(a, p) == alpha[i]


class TestFloatMode:
    def test_cycle_distance_partition(self, cycle5):
        spec = sl.spectral_data(cycle5)
        part, _ = sl.distance_partition(cycle5, 1, ["0"])
        assert sl.is_equitable(cycle5, part).equitable
        res = sl.godsil_condition(cycle5, spec, part)
        assert res.mode == "float" and res.int_tol is not None
        assert [round(float(x)) for x in res.values] == [1, 1, 1]
        assert res.all_pass
        assert sl.subduced_multiplicities(cycle5, spec, part) == (1, 1, 1)
        check = sl.verify_equitable_multiplicities(cycle5, spec, part)
        assert check.ok

    def test_higman_carries_caveat(self, cycle5):
        spec = sl.spectral_data(cycle5)
        rot = [(i + 1) % 5 for i in range(5)]
        res = sl.higman_condition(cycle5, spec, rot)
        assert not res.conclusive
        assert res.caveat is not None
        assert res.alpha == (0, 5, 0)


class TestExactCycleSix:
    def test_antipodal_partition(self):
        # cycle(6) has a rational spectrum, so the whole chain runs exactly
        s = sl.named_scheme("cycle", 6)
        spec = sl.spectral_data(s)
        assert spec.mode == "exact"
        part = sl.make_partition(s, [["0", "3"], ["1", "4"], ["2", "5"]])
        eq = sl.is_equitable(s, part)
        assert eq.equitable
        # odd characters vanish on antipodal pairs, so only the constants
        # and the two eigenvalue -1 characters survive: N_1 = J - I
        check = sl.verify_equitable_multiplicities(s, spec, part, eq)
        assert check.ok
        assert check.subduced == (1, 0, 2, 0)
        assert eq.quotients[1] == RationalMatrix.ones(3) - RationalMatrix.identity(3)
        assert sl.lloyd_check(s, part, eq).all_pass


class TestCompleteGraphAutomorphisms:
    def test_every_permutation_passes(self, k4):
        # S_4 is the full automorphism group of the one-class scheme
        import itertools
        spec = sl.spectral_data(k4)
        for images in itertools.permutations(range(4)):
            res = sl.higman_condition(k4, spec, list(images))
            assert res.all_pass
            fixed = sum(1 for x, y in enumerate(images) if x == y)
            assert res.alpha == (fixed, 4 - fixed)


class TestFeasibilityReport:
    def test_pair_partition_report(self, petersen, petersen_spec,
                                   pair_partition):
        rep = sl.feasibility_report(petersen, petersen_spec, pair_partition)
        assert not rep.equitable
        assert rep.trace_profile == (5, 1, 4)
        assert rep.godsil.values == (1, 2, 2)
        assert rep.lloyd is None
        assert rep.subduced is not None

    def test_equitable_report_includes_lloyd(self, petersen, petersen_spec,
                                             petersen_vertex_partition):
        rep = sl.feasibility_report(petersen, petersen_spec,
                                    petersen_vertex_partition)
        assert rep.equitable and rep.lloyd.all_pass


def faddeev_leverrier(m):
    """Reference char(m) by the v x v Faddeev-LeVerrier recurrence:
    M_k = m M_{k-1} + c_{n-k+1} I, c_{n-k} = -tr(m M_k) / k."""
    n = m.nrows
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = RationalMatrix.zeros(n)
    for k in range(1, n + 1):
        mk = m @ mk + coeffs[n - k + 1] * RationalMatrix.identity(n)
        coeffs[n - k] = -(m @ mk).trace() / k
    return Polynomial(coeffs)


class TestRelationCharPoly:
    """char(A_i) from the power sums v (L_i^k)_00, against the v x v routes."""

    def test_exact_families(self, exact_catalog):
        k3 = sl.named_scheme("hamming", 1, 3)
        for s in [*exact_catalog, product_scheme(k3, k3)]:
            for i, a in enumerate(s.relations):
                got = _relation_char_poly(s, i)
                assert got == char_poly(a) == faddeev_leverrier(a)
                roots, rest = integer_roots(got, bound=s.valencies[i])
                assert rest.degree == 0
                assert roots == numpy_eigen_multiset(a)

    def test_cycles(self, cycle5, cycle7):
        for s in (cycle5, cycle7):
            for i, a in enumerate(s.relations):
                got = _relation_char_poly(s, i)
                assert got == char_poly(a) == faddeev_leverrier(a)
                eigs = np.linalg.eigvalsh(np.array(a.rows, dtype=float))
                coeffs = [float(c) for c in reversed(got.coeffs)]
                assert np.abs(np.poly(eigs) - coeffs).max() < 1e-9


def random_partition(s, rng):
    order = list(range(s.v))
    rng.shuffle(order)
    t = rng.randint(1, s.v)
    cells = [[x] for x in order[:t]]
    for x in order[t:]:
        rng.choice(cells).append(x)
    return sl.make_partition(s, [[s.labels[x] for x in c] for c in cells])


class TestSubducedAgainstBases:
    """rank(H^T E_j H) from t x t cell counts against rank(basis of W_j @ H)."""

    @staticmethod
    def reference(s, spec, part):
        h = part.characteristic_matrix()
        if spec.exact:
            return tuple(rank(b @ h) for b in bases(spec))
        hf = np.array(h.rows, dtype=float)
        atol = 1e-8 * max(1.0, float(np.sqrt(s.v)))
        return tuple(float_rank(b @ hf, atol) for b in bases(spec))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_random_and_distance_partitions(self, exact_catalog, cycle5,
                                            cycle7, mode):
        rng = random.Random(11)
        schemes = exact_catalog + ([cycle5, cycle7] if mode == "float" else [])
        non_equitable = 0
        for s in schemes:
            spec = sl.spectral_data(s, mode=mode)
            parts = [random_partition(s, rng) for _ in range(12)]
            parts.append(sl.distance_partition(s, 1, [s.labels[0]])[0])
            for part in parts:
                non_equitable += not sl.is_equitable(s, part).equitable
                assert sl.subduced_multiplicities(s, spec, part) == \
                    self.reference(s, spec, part)
        assert non_equitable > 0

    def test_library_leaves_bases_unbuilt(self, petersen,
                                          petersen_vertex_partition):
        spec = sl.spectral_data(petersen)
        sl.feasibility_report(petersen, spec, petersen_vertex_partition)
        sl.verify_equitable_multiplicities(petersen, spec,
                                           petersen_vertex_partition)
        assert "idempotents" not in vars(spec)


class TestAutomorphismTable:
    """The relation-table test against P_sigma A_i = A_i P_sigma."""

    @staticmethod
    def commutes(s, images):
        p = permutation_matrix(images)
        return all(p @ a == a @ p for a in s.relations)

    def test_agrees_with_matrix_commutation(self, petersen, hamming32,
                                            johnson52, cycle7):
        def johnson_swap(label):
            swap = {"0": "1", "1": "0"}
            points = sorted(int(swap.get(x, x)) for x in label.split(","))
            return ",".join(str(x) for x in points)

        real = [
            (petersen, rotation_map().get),
            (hamming32, lambda w: str(1 - int(w[0])) + w[1:]),
            (johnson52, johnson_swap),
            (cycle7, lambda lab: str((int(lab) + 1) % 7)),
        ]
        rng = random.Random(5)
        for s, relabel in real:
            sigma = tuple(s.vertex(relabel(lab)) for lab in s.labels)
            assert sigma != tuple(range(s.v))
            assert sl.is_scheme_automorphism(s, sigma)
            perms = [tuple(range(s.v)), sigma]
            perms += [tuple(rng.sample(range(s.v), s.v)) for _ in range(20)]
            for images in perms:
                assert sl.is_scheme_automorphism(s, images) == \
                    self.commutes(s, images)


class TestProjectionCrossCheck:
    """tr(F E_j) read off E_j must catch a wrong trace-profile formula."""

    @pytest.mark.parametrize("name, mode", [("petersen", "exact"),
                                            ("cycle5", "float")])
    def test_perturbed_values_are_caught(self, request, monkeypatch,
                                         name, mode):
        import schemelab.feasibility as feasibility_module
        s = request.getfixturevalue(name)
        spec = sl.spectral_data(s)
        assert spec.mode == mode
        part, _ = sl.distance_partition(s, 1, [s.labels[0]])
        sl.godsil_condition(s, spec, part)
        original = feasibility_module._projection_values

        def perturbed(*args):
            values = original(*args)
            return values[:-1] + (values[-1] + Fraction(1, 1000),)

        monkeypatch.setattr(feasibility_module, "_projection_values",
                            perturbed)
        with pytest.raises(sl.InternalConsistencyError, match="disagree"):
            sl.godsil_condition(s, spec, part)

    @pytest.mark.parametrize("name, mode", [("petersen", "exact"),
                                            ("cycle5", "float")])
    def test_extra_pair_in_trace_profile_is_caught(self, request, monkeypatch,
                                                   name, mode):
        import schemelab.feasibility as feasibility_module
        s = request.getfixturevalue(name)
        spec = sl.spectral_data(s)
        assert spec.mode == mode
        part, _ = sl.distance_partition(s, 1, [s.labels[0]])
        original = feasibility_module.trace_profile

        def one_more_pair(s, part):
            profile = original(s, part)
            extra = Fraction(1, len(part.cells[0]))  # in R_1, inside C_1
            return (profile[0], profile[1] + extra) + profile[2:]

        monkeypatch.setattr(feasibility_module, "trace_profile", one_more_pair)
        with pytest.raises(sl.InternalConsistencyError, match="disagree"):
            sl.godsil_condition(s, spec, part)

    @pytest.mark.parametrize("name, mode", [("petersen", "exact"),
                                            ("cycle5", "float")])
    def test_extra_pair_in_pair_counts_is_caught(self, request, monkeypatch,
                                                 name, mode):
        import schemelab.feasibility as feasibility_module
        s = request.getfixturevalue(name)
        spec = sl.spectral_data(s)
        assert spec.mode == mode
        part, _ = sl.distance_partition(s, 1, [s.labels[0]])
        original = feasibility_module._pair_counts

        def one_more_pair(s, rows, cols):
            for i, n_i in enumerate(original(s, rows, cols)):
                if i == 1:  # one more pair of R_1 inside C_1
                    n_i = n_i.copy()
                    n_i[0, 0] += 1
                yield n_i

        monkeypatch.setattr(feasibility_module, "_pair_counts", one_more_pair)
        with pytest.raises(sl.InternalConsistencyError, match="disagree"):
            sl.godsil_condition(s, spec, part)
