import collections
from fractions import Fraction

import numpy as np
import pytest

import schemelab as sl
from schemelab.ratmat import RationalMatrix, rank, rref


def bases(spec):
    """Rows spanning each W_j, the row space of E_j: in exact mode the
    non-zero rows of rref(E_j), in float mode the orthonormal eigenvectors
    of E_j for eigenvalue 1."""
    out = []
    for e in spec.idempotents:
        if spec.exact:
            reduced, rk, _ = rref(e)
            out.append(RationalMatrix(reduced.rows[:rk]))
        else:
            w, vecs = np.linalg.eigh(e)
            out.append(vecs[:, w > 0.5].T.copy())
    return tuple(out)


def numpy_eigen_multiset(matrix):
    eigs = np.linalg.eigvalsh(np.array(matrix.rows, dtype=float))
    return collections.Counter(int(round(x)) for x in eigs)


def product_scheme(a, b):
    """Direct product: relation i*(d_b+1)+j is A_i (x) B_j, checked by the axioms."""
    mats = [np.kron(np.array(x.rows, dtype=int),
                    np.array(y.rows, dtype=int)).tolist()
            for x in a.relations for y in b.relations]
    report = sl.verify_axioms(mats)
    assert report.ok
    return report.scheme


class TestCommonEigenspaces:
    def test_complete_graph_dims(self, k4):
        spec = sl.common_eigenspaces(k4)
        assert spec.multiplicities == (1, 3)

    def test_petersen_dims_match_numeric_oracle(self, petersen, petersen_spec):
        assert numpy_eigen_multiset(petersen.relations[1]) == {3: 1, 1: 5, -2: 4}
        assert petersen_spec.multiplicities == (1, 5, 4)

    def test_hamming_dims(self, hamming32_spec):
        assert hamming32_spec.multiplicities == (1, 3, 3, 1)

    def test_constants_space_first(self, exact_catalog):
        for s in exact_catalog:
            spec = sl.common_eigenspaces(s)
            b0 = bases(spec)[0]
            assert b0.nrows == 1
            assert len(set(b0[0])) == 1  # constant vector spans W_0

    def test_spaces_pairwise_orthogonal(self, petersen_spec):
        spaces = bases(petersen_spec)
        for i in range(len(spaces)):
            for j in range(i + 1, len(spaces)):
                prod = spaces[i] @ spaces[j].transpose()
                assert prod == RationalMatrix.zeros(prod.nrows, prod.ncols)

    def test_mode_detection(self, petersen, cycle5):
        assert sl.rational_spectrum_roots(petersen) is not None
        assert sl.rational_spectrum_roots(cycle5) is None
        assert sl.common_eigenspaces(petersen).mode == "exact"
        float_spec = sl.common_eigenspaces(cycle5)
        assert float_spec.mode == "float"
        assert float_spec.warnings

    def test_rational_spectrum_roots_match_numeric_oracle(self, exact_catalog):
        schemes = exact_catalog + [sl.named_scheme("cycle", 4),
                                   sl.named_scheme("cycle", 6)]
        for s in schemes:
            assert sl.rational_spectrum_roots(s) == \
                [numpy_eigen_multiset(a) for a in s.relations[1:]]

    def test_exact_mode_refused_for_irrational(self, cycle5):
        with pytest.raises(sl.IrrationalSpectrumError):
            sl.common_eigenspaces(cycle5, mode="exact")

    def test_unknown_mode(self, petersen):
        with pytest.raises(sl.InputError):
            sl.common_eigenspaces(petersen, mode="symbolic")

    def test_float_dims(self, cycle5, cycle7):
        assert sl.common_eigenspaces(cycle5, mode="float").multiplicities == (1, 2, 2)
        assert sl.common_eigenspaces(cycle7, mode="float").multiplicities == (1, 2, 2, 2)

    def test_oversized_tolerance_merges_spaces(self, cycle5):
        with pytest.raises(sl.InternalConsistencyError):
            sl.common_eigenspaces(cycle5, mode="float", eigen_tol=10.0)

    def test_small_even_cycles_are_exact(self):
        # 2cos(2 pi k / n) is rational for every eigenvalue exactly when
        # n divides 4 or 6, so these two cycles exercise the exact lane
        c4 = sl.named_scheme("cycle", 4)
        spec4 = sl.spectral_data(c4)
        assert spec4.mode == "exact"
        assert spec4.multiplicities == (1, 2, 1)
        assert [list(r) for r in spec4.p_matrix.rows] == \
            [[1, 2, 1], [1, 0, -1], [1, -2, 1]]

        # the distance-2 relation of the 6-cycle is disconnected (two
        # triangles); the refinement must not care
        c6 = sl.named_scheme("cycle", 6)
        spec6 = sl.spectral_data(c6)
        assert spec6.mode == "exact"
        assert spec6.multiplicities == (1, 2, 2, 1)
        assert [list(r) for r in spec6.p_matrix.rows] == \
            [[1, 2, 2, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -2, 2, -1]]

    def test_johnson52_p_matrix(self, johnson52):
        spec = sl.spectral_data(johnson52)
        assert spec.multiplicities == (1, 4, 5)
        assert [list(r) for r in spec.p_matrix.rows] == \
            [[1, 6, 3], [1, 1, -2], [1, -2, 1]]

    def test_degenerate_schemes(self):
        k2 = sl.named_scheme("hamming", 1, 2)
        spec = sl.spectral_data(k2)
        assert [list(r) for r in spec.p_matrix.rows] == [[1, 1], [1, -1]]

        trivial = sl.verify_axioms([RationalMatrix.identity(1)]).scheme
        spec1 = sl.spectral_data(trivial)
        assert spec1.multiplicities == (1,)
        assert list(spec1.p_matrix[0]) == [1]

    def test_larger_antipodal_johnson(self):
        s = sl.named_scheme("johnson", 6, 3)
        assert (s.v, s.d) == (20, 3)
        assert s.valencies == (1, 9, 9, 1)
        spec = sl.spectral_data(s)
        assert spec.mode == "exact"
        assert spec.multiplicities == (1, 5, 9, 5)
        assert spec.p_matrix @ spec.q_matrix == \
            s.v * RationalMatrix.identity(s.d + 1)
        part, rho = sl.distance_partition(s, 1, [s.labels[0]])
        assert rho == 3
        assert sl.verify_equitable_multiplicities(s, spec, part).ok


class TestProductSchemes:
    """Products are not distance-regular: no single relation separates
    the eigenspaces, so the refinement has to combine relations."""

    def test_k3_squared_exact(self):
        k3 = sl.named_scheme("hamming", 1, 3)
        s = product_scheme(k3, k3)
        spec = sl.spectral_data(s, mode="exact")
        p3 = np.array([[1, 2], [1, -1]])  # K3 is self-dual: Q = P
        kron = np.kron(p3, p3)
        order = sorted(range(4), key=lambda r: tuple(kron[r]), reverse=True)
        assert [list(r) for r in spec.p_matrix.rows] == kron[order].tolist()
        assert [list(r) for r in spec.q_matrix.rows] == kron[:, order].tolist()
        assert spec.multiplicities == (1, 2, 2, 4)
        es = spec.idempotents
        zero = RationalMatrix.zeros(s.v)
        for j, e in enumerate(es):
            assert e.transpose() == e
            assert rank(e) == spec.multiplicities[j]
            for k, other in enumerate(es):
                assert e @ other == (e if j == k else zero)
        total = zero
        for e in es:
            total = total + e
        assert total == RationalMatrix.identity(s.v)
        for i in range(s.d + 1):
            combo = zero
            for j in range(s.d + 1):
                combo = combo + spec.p_matrix[j][i] * es[j]
            assert combo == s.relations[i]

    def test_c5_times_k2_float(self, cycle5):
        s = product_scheme(cycle5, sl.named_scheme("hamming", 1, 2))
        spec = sl.spectral_data(s)
        assert spec.mode == "float"
        p, q = spec.p_matrix, spec.q_matrix
        assert np.abs(p @ q - s.v * np.eye(s.d + 1)).max() < 1e-8
        for i in range(s.d + 1):
            for j in range(s.d + 1):
                assert abs(q[i][j] * s.valencies[i]
                           - p[j][i] * spec.multiplicities[j]) < 1e-8
        p5 = np.array([[1, 2 * np.cos(2 * np.pi * t / 5),
                        2 * np.cos(4 * np.pi * t / 5)] for t in range(3)])
        kron = np.kron(p5, np.array([[1, 1], [1, -1]]))
        mult = np.kron([1, 2, 2], [1, 1])
        order = sorted(range(6), key=lambda r: tuple(kron[r]), reverse=True)
        assert np.abs(p - kron[order]).max() < 1e-9
        assert spec.multiplicities == tuple(int(m) for m in mult[order])


@pytest.fixture(scope="module")
def k3_squared_from_file(tmp_path_factory):
    """K3 x K3, written to a relation file and read back."""
    from schemelab.fileio import read_relation_file
    from test_fileio import write_relation_file
    k3 = sl.named_scheme("hamming", 1, 3)
    path = tmp_path_factory.mktemp("rel") / "k3xk3.rel"
    write_relation_file(path, product_scheme(k3, k3))
    labels, mats = read_relation_file(path)
    return sl.verify_axioms(mats, labels).scheme


def reference_idempotents(s, spec):
    """E_j = (1/v) sum_i Q_ij A_i built entry by entry from the relation
    table, with Q_ij = m_j P_ji / k_i: the eager loop the coefficients
    replaced."""
    rel = s.relation_of
    rows = spec.p_matrix.rows if spec.exact else spec.p_matrix
    es = []
    for row, m in zip(rows, spec.multiplicities):
        if spec.exact:
            coef = [m * Fraction(x) / (s.v * k)
                    for x, k in zip(row, s.valencies)]
            es.append(RationalMatrix([[coef[r] for r in rel_row]
                                      for rel_row in rel]))
        else:
            coef = np.array([m * x / (s.v * k)
                             for x, k in zip(row, s.valencies)])
            es.append(coef[np.array(rel)])
    return es


class TestIdempotents:
    def test_lazy_matrices_match_reference_loop(self, exact_catalog,
                                                k3_squared_from_file):
        cycles = [sl.named_scheme("cycle", n) for n in range(5, 14)]
        modes = set()
        for s in exact_catalog + [k3_squared_from_file] + cycles:
            spec = sl.spectral_data(s)
            assert "idempotents" not in vars(spec)
            expected = reference_idempotents(s, spec)
            modes.add(spec.mode)
            if spec.exact:
                assert list(spec.idempotents) == expected
            else:
                assert len(spec.idempotents) == len(expected)
                for e, ref in zip(spec.idempotents, expected):
                    assert e.shape == ref.shape
                    assert np.abs(e - ref).max() <= 1e-12
            assert spec.idempotents is spec.idempotents
        assert modes == {"exact", "float"}

    def test_e0_is_uniform(self, exact_catalog):
        for s in exact_catalog:
            spec = sl.idempotents(sl.common_eigenspaces(s))
            assert spec.idempotents[0] == Fraction(1, s.v) * RationalMatrix.ones(s.v)

    def test_idempotent_laws_exact(self, petersen, petersen_spec):
        es = petersen_spec.idempotents
        total = RationalMatrix.zeros(petersen.v)
        for j, e in enumerate(es):
            total = total + e
            assert e.transpose() == e
            for k, other in enumerate(es):
                expected = e if j == k else RationalMatrix.zeros(petersen.v)
                assert e @ other == expected
        assert total == RationalMatrix.identity(petersen.v)

    def test_trace_and_rank_give_multiplicities(self, petersen_spec):
        for j, e in enumerate(petersen_spec.idempotents):
            f_j = petersen_spec.multiplicities[j]
            assert e.trace() == f_j
            assert rank(e) == f_j

    def test_idempotent_laws_float(self, cycle5):
        spec = sl.spectral_data(cycle5)
        assert spec.mode == "float"
        es = [np.asarray(e) for e in spec.idempotents]
        total = sum(es)
        assert np.abs(total - np.eye(cycle5.v)).max() < 1e-8
        for j, e in enumerate(es):
            for k, other in enumerate(es):
                expected = e if j == k else np.zeros_like(e)
                assert np.abs(e @ other - expected).max() < 1e-8


class TestEigenmatrices:
    def test_row_zero_is_valencies(self, exact_catalog):
        for s in exact_catalog:
            spec = sl.spectral_data(s)
            assert tuple(spec.p_matrix[0]) == s.valencies

    def test_petersen_p_matrix(self, petersen_spec):
        assert [list(r) for r in petersen_spec.p_matrix.rows] == \
            [[1, 3, 6], [1, 1, -2], [1, -2, 1]]

    def test_pq_identity_exact(self, exact_catalog):
        for s in exact_catalog:
            spec = sl.spectral_data(s)
            assert spec.p_matrix @ spec.q_matrix == \
                s.v * RationalMatrix.identity(s.d + 1)

    def test_duality_relation(self, exact_catalog):
        for s in exact_catalog:
            spec = sl.spectral_data(s)
            for i in range(s.d + 1):
                for j in range(s.d + 1):
                    assert spec.q_matrix[i][j] * s.valencies[i] == \
                        spec.p_matrix[j][i] * spec.multiplicities[j]

    def test_adjacency_reconstruction(self, exact_catalog):
        for s in exact_catalog:
            spec = sl.spectral_data(s)
            for i in range(s.d + 1):
                combo = RationalMatrix.zeros(s.v)
                for j in range(s.d + 1):
                    combo = combo + spec.p_matrix[j][i] * spec.idempotents[j]
                assert combo == s.relations[i]

    def test_multiplicities_positive_and_sum(self, exact_catalog):
        for s in exact_catalog:
            spec = sl.spectral_data(s)
            assert sum(spec.multiplicities) == s.v
            assert all(f >= 1 for f in spec.multiplicities)

    def test_float_identities(self, cycle5, cycle7):
        for s in (cycle5, cycle7):
            spec = sl.spectral_data(s)
            p, q = spec.p_matrix, spec.q_matrix
            assert np.abs(p @ q - s.v * np.eye(s.d + 1)).max() < 1e-8
            for i in range(s.d + 1):
                for j in range(s.d + 1):
                    assert abs(q[i][j] * s.valencies[i]
                               - p[j][i] * spec.multiplicities[j]) < 1e-8


class TestProjectOntoAlgebra:
    def test_fixes_algebra_members(self, petersen, petersen_spec):
        for m in (petersen.relations[1], RationalMatrix.identity(petersen.v)):
            assert sl.project_onto_algebra(m, petersen, petersen_spec) == m

    def test_pair_projector_coefficients(self, petersen, petersen_spec,
                                         pair_partition):
        f = sl.partition_projector(pair_partition)
        fhat = sl.project_onto_algebra(f, petersen, petersen_spec)
        coeffs = (Fraction(5, 10), Fraction(1, 30), Fraction(4, 60))
        expected = RationalMatrix.zeros(petersen.v)
        for c, a in zip(coeffs, petersen.relations):
            expected = expected + c * a
        assert fhat == expected

    def test_idempotent_on_algebra_span(self, petersen, petersen_spec,
                                        pair_partition):
        f = sl.partition_projector(pair_partition)
        once = sl.project_onto_algebra(f, petersen, petersen_spec)
        twice = sl.project_onto_algebra(once, petersen, petersen_spec)
        assert once == twice

    def test_dimension_mismatch(self, petersen, petersen_spec):
        with pytest.raises(sl.InputError):
            sl.project_onto_algebra(RationalMatrix.identity(3),
                                    petersen, petersen_spec)

    def test_float_path(self, cycle5):
        spec = sl.spectral_data(cycle5)
        a1 = np.array(cycle5.relations[1].rows, dtype=float)
        assert np.abs(sl.project_onto_algebra(a1, cycle5, spec) - a1).max() < 1e-8


def first_non_character(s, rows, tol):
    """The first (j, a, b) of the (j, a, b) scan breaking the identity."""
    r = range(s.d + 1)
    for j, row in enumerate(rows):
        for a in r:
            for b in r:
                gap = row[a] * row[b] - sum(s.intersection[a][b][c] * row[c]
                                            for c in r)
                if abs(gap) > tol:
                    return j, a, b
    return None


class TestCharacterCheck:
    @pytest.mark.parametrize("exact", [True, False])
    def test_witness_is_first_of_loop_scan(self, exact_catalog, exact):
        from schemelab import spectra
        rng = np.random.default_rng(5)
        for s in exact_catalog + [sl.named_scheme("hamming", 4, 3)]:
            p = [list(r) for r in sl.spectral_data(s).p_matrix.rows]
            for _ in range(20):
                rows = [[int(x) if exact else float(x) for x in r] for r in p]
                for _ in range(rng.integers(1, 3)):
                    j, i = rng.integers(0, s.d + 1, size=2)
                    rows[j][i] += 1 if exact else 1e-3
                tol = 0 if exact else 1e-8 * s.v
                expected = first_non_character(s, rows, tol)
                if expected is None:
                    spectra._check_characters(s, rows, exact)
                    continue
                j, a, b = expected
                with pytest.raises(sl.InternalConsistencyError) as info:
                    spectra._check_characters(s, rows, exact)
                assert str(info.value) == (
                    f"row {j} of P is not a character: P_ja P_jb != "
                    f"sum_c p^c_ab P_jc at a={a}, b={b}")

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_swapped_eigenvalues_raise(self, hamming32, monkeypatch, mode):
        from schemelab import spectra
        original = spectra._eigenmatrix_rows

        def swapped(s, eigen_tol):
            # rows (1,1,-1,-1) and (1,-1,-1,1) become (1,-1,-1,-1) and
            # (1,1,-1,1): both still give the integral multiplicity 3
            rows = original(s, eigen_tol)
            rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
            return rows

        monkeypatch.setattr(spectra, "_eigenmatrix_rows", swapped)
        with pytest.raises(sl.InternalConsistencyError, match="not a character"):
            sl.spectral_data(hamming32, mode=mode)


def _left_eigen_split(basis, a, eigenvalues):
    """Split a basis of an a-invariant row space by the eigenvalues of a."""
    from schemelab.ratmat import nullspace
    pieces = []
    for lam in eigenvalues:
        shifted = basis @ (a - lam * RationalMatrix.identity(a.nrows))
        kernel = nullspace(shifted.transpose())
        if kernel:
            coords = RationalMatrix(kernel)
            pieces.append((lam, coords @ basis))
    assert sum(sub.nrows for _, sub in pieces) == basis.nrows
    return pieces


def reference_rows(s):
    """Exact P by refining Q^{d+1} over the integer roots of each char(L_i),
    or None when some char(L_i) does not split over Q."""
    from schemelab.poly import char_poly, integer_roots
    r = range(s.d + 1)
    spaces = [((), RationalMatrix.identity(s.d + 1))]
    for i in r[1:]:
        l_i = RationalMatrix([[s.intersection[i][j][k] for j in r] for k in r])
        roots, rest = integer_roots(char_poly(l_i), bound=s.valencies[i])
        if rest.degree > 0:
            return None
        eigenvalues = sorted(roots, reverse=True)
        spaces = [(tags + (lam,), sub) for tags, basis in spaces
                  for lam, sub in _left_eigen_split(basis, l_i, eigenvalues)]
    rows = [[1, *tags] for tags, _ in sorted(spaces, key=lambda sp: sp[0],
                                             reverse=True)]
    rows[0] = list(s.valencies)
    return rows


class TestRoundedRoute:
    """Exact P comes from the rounded float split, proved by the character
    check; the exact refinement over char(L_i) is the reference."""

    @pytest.fixture(scope="class")
    def exact_schemes(self, exact_catalog, k3_squared_from_file):
        return exact_catalog + [sl.named_scheme("hamming", 4, 3),
                                sl.named_scheme("johnson", 8, 3),
                                sl.named_scheme("cycle", 4),
                                sl.named_scheme("cycle", 6),
                                k3_squared_from_file]

    def test_p_matches_reference(self, exact_schemes):
        for s in exact_schemes:
            expected = reference_rows(s)
            assert expected is not None
            spec = sl.spectral_data(s)
            assert spec.mode == "exact"
            assert [list(r) for r in spec.p_matrix.rows] == expected

    def test_auto_decision_matches_reference_on_cycles(self):
        for n in range(3, 65):
            s = sl.named_scheme("cycle", n)
            exact = reference_rows(s) is not None
            assert (sl.rational_spectrum_roots(s) is not None) == exact, n
            assert sl.common_eigenspaces(s).mode == \
                ("exact" if exact else "float"), n

    @staticmethod
    def _push_split(monkeypatch, delta):
        """Move the smallest eigenvalue of the first split (relation 1 on
        the whole space) by ``delta``."""
        from schemelab import spectra
        original = spectra.symmetric_eigen
        calls = []

        def pushed(matrix, tol):
            groups = original(matrix, tol=tol)
            calls.append(None)
            if len(calls) == 1:
                lam, cols = groups[-1]
                groups[-1] = (lam + delta, cols)
            return groups

        monkeypatch.setattr(spectra, "symmetric_eigen", pushed)

    def test_entry_far_from_integer_is_irrational(self, hamming32,
                                                  monkeypatch):
        from schemelab import spectra
        self._push_split(monkeypatch, 1e-3)
        assert spectra._eigenmatrix_rows(hamming32, None) is None
        self._push_split(monkeypatch, 1e-3)
        assert sl.rational_spectrum_roots(hamming32) is None

    def test_entry_near_integer_still_gives_exact_p(self, hamming32,
                                                    monkeypatch):
        self._push_split(monkeypatch, 1e-12)
        spec = sl.spectral_data(hamming32)
        assert spec.mode == "exact"
        assert [list(r) for r in spec.p_matrix.rows] == \
            reference_rows(hamming32)

    def test_rounding_onto_another_row_raises(self, k4, monkeypatch):
        # -1 pushed onto 3 would make the trivial character twice; both
        # copies pass the character identity, so distinctness must be checked
        self._push_split(monkeypatch, 4.0)
        with pytest.raises(sl.InternalConsistencyError, match="merged"):
            sl.rational_spectrum_roots(k4)
