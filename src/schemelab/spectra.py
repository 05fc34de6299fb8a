"""Spectral decomposition of a scheme: eigenmatrices, idempotents, eigenspaces.

The decomposition is computed from the intersection numbers alone. The
intersection matrices L_i, with (L_i)_kj = p^k_ij, are (d+1)x(d+1) and
commute; the rows of P are their common left eigenvectors, and P_ji is the
eigenvalue of L_i on row j. From P follow the multiplicities
m_j = v / sum_i P_ji^2/k_i, Q = v P^{-1} and the primitive idempotents
E_j = (1/v) sum_i Q_ij A_i. Each E_j is checked through P alone: row j
of P must be a character of the algebra, P_ja P_jb = sum_c p^c_ab P_jc,
which with the duality Q_ij k_i = P_ji m_j gives E_j E_k = delta_jk E_j and
rank(E_j) = tr(E_j) = m_j. E_j lies in the (d+1)-dimensional algebra, so
its entry (x, y) is c_{j,r(x,y)} with c_ji = m_j P_ji / (v k_i): the d+1
coefficients are kept, and the dense v x v E_j is built only when
``SpectralData.idempotents`` is read. No v x v matrix is row-reduced,
diagonalised or given a characteristic polynomial.

There is one route to P: the symmetrized D^{1/2} L_i D^{-1/2}, D = diag(k_i),
are split relation by relation in double precision. For exact mode each
entry is rounded; one farther than 1e-8 v from every integer shows an
irrational eigenvalue. Integer rows become P only if the exact character
identity holds, as d+1 distinct characters are all of them (Bannai-Ito,
II.3), so a wrong rounding fails there and never gives a wrong exact
verdict. In float mode the eigenvalue tolerance groups the split and
applies nowhere else. Rows of P are ordered by decreasing eigenvalue
tuple; since |P_ji| <= k_i this puts the trivial character first.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (InputError, InternalConsistencyError,
                     IrrationalSpectrumError)
from .floatlin import symmetric_eigen
from .ratmat import RationalMatrix, inner_product, inverse
from .scheme import AssociationScheme

DEFAULT_EIGEN_TOL = 1e-9
# Gate for float-mode self checks (PQ = vI and friends); looser than the
# grouping tolerance, far tighter than anything a report asserts.
_FLOAT_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class SpectralData:
    """Spectral decomposition of a scheme, exact or floating point.

    ``p_matrix[j][i]`` is the eigenvalue of A_i on W_j; ``q_matrix`` is its
    dual with P Q = v I. ``coefficients[j][i]`` = m_j P_ji / (v k_i) =
    Q_ij / v is the entry of E_j on every pair of R_i: Fractions in exact
    mode, a float64 array in float mode. ``idempotents[j]``, the dense E_j,
    is built from them and the scheme's relation table when first read.
    """

    mode: str  # "exact" | "float"
    eigen_tol: float | None
    multiplicities: tuple[int, ...]
    coefficients: object | None = None
    p_matrix: object | None = None
    q_matrix: object | None = None
    warnings: tuple[str, ...] = ()
    relation_of: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def exact(self) -> bool:
        return self.mode == "exact"

    @cached_property
    def idempotents(self) -> tuple | None:
        """E_0..E_d as v x v matrices: RationalMatrix in exact mode,
        ndarray in float mode; None without coefficients or a table."""
        if self.coefficients is None or self.relation_of is None:
            return None
        if self.exact:
            return tuple(RationalMatrix([[c[r] for r in row]
                                         for row in self.relation_of])
                         for c in self.coefficients)
        table = np.array(self.relation_of)
        return tuple(c[table] for c in self.coefficients)


def _eigenmatrix_rows(s: AssociationScheme, eigen_tol: float | None):
    """Rows of P from the float split of the L_i; or None.

    Row j of P is a common left eigenvector of the L_i, (L_i)_kj = p^k_ij,
    with eigenvalue P_ji. The symmetric D^{1/2} L_i D^{-1/2} are split in
    double precision, grouping eigenvalues within ``eigen_tol``. When it is
    None the split runs at DEFAULT_EIGEN_TOL and is rounded to integer
    candidates for exact mode, or None when an entry lies farther than
    1e-8 v from every integer (an irrational eigenvalue).
    """
    exact = eigen_tol is None
    tol = DEFAULT_EIGEN_TOL if exact else eigen_tol
    root_k = np.sqrt(np.array(s.valencies, dtype=float))
    spaces = [((), np.eye(s.d + 1))]  # orthonormal column bases
    for i in range(1, s.d + 1):
        # C order fixes BLAS's summation order and so the last float bits
        l_i = np.array(s.intersection[i], dtype=float).T.copy()
        sym = root_k[:, None] * l_i / root_k
        refined = []
        for tags, basis in spaces:
            restricted = basis.T @ sym @ basis
            restricted = (restricted + restricted.T) / 2.0
            refined += [(tags + (lam,), basis @ cols) for lam, cols
                        in symmetric_eigen(restricted, tol=tol)]
        spaces = refined
    if len(spaces) != s.d + 1:
        raise InternalConsistencyError(
            f"eigenspace refinement produced {len(spaces)} spaces, "
            f"expected {s.d + 1}; input may not be a commutative scheme "
            "or the tolerance merged distinct eigenvalues")
    tags = [t for t, _ in spaces]
    if exact:
        split = np.array(tags, dtype=float).reshape(s.d + 1, s.d)
        rounded = np.rint(split)
        if (np.abs(split - rounded) > _FLOAT_CHECK_TOL * s.v).any():
            return None
        tags = [tuple(int(x) for x in row) for row in rounded]
        if len(set(tags)) != s.d + 1:  # characters proved below must differ
            raise InternalConsistencyError("rounding merged two rows of P")
    rows = [[1, *t] for t in sorted(tags, reverse=True)]
    rows[0] = list(s.valencies)
    return rows


def _multiplicities(s: AssociationScheme, rows: list[list],
                    exact: bool) -> tuple[int, ...]:
    """m_j = v / sum_i P_ji^2/k_i, which must be an integer."""
    out = []
    for row in rows:
        if exact:
            m = s.v / sum(Fraction(x) ** 2 / k for x, k in zip(row, s.valencies))
            ok = m.denominator == 1
        else:
            m = s.v / sum(x * x / k for x, k in zip(row, s.valencies))
            ok = abs(m - round(m)) <= _FLOAT_CHECK_TOL * s.v
        if not ok:
            raise InternalConsistencyError(
                f"multiplicity {m} of an eigenspace is not an integer")
        out.append(int(round(m)))
    return tuple(out)


def _check_characters(s: AssociationScheme, rows: list[list],
                      exact: bool) -> None:
    """P_ja P_jb = sum_c p^c_ab P_jc for every row j of P and all a, b.

    Row j is then a left eigenvector of every L_a with eigenvalue P_ja, i.e.
    A_a -> P_ja is a character of the Bose-Mesner algebra. Exact mode uses
    int64: every term and sum is at most k_a k_b <= v^2. The witness is the
    first (j, a, b) in lexicographic order.
    """
    p = np.array(rows, dtype=np.int64 if exact else float)
    tol = _FLOAT_CHECK_TOL * s.v
    first = None
    for a in range(s.d + 1):
        m_a = np.array(s.intersection[a], dtype=p.dtype)  # (m_a)_bc = p^c_ab
        gap = p[:, a, None] * p - p @ m_a.T  # gap[j, b]
        bad = (gap != 0) if exact else (np.abs(gap) > tol)
        if bad.any():
            j, b = divmod(int(np.argmax(bad)), s.d + 1)
            if first is None or (j, a, b) < first:
                first = (j, a, b)
    if first is not None:
        j, a, b = first
        raise InternalConsistencyError(
            f"row {j} of P is not a character: P_ja P_jb != "
            f"sum_c p^c_ab P_jc at a={a}, b={b}")


def rational_spectrum_roots(s: AssociationScheme) -> list[dict[int, int]] | None:
    """Integer eigenvalues (with multiplicity) of A_1..A_d, or None.

    None signals that some relation has an irrational eigenvalue, i.e. the
    characteristic polynomial of its intersection matrix does not split
    over the rationals, so exact mode is unavailable. Integer rows from the
    rounded float split are proved by the exact character check first.
    Multiplicities are those on the vertex space: eigenvalue P_ji counts
    m_j times.
    """
    rows = _eigenmatrix_rows(s, None)
    if rows is None:
        return None
    _check_characters(s, rows, exact=True)
    mult = _multiplicities(s, rows, exact=True)
    out = []
    for i in range(1, s.d + 1):
        roots = Counter()
        for row, m in zip(rows, mult):
            roots[row[i]] += m
        out.append(dict(roots))
    return out


def common_eigenspaces(s: AssociationScheme, mode: str = "auto",
                       eigen_tol: float = DEFAULT_EIGEN_TOL) -> SpectralData:
    """P, multiplicities and the coefficients of the idempotents E_j.

    ``mode`` is "exact", "float", or "auto" (exact whenever every relation
    has a rational spectrum, else float with a warning recorded). Exactly
    d+1 rows must emerge, each with an integral multiplicity and each a
    character (P_ja P_jb = sum_c p^c_ab P_jc, with ``==`` in exact mode and
    within 1e-8 v in float mode); anything else raises
    InternalConsistencyError. Q is left to ``eigenmatrices``, which verifies
    the duality Q_ij k_i = P_ji m_j that the coefficients of the E_j come
    from.
    """
    if mode not in ("auto", "exact", "float"):
        raise InputError(f"unknown mode {mode!r}")
    warnings: tuple[str, ...] = ()
    rows = None if mode == "float" else _eigenmatrix_rows(s, None)
    exact = rows is not None
    if not exact:
        if mode == "exact":
            raise IrrationalSpectrumError(
                "some relation has an irrational eigenvalue; use float mode")
        if mode == "auto":
            warnings = ("irrational spectrum: falling back to double "
                        f"precision with eigenvalue tolerance {eigen_tol}",)
        rows = _eigenmatrix_rows(s, eigen_tol)
    mult = _multiplicities(s, rows, exact)
    _check_characters(s, rows, exact)
    # column j of Q by duality, over v: c_ji = Q_ij / v = m_j P_ji / (v k_i)
    if exact:
        coef = tuple(tuple(m * Fraction(x) / (s.v * k)
                           for x, k in zip(row, s.valencies))
                     for row, m in zip(rows, mult))
        p = RationalMatrix(rows)
    else:
        p = np.array(rows, dtype=float)
        coef = np.array(mult, dtype=float)[:, None] * p \
            / (s.v * np.array(s.valencies))
    return SpectralData(mode="exact" if exact else "float",
                        eigen_tol=None if exact else eigen_tol,
                        multiplicities=mult, coefficients=coef,
                        p_matrix=p, warnings=warnings,
                        relation_of=s.relation_of)


def idempotents(spec: SpectralData) -> SpectralData:
    """Return ``spec``, which must carry the coefficients of its E_j.

    ``common_eigenspaces`` computes them from P; spectral data without
    them raises InputError. The dense E_j are built only when
    ``spec.idempotents`` is read.
    """
    if spec.coefficients is None:
        raise InputError("spectral data lacks idempotents; "
                         "build it with common_eigenspaces()")
    return spec


def eigenmatrices(s: AssociationScheme, spec: SpectralData) -> SpectralData:
    """Compute Q = v P^{-1} and verify P Q = v I and Q_ij v_i = P_ji f_j."""
    d, v = s.d, s.v
    p = spec.p_matrix
    if spec.exact:
        q = v * inverse(p)
        if p @ q != v * RationalMatrix.identity(d + 1):
            raise InternalConsistencyError("P Q = vI failed in exact mode")
        for i in range(d + 1):
            for j in range(d + 1):
                if q[i][j] * s.valencies[i] != p[j][i] * spec.multiplicities[j]:
                    raise InternalConsistencyError(
                        "duality relation Q_ij v_i = P_ji f_j failed")
        return replace(spec, q_matrix=q)

    q = v * np.linalg.inv(p)
    if np.abs(p @ q - v * np.eye(d + 1)).max() > _FLOAT_CHECK_TOL * v:
        raise InternalConsistencyError("P Q = vI failed in float mode")
    val = np.array(s.valencies, dtype=float)
    mult = np.array(spec.multiplicities, dtype=float)
    duality = np.abs(q * val[:, None] - (p * mult[:, None]).T)
    if duality.max() > _FLOAT_CHECK_TOL * v:
        raise InternalConsistencyError(
            "duality relation Q_ij v_i = P_ji f_j failed in float mode")
    return replace(spec, q_matrix=q)


def spectral_data(s: AssociationScheme, mode: str = "auto",
                  eigen_tol: float = DEFAULT_EIGEN_TOL) -> SpectralData:
    """Full decomposition: eigenspaces, idempotents, eigenmatrices."""
    return eigenmatrices(s, idempotents(common_eigenspaces(s, mode, eigen_tol)))


def project_onto_algebra(m, s: AssociationScheme, spec: SpectralData):
    """Orthogonal projection of a matrix onto the span of A_0..A_d.

    Computed as sum_i <A_i, m>/(v v_i) A_i and cross-checked against the
    idempotent-basis form sum_j <E_j, m>/<E_j, E_j> E_j.
    """
    if spec.idempotents is None:
        raise InputError("spectral data lacks idempotents")
    if spec.exact and isinstance(m, RationalMatrix):
        if m.shape != (s.v, s.v):
            raise InputError(f"matrix shape {m.shape} does not match v={s.v}")
        out = RationalMatrix.zeros(s.v)
        for i, a in enumerate(s.relations):
            out = out + (inner_product(a, m) / Fraction(s.v * s.valencies[i])) * a
        alt = RationalMatrix.zeros(s.v)
        for j, e in enumerate(spec.idempotents):
            alt = alt + (inner_product(e, m) / Fraction(spec.multiplicities[j])) * e
        if out != alt:
            raise InternalConsistencyError(
                "the two routes of the algebra projection disagree")
        return out
    mf = np.array(m.rows, dtype=float) if isinstance(m, RationalMatrix) \
        else np.asarray(m, dtype=float)
    if mf.shape != (s.v, s.v):
        raise InputError(f"matrix shape {mf.shape} does not match v={s.v}")
    mats = [np.array(a.rows, dtype=float) for a in s.relations]
    out = np.zeros_like(mf)
    for i, a in enumerate(mats):
        out += (float((a * mf).sum()) / (s.v * s.valencies[i])) * a
    alt = np.zeros_like(mf)
    for j, e in enumerate(spec.idempotents):
        ef = np.asarray(e, dtype=float)
        alt += (float((ef * mf).sum()) / spec.multiplicities[j]) * ef
    if np.abs(out - alt).max() > _FLOAT_CHECK_TOL * max(1.0, np.abs(mf).max()):
        raise InternalConsistencyError(
            "the two routes of the algebra projection disagree in float mode")
    return out
