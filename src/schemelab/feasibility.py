"""Feasibility conditions for partitions and automorphisms of a scheme.

All built on the same machinery:

* the trace profile <F, A_i> of a partition projector, which for an
  equitable partition equals the quotient-matrix traces;
* Godsil's projection condition: each <F, E_j>, computed from the trace
  profile, must be a non-negative integer;
* the multiplicity identity for equitable partitions: <F, E_j> equals the
  dimension of W_j H, verified by an independent rank computation on the
  t x t matrix H^T E_j H, together with the matching quotient-spectrum
  statement;
* Lloyd's theorem: the characteristic polynomial of each quotient matrix
  divides that of the corresponding relation matrix, the latter read off
  the intersection numbers;
* Higman's test for automorphisms: each <P_sigma, E_j>, computed from the
  fixed-relation counts, must be an algebraic integer.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (InputError, InternalConsistencyError,
                     NotAutomorphismError, NotEquitableError)
from .floatlin import float_rank
from .partition import (EquitabilityResult, Partition, _pair_counts,
                        is_equitable)
from .poly import Polynomial, char_poly, poly_divides, poly_from_power_sums
from .ratmat import RationalMatrix, rank
from .scheme import AssociationScheme
from .spectra import SpectralData

DEFAULT_INT_TOL = 1e-6


def trace_profile(s: AssociationScheme, part: Partition) -> tuple[Fraction, ...]:
    """<F, A_i> for i = 0..d, where F is the partition projector.

    Computed directly from cell blocks: sum over cells of (pairs of the cell
    in relation i) / (cell size). Exact for any partition, equitable or not;
    entry 0 is always the number of cells.
    """
    if part.labels != s.labels:
        raise InputError("partition is over a different vertex set")
    rel = s.relation_of
    out = []
    for i in range(s.d + 1):
        total = Fraction(0)
        for cell in part.cells:
            hits = sum(1 for x in cell for y in cell if rel[x][y] == i)
            total += Fraction(hits, len(cell))
        out.append(total)
    return tuple(out)


@dataclass(frozen=True)
class GodsilResult:
    """Values <F, E_j> with their non-negative-integrality verdicts."""

    values: tuple
    verdicts: tuple[bool, ...]
    all_pass: bool
    mode: str
    int_tol: float | None


def _integrality(value, mode: str, tol: float, require_nonneg: bool) -> bool:
    if mode == "exact":
        ok = value.denominator == 1
        return ok and (value >= 0 if require_nonneg else True)
    nearest = round(float(value))
    ok = abs(float(value) - nearest) < tol
    return ok and (nearest >= 0 if require_nonneg else True)


def _projection_values(s: AssociationScheme, spec: SpectralData, profile):
    """<F, E_j> from the trace profile via the eigenmatrix formula."""
    d, v = s.d, s.v
    if spec.exact:
        return tuple(
            Fraction(spec.multiplicities[j], v)
            * sum(spec.p_matrix[j][i] * profile[i] / s.valencies[i]
                  for i in range(d + 1))
            for j in range(d + 1))
    return tuple(
        spec.multiplicities[j] / v
        * sum(float(spec.p_matrix[j][i]) * float(profile[i]) / s.valencies[i]
              for i in range(d + 1))
        for j in range(d + 1))


def godsil_condition(s: AssociationScheme, spec: SpectralData, part: Partition,
                     int_tol: float = DEFAULT_INT_TOL) -> GodsilResult:
    """Projection-integrality condition on a partition projector.

    Needs no equitability: the values depend only on the projector. Each
    value, from ``trace_profile``'s count through the eigenmatrix formula,
    is cross-checked before the verdicts (non-negative integer?) are issued
    against tr(F E_j) = sum_i c_ji sum_C n_i(C, C)/|C|, where c_ji is the
    entry of E_j on R_i and the within-cell counts n_i(C, C) are the
    diagonal of ``_pair_counts``: two independent counts of the trace
    profile. Both sides use P, so the check does not test P itself.
    """
    if spec.p_matrix is None or spec.coefficients is None:
        raise InputError("spectral data is incomplete; run spectral_data()")
    profile = trace_profile(s, part)
    values = _projection_values(s, spec, profile)
    cell = np.array(part.cell_of)
    # <F, A_i> once more, from the within-cell pair counts
    recount = [sum(map(Fraction, np.diagonal(n_i).tolist(), part.cell_sizes))
               for n_i in _pair_counts(s, cell, cell)]
    for j, c in enumerate(spec.coefficients):
        if spec.exact:
            agree = sum(c_i * w for c_i, w in zip(c, recount)) == values[j]
        else:
            direct = sum(float(c_i) * float(w) for c_i, w in zip(c, recount))
            agree = abs(direct - values[j]) <= max(int_tol, 1e-8)
        if not agree:
            raise InternalConsistencyError(
                "formula and direct <F, E_j> computations disagree")
    verdicts = tuple(_integrality(x, spec.mode, int_tol, require_nonneg=True)
                     for x in values)
    return GodsilResult(values=values, verdicts=verdicts,
                        all_pass=all(verdicts), mode=spec.mode,
                        int_tol=None if spec.exact else int_tol)


def subduced_multiplicities(s: AssociationScheme, spec: SpectralData,
                            part: Partition) -> tuple[int, ...]:
    """dim(W_j H) for each eigenspace, as rank(H^T E_j H).

    H^T E_j H = (1/v) sum_i Q_ij C_i with C_i = H^T A_i H, a t x t matrix of
    cell pair counts (one bincount per relation over the cells of its
    pairs), and Q_ij / v = m_j P_ji / (v k_i) is ``spec.coefficients[j][i]``;
    no matrix with v rows is formed. In float mode the rank is taken of
    D^{-1/2} H^T E_j H D^{-1/2}, D = H^T H, which is E_j compressed to
    orthonormal cell vectors, so its eigenvalues lie in [0, 1]: those at
    most 1e-8 count as zero.

    The images W_j H together span the whole t-dimensional cell space, so
    the dimensions sum to at least t; equality holds when the partition is
    equitable (the images then sit inside distinct quotient eigenspaces)
    but can fail otherwise.
    """
    cell = np.array(part.cell_of)
    counts = [c.tolist() for c in _pair_counts(s, cell, cell)]
    r = range(s.d + 1)
    scale = 1.0 / np.sqrt(np.array(part.cell_sizes, dtype=float))
    out = []
    for coef in spec.coefficients:
        if spec.exact:
            out.append(rank(RationalMatrix(
                [[sum(coef[i] * counts[i][a][b] for i in r)
                  for b in range(part.t)] for a in range(part.t)])))
        else:
            block = sum(c * np.array(n, dtype=float) for c, n in zip(coef, counts))
            out.append(float_rank(scale[:, None] * block * scale, 1e-8))
    out = tuple(out)
    if sum(out) < part.t:
        raise InternalConsistencyError(
            f"subduced dimensions sum to {sum(out)}, below t={part.t}")
    return out


@dataclass(frozen=True)
class MultiplicityCheck:
    """Both sides of the equitable-partition multiplicity identity."""

    ok: bool
    projection_values: tuple
    subduced: tuple[int, ...]
    quotient_spectra_ok: bool


def verify_equitable_multiplicities(s: AssociationScheme, spec: SpectralData,
                                    part: Partition,
                                    eq: EquitabilityResult | None = None
                                    ) -> MultiplicityCheck:
    """For an equitable partition, check <F, E_j> = dim(W_j H) per j.

    The two sides come from independent routes (eigenmatrix formula on the
    trace profile vs exact rank computation). Also checks that the spectrum
    of every quotient N_i is exactly {P_ji with multiplicity m_j}. Raises
    NotEquitableError when the hypothesis fails.
    """
    eq = eq if eq is not None else is_equitable(s, part)
    if not eq.equitable:
        raise NotEquitableError(
            "the multiplicity identity applies to equitable partitions only")
    godsil = godsil_condition(s, spec, part)
    m = subduced_multiplicities(s, spec, part)
    if spec.exact:
        sides_match = all(godsil.values[j] == m[j] for j in range(s.d + 1))
    else:
        sides_match = all(abs(float(godsil.values[j]) - m[j]) < 1e-6
                          for j in range(s.d + 1))
    spectra_ok = True
    for i in range(s.d + 1):
        if spec.exact:
            expected = Polynomial([1])
            for j in range(s.d + 1):
                expected = expected * Polynomial.from_roots(
                    [spec.p_matrix[j][i]] * m[j])
            if char_poly(eq.quotients[i]) != expected:
                spectra_ok = False
        else:
            actual = np.sort(np.linalg.eigvals(
                np.array(eq.quotients[i].rows, dtype=float)).real)
            expected = np.sort(np.concatenate(
                [[float(spec.p_matrix[j][i])] * m[j] for j in range(s.d + 1)]))
            if np.abs(actual - expected).max() > 1e-6:
                spectra_ok = False
    return MultiplicityCheck(ok=sides_match and spectra_ok,
                             projection_values=godsil.values,
                             subduced=m, quotient_spectra_ok=spectra_ok)


@dataclass(frozen=True)
class LloydResult:
    """Per-relation divisibility of quotient vs relation characteristic polynomials."""

    divides: tuple[bool, ...]
    all_pass: bool


def _relation_char_poly(s: AssociationScheme, i: int) -> Polynomial:
    """char(A_i) from the power sums tr(A_i^k) = v (L_i^k)_00, k = 1..v.

    (L_i)_kj = p^k_ij is multiplication by A_i on the basis A_0..A_d, and
    only A_0 has a non-zero trace, so the traces come from the intersection
    numbers alone, in exact integer arithmetic.
    """
    r = range(s.d + 1)
    x = [1] + [0] * s.d  # coordinates of A_i^k, starting at A_0
    sums = []
    for _ in range(s.v):
        x = [sum(s.intersection[i][j][k] * x[j] for j in r) for k in r]
        sums.append(s.v * x[0])
    return poly_from_power_sums(sums)


def lloyd_check(s: AssociationScheme, part: Partition,
                eq: EquitabilityResult | None = None) -> LloydResult:
    """Lloyd divisibility: char(N_i) | char(A_i) for every relation.

    Only defined for equitable partitions, where the quotients exist.
    char(A_i) comes from the intersection numbers, not from A_i or P.
    """
    eq = eq if eq is not None else is_equitable(s, part)
    if not eq.equitable:
        raise NotEquitableError("Lloyd check needs an equitable partition")
    verdicts = tuple(
        poly_divides(char_poly(eq.quotients[i]), _relation_char_poly(s, i))
        for i in range(s.d + 1))
    return LloydResult(divides=verdicts, all_pass=all(verdicts))


# -- automorphisms ----------------------------------------------------------

def resolve_permutation(s: AssociationScheme, images) -> tuple[int, ...]:
    """Normalize a permutation given as label map or image sequence."""
    if isinstance(images, dict):
        seq = [None] * s.v
        for src, dst in images.items():
            seq[s.vertex(str(src))] = s.vertex(str(dst))
        if any(x is None for x in seq):
            raise InputError("permutation does not map every vertex")
        images = seq
    out = []
    for x in images:
        out.append(x if isinstance(x, int) else s.vertex(str(x)))
    if sorted(out) != list(range(s.v)):
        raise InputError("not a bijection on the vertex set")
    return tuple(out)


def fixed_relation_counts(s: AssociationScheme, images: tuple[int, ...]
                          ) -> tuple[int, ...]:
    """alpha_i = #{x : (x, sigma(x)) in R_i}; equals <A_i, P_sigma>."""
    rel = s.relation_of
    counts = [0] * (s.d + 1)
    for x, y in enumerate(images):
        counts[rel[x][y]] += 1
    return tuple(counts)


def is_scheme_automorphism(s: AssociationScheme, images: tuple[int, ...]) -> bool:
    """True iff the permutation matrix commutes with every relation matrix.

    Tested on the relation table: sigma is an automorphism exactly when
    (sigma x, sigma y) is in the same relation as (x, y) for all x, y.
    """
    rel = s.relation_of
    return all(tuple(rel[sx][sy] for sy in images) == rel[x]
               for x, sx in enumerate(images))


@dataclass(frozen=True)
class HigmanResult:
    """Fixed-relation counts, <P_sigma, E_j> values, and integrality verdicts.

    ``conclusive`` is False in float mode, where the algebraic-integer test
    degrades to a nearest-integer test under the stated caveat.
    """

    alpha: tuple[int, ...]
    values: tuple
    verdicts: tuple[bool, ...]
    all_pass: bool
    automorphism_checked: bool
    conclusive: bool
    caveat: str | None
    mode: str
    int_tol: float | None


def higman_condition(s: AssociationScheme, spec: SpectralData, images,
                     check_automorphism: bool = True,
                     int_tol: float = DEFAULT_INT_TOL) -> HigmanResult:
    """Higman's algebraic-integrality test for a (putative) automorphism.

    With a rational spectrum every <P_sigma, E_j> is rational, so being an
    algebraic integer is an exact integer test (negative values allowed).
    When ``check_automorphism`` is set, a permutation that fails to commute
    with some relation matrix raises NotAutomorphismError and the condition
    is not evaluated.
    """
    if spec.p_matrix is None:
        raise InputError("spectral data is incomplete; run spectral_data()")
    images = resolve_permutation(s, images)
    if check_automorphism and not is_scheme_automorphism(s, images):
        raise NotAutomorphismError(
            "permutation does not commute with the relation matrices")
    alpha = fixed_relation_counts(s, images)
    values = _projection_values(s, spec, alpha)
    verdicts = tuple(_integrality(x, spec.mode, int_tol, require_nonneg=False)
                     for x in values)
    caveat = None if spec.exact else (
        "float mode: algebraic-integer test replaced by a nearest-integer "
        "test; a rational spectrum is assumed")
    return HigmanResult(alpha=alpha, values=values, verdicts=verdicts,
                        all_pass=all(verdicts),
                        automorphism_checked=check_automorphism,
                        conclusive=spec.exact, caveat=caveat, mode=spec.mode,
                        int_tol=None if spec.exact else int_tol)


@dataclass(frozen=True)
class FeasibilityReport:
    """Aggregated feasibility data for one partition."""

    trace_profile: tuple
    godsil: GodsilResult
    subduced: tuple[int, ...] | None
    lloyd: LloydResult | None
    equitable: bool
    mode: str


def feasibility_report(s: AssociationScheme, spec: SpectralData,
                       part: Partition, include_subduced: bool = True,
                       int_tol: float = DEFAULT_INT_TOL) -> FeasibilityReport:
    """Trace profile, projection values, and (when equitable) Lloyd verdicts."""
    eq = is_equitable(s, part)
    godsil = godsil_condition(s, spec, part, int_tol=int_tol)
    subduced = (subduced_multiplicities(s, spec, part)
                if include_subduced else None)
    lloyd = lloyd_check(s, part, eq) if eq.equitable else None
    return FeasibilityReport(trace_profile=trace_profile(s, part),
                             godsil=godsil, subduced=subduced, lloyd=lloyd,
                             equitable=eq.equitable, mode=spec.mode)
