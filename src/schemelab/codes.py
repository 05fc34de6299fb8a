"""Completely regular codes: direct testing and bounded brute-force search.

A vertex subset C is reported completely regular for relation i when the
distance partition of C in the graph (V, R_i) is equitable for the scheme,
that is for every A_j, not for A_i alone. This is the graph notion (the
partition is equitable for A_i; BCN 11.1) exactly when A_i generates the
Bose-Mesner algebra, i.e. when column i of P has d+1 distinct entries, as
for relation 1 of every distance scheme. Otherwise it is stricter: in
J(7,3) every vertex is completely regular in the graph (V, R_2), yet no
singleton is reported, since its cell of 16 mixes R_1 and R_3.

The search enumerates subsets in lexicographic order and always classifies
each candidate by the direct test; feasibility data can be attached for
reporting but never replaces it.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from .errors import InputError
from .feasibility import FeasibilityReport, feasibility_report
from .partition import EquitabilityResult, Partition, distance_partition, is_equitable
from .scheme import AssociationScheme
from .spectra import SpectralData

DEFAULT_BUDGET = 10 ** 6


@dataclass(frozen=True)
class CodeRecord:
    """Classification of one candidate code."""

    vertices: tuple[int, ...]
    relation: int
    covering_radius: int
    partition: Partition
    equitability: EquitabilityResult
    completely_regular: bool
    feasibility: FeasibilityReport | None = None


def is_completely_regular(s: AssociationScheme, i: int, code,
                          spec: SpectralData | None = None,
                          include_feasibility: bool = False) -> CodeRecord:
    """Test one code: its distance partition in (V, R_i), equitable for
    every A_j (the scheme-level notion of the module docstring)."""
    part, rho = distance_partition(s, i, code)
    eq = is_equitable(s, part)
    feas = None
    if include_feasibility:
        if spec is None:
            raise InputError("feasibility data requires spectral data")
        feas = feasibility_report(s, spec, part)
    return CodeRecord(vertices=tuple(sorted(
        s.vertex(x) if not isinstance(x, int) else x for x in code)),
        relation=i, covering_radius=rho, partition=part,
        equitability=eq, completely_regular=eq.equitable, feasibility=feas)


@dataclass(frozen=True)
class SearchResult:
    records: tuple[CodeRecord, ...]
    tested: int
    skipped_duplicates: int
    exhaustive: bool


def _pair_signature(s: AssociationScheme, code: tuple[int, ...]) -> tuple[int, ...]:
    rel = s.relation_of
    return tuple(sorted(rel[a][b] for a, b in itertools.combinations(code, 2)))


def search_completely_regular(s: AssociationScheme, i: int,
                              sizes: tuple[int, int],
                              budget: int = DEFAULT_BUDGET,
                              dedup_by_signature: bool = False,
                              spec: SpectralData | None = None,
                              include_feasibility: bool = False,
                              workers: int = 1) -> SearchResult:
    """Classify all vertex subsets with sizes in [lo, hi], up to a budget.

    A code is completely regular for relation i in the scheme-level sense of
    the module docstring: its distance partition in (V, R_i) is equitable
    for every A_j.

    Candidates are enumerated in lexicographic order (smaller sizes first)
    and every record comes from the direct distance-partition test. With
    ``dedup_by_signature`` only the first subset per inner-relation
    multiset signature is tested; this is unsound, since one signature
    class can hold both completely regular and other codes (on Petersen,
    size 4, it reports 1 of the 20). ``budget`` caps how many candidates are
    tested; when it is hit the result is marked non-exhaustive. Each
    candidate is classified as it is enumerated. ``workers`` is deprecated
    and has no effect (the work is pure Python, which threads cannot
    overlap); any value other than 1 raises a DeprecationWarning.
    """
    if workers != 1:
        warnings.warn("search_completely_regular: workers is deprecated and "
                      "has no effect", DeprecationWarning, stacklevel=2)
    lo, hi = sizes
    if not (1 <= lo <= hi <= s.v):
        raise InputError(f"size range {lo}..{hi} must sit inside 1..{s.v}")
    if budget < 0:
        raise InputError("budget must be non-negative")

    records: list[CodeRecord] = []
    seen_signatures: set[tuple[int, ...]] = set()
    skipped = 0
    exhausted_budget = False
    for size in range(lo, hi + 1):
        for code in itertools.combinations(range(s.v), size):
            if dedup_by_signature:
                sig = (size,) + _pair_signature(s, code)
                if sig in seen_signatures:
                    skipped += 1
                    continue
                seen_signatures.add(sig)
            if len(records) >= budget:
                exhausted_budget = True
                break
            records.append(is_completely_regular(
                s, i, code, spec=spec, include_feasibility=include_feasibility))
        if exhausted_budget:
            break
    return SearchResult(records=tuple(records), tested=len(records),
                        skipped_duplicates=skipped,
                        exhaustive=not exhausted_budget)
