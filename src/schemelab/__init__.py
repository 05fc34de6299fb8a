"""schemelab: exact spectral analysis of symmetric association schemes.

Builds schemes from distance-regular graphs or raw relation matrices,
decomposes their Bose-Mesner algebra into primitive idempotents and
eigenmatrices P/Q, tests vertex partitions for equitability, evaluates the
classical feasibility conditions (Lloyd divisibility, projection
integrality, the Higman automorphism test, the equitable-partition
multiplicity identity), and searches for completely regular codes.
"""

from .codes import (CodeRecord, SearchResult, is_completely_regular,
                    search_completely_regular)
from .errors import (InputError, InternalConsistencyError,
                     IrrationalSpectrumError, NotAutomorphismError,
                     NotDistanceRegularError, NotEquitableError)
from .feasibility import (FeasibilityReport, GodsilResult, HigmanResult,
                          LloydResult, MultiplicityCheck, feasibility_report,
                          fixed_relation_counts, godsil_condition,
                          higman_condition, is_scheme_automorphism,
                          lloyd_check, subduced_multiplicities, trace_profile,
                          verify_equitable_multiplicities)
from .floatlin import symmetric_eigen
from .partition import (EquitabilityResult, EquitabilityWitness, Partition,
                        commutes_with_scheme, distance_partition,
                        is_equitable, make_partition, one_cell_partition,
                        partition_projector, singleton_partition)
from .poly import Polynomial, char_poly, integer_roots, poly_divides
from .ratmat import (RationalMatrix, column_space_projector, inner_product,
                     inverse, nullspace, rank, rref)
from .scheme import (AssociationScheme, AxiomReport, LabeledGraph,
                     cycle_graph, from_distance_regular_graph, hamming_graph,
                     intersection_numbers, johnson_graph, named_scheme,
                     petersen_graph, verify_axioms)
from .spectra import (SpectralData, common_eigenspaces, eigenmatrices,
                      idempotents, project_onto_algebra,
                      rational_spectrum_roots, spectral_data)

__version__ = "0.1.0"

__all__ = [
    "AssociationScheme", "AxiomReport", "CodeRecord", "EquitabilityResult",
    "EquitabilityWitness", "FeasibilityReport", "GodsilResult",
    "HigmanResult", "InputError", "InternalConsistencyError",
    "IrrationalSpectrumError", "LabeledGraph", "LloydResult",
    "MultiplicityCheck", "NotAutomorphismError", "NotDistanceRegularError",
    "NotEquitableError", "Partition", "Polynomial", "RationalMatrix",
    "SearchResult", "SpectralData", "char_poly", "column_space_projector",
    "common_eigenspaces", "commutes_with_scheme", "cycle_graph",
    "distance_partition", "eigenmatrices", "feasibility_report",
    "fixed_relation_counts", "from_distance_regular_graph",
    "godsil_condition", "hamming_graph", "higman_condition", "idempotents",
    "inner_product", "integer_roots", "intersection_numbers", "inverse",
    "is_completely_regular", "is_equitable", "is_scheme_automorphism",
    "johnson_graph", "lloyd_check", "make_partition", "named_scheme",
    "nullspace", "one_cell_partition", "partition_projector",
    "petersen_graph", "poly_divides", "project_onto_algebra", "rank",
    "rational_spectrum_roots", "rref", "search_completely_regular",
    "singleton_partition", "spectral_data", "subduced_multiplicities",
    "symmetric_eigen", "trace_profile", "verify_axioms",
    "verify_equitable_multiplicities",
]
