"""Edge-disjoint spanning tree packings of graph products.

Build cartesian or lexicographic products of two graphs, construct packings
of edge-disjoint spanning trees from factor packings, compute exact packing
numbers with partition certificates, and verify everything structurally.
"""

from .cartesian import (CrossEdgePlan, PlanEntry, build_hat_tree,
                        cartesian_bound, default_assignment, pack_cartesian,
                        plan_cross_edges)
from .catalogue import (proposition_graph, proposition_value,
                        verify_proposition_row)
from .core import (ConstructionError, ContractError, Edge, EdgeSet,
                   ExtractionError, FamilySpec, Graph, InputError,
                   ParameterError, ParseError, SizeError, TreePacking,
                   UnsupportedOperationError, complete, complete_minus_edge,
                   complete_multipartite, cycle, generate, hypercube, path,
                   read_graph, write_graph)
from .decomp import (LeafSplit, MatchingDecomposition, RootedTree,
                     extract_spanning_tree, leaf_split, matching_decomposition,
                     parallel_subgraph_lex, root_tree)
from .lex import LexPlan, lex_bound, lex_plan, pack_lex
from .oracle import (OracleResult, TutteCertificate, edge_bound, max_packing,
                     tutte_bruteforce)
from .products import (Bundle, ProductGraph, cartesian, lexicographic,
                       read_product, write_product)
from .verify import Check, VerificationReport, verify_packing, verify_tree

__version__ = "0.1.0"

__all__ = [
    "Bundle", "Check", "ConstructionError", "ContractError", "CrossEdgePlan",
    "Edge", "EdgeSet", "ExtractionError", "FamilySpec", "Graph", "InputError",
    "LeafSplit", "LexPlan", "MatchingDecomposition", "OracleResult",
    "ParameterError", "ParseError", "PlanEntry", "ProductGraph", "RootedTree",
    "SizeError", "TreePacking", "TutteCertificate",
    "UnsupportedOperationError", "VerificationReport", "build_hat_tree",
    "cartesian", "cartesian_bound", "complete", "complete_minus_edge",
    "complete_multipartite", "cycle", "default_assignment", "edge_bound",
    "extract_spanning_tree", "generate", "hypercube", "leaf_split",
    "lex_bound", "lex_plan", "lexicographic", "matching_decomposition",
    "max_packing", "pack_cartesian", "pack_lex", "parallel_subgraph_lex",
    "path", "plan_cross_edges", "proposition_graph", "proposition_value",
    "read_graph", "read_product", "root_tree", "tutte_bruteforce",
    "verify_packing", "verify_proposition_row", "verify_tree", "write_graph",
    "write_product",
]
