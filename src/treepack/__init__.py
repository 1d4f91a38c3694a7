"""Edge-disjoint spanning tree packings of graph products.

Build cartesian or lexicographic products of two graphs, construct packings
of edge-disjoint spanning trees from factor packings, compute exact packing
numbers with partition certificates, and verify everything structurally.
"""

from .cartesian import cartesian_bound, pack_cartesian
from .catalogue import proposition_value
from .core import (ConstructionError, ContractError, Edge, EdgeSet,
                   ExtractionError, FamilySpec, Graph, InputError,
                   ParameterError, ParseError, SizeError, TreePacking,
                   complete, complete_minus_edge, complete_multipartite, cycle,
                   generate, hypercube, path, read_graph, write_graph)
from .decomp import (LeafSplit, RootedTree, extract_spanning_tree, leaf_split,
                     root_tree)
from .lex import LexPlan, lex_bound, lex_plan, pack_lex
from .oracle import OracleResult, TutteCertificate, max_packing
from .products import ProductGraph, cartesian, lexicographic, write_product
from .verify import Check, VerificationReport, verify_packing

__version__ = "0.1.0"

__all__ = [
    "Check", "ConstructionError", "ContractError", "Edge", "EdgeSet",
    "ExtractionError", "FamilySpec", "Graph", "InputError", "LeafSplit",
    "LexPlan", "OracleResult", "ParameterError", "ParseError", "ProductGraph",
    "RootedTree", "SizeError", "TreePacking", "TutteCertificate",
    "VerificationReport", "cartesian", "cartesian_bound", "complete",
    "complete_minus_edge", "complete_multipartite", "cycle",
    "extract_spanning_tree", "generate", "hypercube", "leaf_split",
    "lex_bound", "lex_plan", "lexicographic", "max_packing", "pack_cartesian",
    "pack_lex", "path", "proposition_value", "read_graph", "root_tree",
    "verify_packing", "write_graph", "write_product",
]
