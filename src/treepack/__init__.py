"""Edge-disjoint spanning tree packings of graph products.

Build cartesian or lexicographic products of two graphs, construct packings
of edge-disjoint spanning trees from factor packings, compute exact packing
numbers with partition certificates, and verify everything structurally.

Importing the package imports none of its modules: each name in ``__all__``
is loaded from its home module on first use (PEP 562).  ``treepack.cartesian``
is the module; the product function is ``treepack.products.cartesian``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cartesian": ("cartesian_bound", "pack_cartesian"),
    "catalogue": ("complete", "complete_minus_edge", "complete_multipartite",
                  "cycle", "hypercube", "path", "proposition_value"),
    "core": ("ConstructionError", "ContractError", "Edge", "Graph",
             "InputError", "ParameterError", "ParseError", "SizeError",
             "TreePacking", "read_graph", "write_graph"),
    "lex": ("LexPlan", "lex_plan", "pack_lex"),
    "oracle": ("OracleResult", "TutteCertificate", "max_packing"),
    "products": ("ProductGraph", "lexicographic", "write_product"),
    "verify": ("Check", "VerificationReport", "verify_packing"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
