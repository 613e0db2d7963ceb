"""Cube-tiling counterexamples via Keller graphs.

Build the 10- and 12-dimensional facet-free cube tilings, certify them two
independent ways (clique checking and an exact torus cell-cover oracle),
lift them to higher dimensions, and run exact clique searches on Keller
graphs, including the cyclic-invariant restriction.

The names below resolve on first use (PEP 562): ``import keller`` loads no
submodule, and ``keller.X`` imports only the module that defines X.
"""

import importlib

# Each exported name, by the submodule that defines it.
_EXPORTS = {
    "core": (
        "Automorphism",
        "CubeVector",
        "GraphVariant",
        "KellerGraphSpec",
        "MaterializedGraph",
        "VectorSet",
        "digit_gap",
        "has_edge",
        "materialize",
        "plain_degree",
        "star_degree",
    ),
    "construction": (
        "BlockConditionReport",
        "BlockSystem",
        "Label",
        "TemplateVector",
        "block_swap_automorphism",
        "build_counterexample",
        "check_block_conditions",
        "find_lift_shift",
        "lift",
        "substitute",
        "table1",
        "table2",
    ),
    "verify": (
        "CellCoverResult",
        "CellCoverStatus",
        "FaceHistogram",
        "MissingEdgeReport",
        "face_statistics",
        "facet_free",
        "verify_clique",
        "verify_tiling_cells",
    ),
    "search": (
        "OrbitVertex",
        "SearchBudget",
        "SearchOutcome",
        "SearchStatus",
        "clique_decision",
        "cyclic_orbits",
        "invariant_clique_search",
        "max_clique",
    ),
    "files": (
        "DimacsFile",
        "export_dimacs",
        "read_vector_set",
        "write_vector_set",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
