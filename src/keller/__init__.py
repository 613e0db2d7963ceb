"""Cube-tiling counterexamples via Keller graphs.

Build the 10- and 12-dimensional facet-free cube tilings, certify them two
independent ways (clique checking and an exact torus cell-cover oracle),
lift them to higher dimensions, and run exact clique searches on Keller
graphs, including the cyclic-invariant restriction.
"""

from .core import (
    Automorphism,
    CubeVector,
    GraphVariant,
    KellerGraphSpec,
    MaterializedGraph,
    VectorSet,
    apply_automorphism,
    digit_gap,
    has_edge,
    materialize,
    plain_degree,
    star_degree,
)
from .construction import (
    BlockConditionReport,
    BlockSystem,
    Label,
    TemplateVector,
    block_swap_automorphism,
    build_counterexample,
    check_block_conditions,
    find_lift_shift,
    lift,
    substitute,
    table1,
    table2,
)
from .verify import (
    CellCoverResult,
    CellCoverStatus,
    FaceHistogram,
    MissingEdgeReport,
    face_statistics,
    facet_free,
    verify_clique,
    verify_tiling_cells,
)
from .search import (
    OrbitVertex,
    SearchBudget,
    SearchOutcome,
    SearchStatus,
    clique_decision,
    cyclic_orbits,
    invariant_clique_search,
    max_clique,
)
from .files import (
    DimacsFile,
    export_dimacs,
    read_vector_set,
    write_vector_set,
)

__version__ = "0.1.0"
