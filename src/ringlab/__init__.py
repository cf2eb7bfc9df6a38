"""ringlab: exact combinatorial commutative algebra at desk scale.

Edge ideals and whiskered graphs, fiber product presentations, truncated
local algebras, Stanley-Reisner invariants, and minimal free resolutions,
all over the rationals or a prime field with exact arithmetic throughout.
"""

from .fields import GF2, QQ, FieldSpec
from .graphs import (
    Graph,
    complement,
    enumerate_graphs,
    is_star_vertex,
    maximal_cliques,
    star_vertices,
    whisker_all,
    whisker_except,
)
from .linalg import Matrix
from .monomials import (
    MonomialIdeal,
    Presentation,
    add_squares,
    contains,
    edge_ideal,
    fiber_product_presentation,
    polarize,
    presentation_of,
    substitute,
    variable_partition_decomposable,
)
from .sr_invariants import (
    depth,
    f_vector,
    hilbert_series,
    is_cohen_macaulay,
    krull_dim,
    multiplicity,
)
from .artin import (
    LinearForm,
    LocalAlgebra,
    canonical_module,
    hilbert_function,
    ideal_direct_sum_check,
    is_gorenstein_artinian,
    pair_decomposition_search,
    socle,
    truncate,
)
from .modules import (
    FPModule,
    Resolution,
    bass_truncation,
    biduality_is_iso,
    cyclic_module,
    dual_module,
    ext,
    free_module,
    is_semidualizing_up_to,
    is_totally_reflexive_up_to,
    minimal_resolution,
    poincare_truncation,
    residue_field,
    tor,
)

__version__ = "0.1.0"
