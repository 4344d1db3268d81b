"""Enumeration laboratory for orbit profiles of homogeneous-like structures.

The package counts isomorphism classes of n-point induced substructures
across a catalogue of ordered structures, analyses the growth of those
counts, builds explicit exponential witness families, linearizes posets
of bounded width, and reassembles hidden linear or circular orders from
overlapping fragments.
"""

from .catalogue import (
    CatalogueEntry,
    age_predictor,
    default_sweep_ids,
    get_entry,
    list_entry_ids,
    sample_model,
)
from .errors import (
    DomainError,
    FragmentPairError,
    InconsistentFragmentsError,
    InternalInvariantError,
    InvalidSubsetError,
    OligoError,
    ParameterError,
    ResourceError,
)
from .glueing import (
    GlueComponent,
    OrderFragment,
    OverlapCase,
    classify_overlap,
    emit_invariant_relation,
    glue,
)
from .growth import (
    GrowthReport,
    compositions_count,
    constants_table,
    growth_estimate,
    local_order_count,
    lower_bound_check,
    tree_count,
)
from .posets import (
    FinitePoset,
    LinearizationResult,
    antichain_width,
    exhaustive_posets,
    linearize,
    random_poset,
    triangle_step,
)
from .profiles import (
    ProfileSequence,
    profile,
)
from .structures import (
    FiniteStructure,
    Signature,
    canonical_form,
    induced_substructure,
    signature,
    structure_encoding,
)
from .witnesses import (
    CollisionReport,
    WitnessFamily,
    antichain_witness,
    binary_pattern_witness,
    composition_witness,
    verify_pairwise_nonisomorphic,
)

__all__ = [
    "CatalogueEntry",
    "CollisionReport",
    "DomainError",
    "FinitePoset",
    "FiniteStructure",
    "FragmentPairError",
    "GlueComponent",
    "GrowthReport",
    "InconsistentFragmentsError",
    "InternalInvariantError",
    "InvalidSubsetError",
    "LinearizationResult",
    "OligoError",
    "OrderFragment",
    "OverlapCase",
    "ParameterError",
    "ProfileSequence",
    "ResourceError",
    "Signature",
    "WitnessFamily",
    "age_predictor",
    "antichain_width",
    "antichain_witness",
    "binary_pattern_witness",
    "canonical_form",
    "classify_overlap",
    "composition_witness",
    "compositions_count",
    "constants_table",
    "default_sweep_ids",
    "emit_invariant_relation",
    "exhaustive_posets",
    "get_entry",
    "glue",
    "growth_estimate",
    "induced_substructure",
    "linearize",
    "list_entry_ids",
    "local_order_count",
    "lower_bound_check",
    "profile",
    "random_poset",
    "sample_model",
    "signature",
    "structure_encoding",
    "tree_count",
    "triangle_step",
    "verify_pairwise_nonisomorphic",
]
