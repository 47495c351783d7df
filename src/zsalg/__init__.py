"""Verification toolkit for self-similar groupoid actions on higher-rank
graphs: product categories, alignment and concordance checking, twisted
cocycle homotopies, an exact normal-form algebra model, and truncated matrix
representations that cross-validate it."""

from .categories import (
    SmallCategory,
    TableCategory,
    check_left_cancellative,
    equivalent,
    invertibles,
    principal_ideal,
    validate_category,
)
from .kgraph import (
    Edge,
    KGraph,
    KGraphPresentation,
    Path,
    skeleton_split,
    structural_predicates,
    sub_kgraph,
    validate_kgraph,
)
from .groupoid import (
    FiniteGroupoid,
    GroupoidPresentation,
    check_transversal,
    validate_groupoid,
)
from .selfsim import (
    ActionTable,
    FreeMonoidCategory,
    MatchedPair,
    ZSCategory,
    ZSMorphism,
    check_jointly_faithful,
    check_action,
    check_self_similar,
    restrict_pair,
    verify_matched_pair,
)
from .alignment import (
    Subcategory,
    builtin_counterexample,
    check_concordant,
    check_exhaustive,
    check_exhaustive_lifting,
    equivalent_sets,
    independent,
    meet_ideal,
    minimal_exhaustive_sets,
    path_inclusion,
    zs_inclusion,
)
from .cocycle import (
    Cocycle,
    CocycleFamily,
    ConstantHomotopy,
    GridFunction,
    LinearHomotopy,
    PhaseSum,
    RotationForm,
    TableForm,
    linear_homotopy,
    rotation_cocycle,
    trivial_cocycle,
    verify_cocycle,
    verify_homotopy,
)
from .normalform import (
    AlgebraModel,
    Element,
    ModuleVector,
    corner_decomposition,
    correspondence_pair,
    random_element,
)
from .matrixrep import (
    TruncatedRep,
    build_grid_reps,
    check_homotopy_relations,
    check_product_agreement,
    check_relations,
    represent_element,
)
from .report import Report

__version__ = "0.1.0"
