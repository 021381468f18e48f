"""Sofic shifts, sliding block codes, and openness certificates.

The package decides pointwise-checkable properties of factor maps
between sofic shifts (semi-openness, openness, continuing extensions,
degree) and cross-checks the verdicts against a battery of theorem
certificates. Verdicts are exact but for two float entropy comparisons:
maximal components and the finite-to-one entropy audit (see README).
"""

from .automata import Budget
from .codes import (
    DegreeResult,
    FiberProduct,
    SlidingBlockCode,
    arrow_graph,
    code_equal,
    compose,
    count_preimages_of_periodic,
    cover_code,
    degree,
    fiber_product,
    identity_code,
    image_presentation,
    is_bi_closing,
    is_cover_map,
    is_finite_to_one,
    is_left_closing,
    is_right_closing,
    is_surjective_onto,
    lift_code,
)
from .decision import Certificate, Decision, audit, inconclusive, proved, refuted
from .errors import (
    BudgetExceeded,
    ConsistencyFault,
    DomainMismatch,
    GenerationExhausted,
    InvariantViolation,
    NotFiniteToOne,
    ParseError,
    ShiftLabError,
)
from .graph import Edge, LabeledGraph, find_magic_word
from .openness import (
    RetractDecision,
    check_open,
    check_right_continuing_retract,
    check_semi_open,
    interior_nonempty,
    witness_from_magic,
)
from .pointed import (
    CenteredWord,
    contains_cylinder,
    contains_periodic_point,
    cylinder_escape,
    cylinder_image,
    window_language,
)
from .properties import TrialConfig, gen_labeled_graph, proptest, replay
from .shifts import (
    SoficShift,
    edge_shift,
    entropy,
    fischer_cover,
    full_shift,
    is_irreducible_shift,
    is_sft,
    shift_equal,
)
from .theorems import (
    certificates,
    check_nonwandering_maximal,
)

__version__ = "0.1.0"
