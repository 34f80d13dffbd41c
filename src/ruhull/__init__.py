"""Exact rationalizability testing for stochastic choice data.

Decides whether observed choice probabilities over a finite universe can be
generated by mixing deterministic choice types (a random utility model):
either an explicit mixing distribution is produced, or a verifiable trial
sequence witnessing the violation. Includes power-set lifting for set-valued
choice and desk-scale facet enumeration of the rationalizable polytope.
"""

from .certificate import (
    CheckOutcome,
    ViolationCertificate,
    decide,
    decompose_to_trials,
    integerize,
    make_certificate,
    positivize,
)
from .enumeration import (
    OrderTypes,
    check_weak_order_cap,
    correspondence_types_from_linear_orders,
    correspondence_types_from_weak_orders,
    ordered_bell,
    types_from_explicit,
    types_from_linear_orders,
)
from .errors import (
    CapExceeded,
    InstanceParseError,
    LayoutMismatch,
    RuhullError,
    ValidationError,
)
from .facets import (
    AffineEquation,
    FacetInequality,
    HRepresentation,
    enumerate_facets,
    essential_sequences,
    facet_membership_oracle,
)
from .lifting import (
    LiftedLayout,
    RestrictedArsp,
    check_restricted_arsp,
    lift_layout,
    lift_set_valued_data,
    restricted_trials,
    singleton_choice_data,
    singleton_types,
)
from .fileio import (
    Instance,
    ResultReport,
    lifted_instance_tree,
    lifted_view,
    load_instance,
    parse_instance,
    parse_rational,
    run_check,
    run_verify,
)
from .membership import (
    MixingDistribution,
    SeparatingVector,
    test_membership,
)
from .model import (
    ArspResult,
    ChoiceProblem,
    ChoiceTypeVector,
    ChoiceUniverse,
    IndexLayout,
    RationalTypeSet,
    StochasticChoiceVector,
    Trial,
    TrialSequence,
    arsp_check,
    build_layout,
    inner,
    make_trial,
    make_trial_sequence,
    make_type_set,
    make_type_vector,
    max_over_types,
    problem_from_labels,
    trial_for_members,
    type_bits,
    validate_pi,
)

__version__ = "0.1.0"
