"""Exact-arithmetic gap removal for bounded subsets of the line.

Two removal regimes: the classical one (every half-open gap fused by
two-piece affine maps) and the unit-threshold-preserving one backing
continuous Scott-Suppes representations of finite semiorders.
"""

from .rationals import Rational, format_rational, parse_rational
from .pointset import (
    Component,
    EmptySet,
    Gap,
    GapKind,
    InvariantBroken,
    MalformedComponent,
    NotBad,
    PointSet,
    bad_gap_mass,
    bad_gaps,
    gaps,
    normalize,
)
from .plmap import (
    AffinePiece,
    DomainMismatch,
    OutOfDomain,
    PLMap,
    compose,
    image,
)
from .debreu import (
    DegenerateDistance,
    MassExceedsOne,
    NoSuchGap,
    RemovalStep,
    RemovalTrace,
    predicted_distance,
    predicted_length,
    remove_all,
    remove_one,
    remove_until,
)
from .structure import (
    CaseTag,
    GapContext,
    GapTooLong,
    StepReport,
    StructureReport,
    analyze_gap,
    check_all,
)
from .threshold import (
    CertificateFailed,
    ScheduleTrace,
    StructureViolated,
    ThresholdPlan,
    apply_plan,
    plan_gap,
    remove_epsilon,
    remove_strong,
)
from .semiorder import (
    NotASemiorder,
    NotAsymmetric,
    Semiorder,
    SSRep,
    SynthesisFailed,
    TooLarge,
    check_axioms,
    check_ss,
    enumerate_semiorders,
    glue,
    irreducible_components,
    synthesize_ss,
    trace,
)

__version__ = "0.1.0"
