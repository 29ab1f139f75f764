"""Exact Witt-theoretic invariants of linear schemes over the reals.

The package computes, in exact integer arithmetic, where multiplication
by the rank-2 form <<-1>> acts bijectively on the ideal-filtration
cohomology of schemes built from cells by open/closed decompositions,
and what the cokernels look like where it does not: construction
levels, bijectivity ranges, explicit cell cohomology as shifted ideal
sums, and the resulting ranges and 2-power cokernel exponents for the
comparison map to singular cohomology.
"""

from .cells import (
    CellularComplexSlice,
    UnsupportedDifferentialError,
    cellular_complex_proj_times_torus,
    expected_twist,
    h0_torus_cells,
    hc_proj_times_torus,
)
from .grammar import ParseError, UnknownTwistWarning, parse_expr, pretty
from .ranges import (
    CapabilityError,
    RangeVerdict,
    RccmCase,
    RccmEntry,
    RccmVerdict,
    SheafRangeVerdict,
    SmoothnessRequiredError,
    TLinearAnswer,
    TShapeRequiredError,
    Vanishing,
    ibar_range,
    lift_to_twisted_ideal,
    rccm_report,
    sheaf_range,
    t_linear_verdict,
    t_linear_verdict_sheaf,
)
from .schemes import (
    Affine,
    ClosedGlue,
    ClosureOrder,
    Empty,
    FinitePosetRealization,
    InternalConsistencyError,
    InvalidStratificationError,
    OpenGlue,
    Product,
    ProjTimesTorus,
    RuleApplication,
    SchemeError,
    SchemeExpr,
    Stratified,
    TorusCell,
    VennReport,
    VennStratum,
    as_torus_cell,
    j_linear_level_with_rules,
    levels_with_rules,
    range_level_with_rules,
    scheme_from_json,
    scheme_to_json,
    split_order,
    stratification_to_tree,
    torus_cell_as_glue_tree,
    venn_stratification,
)
from .shifted import (
    AbelianGroupPresentation,
    ShiftedIdealSum,
    StepKind,
    StepVerdict,
)
from .witt import (
    FINITE_FIELD,
    GW_ONE,
    GW_ZERO,
    PFISTER_MINUS_ONE,
    REAL,
    DiagonalForm,
    FieldCapability,
    GWClass,
    IdealLevel,
    InvalidFormError,
    TwistLabel,
    WittClass,
    gw_class,
    in_ideal_power,
    mult_pfister_minus_one,
    pfister,
    witt_class,
)

__version__ = "0.1.0"
