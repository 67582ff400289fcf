"""Finite mixtures of tilted hazard-power models and their stochastic orders."""

from .baseline import BaselineDistribution, Exponential, PowerBurr, make_baseline
from .errors import (
    DomainError,
    InfiniteMeanSuspected,
    MixOrderError,
    NumericalError,
    ParameterError,
    ShapeError,
    TailError,
)
from .majorization import (
    ParameterMatrix,
    TTransform,
    apply_chain,
    apply_t_transform,
    in_space,
    majorizes,
    recover_t_transform_2x2,
    row_majorizes,
    same_structure,
    verify_chain_witness,
    weakly_supermajorizes,
)
from .mixture import (
    CurveSeries,
    EvaluationGrid,
    MixtureModel,
    default_grid,
    evaluate_curve,
)
from .mphr import MphrParams
from .orders import (
    LorenzCurve,
    OrderVerdict,
    check_hr,
    check_lorenz,
    check_order,
    check_st,
    check_star,
    default_lorenz_grid,
    h_hr,
    h_pa,
    h_plambda,
    lorenz_curve,
)
from .theorems import (
    EXAMPLE_IDS,
    HypothesisCheck,
    MonotoneReport,
    Scenario,
    SEARCHABLE_IDS,
    THEOREM_IDS,
    TheoremReport,
    check_theorem,
    example_scenario,
    search_counterexamples,
    t7_ratio_monotone,
    verify_example,
)

__version__ = "0.1.0"
