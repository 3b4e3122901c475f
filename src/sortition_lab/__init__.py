"""Random-panel laboratory: representativeness, budgeting, facility location."""

from .model import (
    Box,
    CamouflagedPopulation,
    DiscreteDistribution,
    Feature,
    FiniteMetric,
    MetricViolation,
    Mode,
    Norm,
    Panel,
    Segment,
    majority_estimator,
    make_camouflaged,
    real_feature,
    validate_metric,
)
from .representativeness import (
    PanelWasserstein,
    is_representative,
    mean_gap,
    min_k_sweep,
    panel_distribution,
    population_distribution,
)
from .sampling import (
    EstimateWithCI,
    TrialPlan,
    draw_panel,
    monte_carlo,
    proportion_ci,
)
from .transport import (
    Coupling,
    convexity_check,
    wasserstein,
    wasserstein_1d,
    wasserstein_flow,
)

__all__ = [
    "Box",
    "CamouflagedPopulation",
    "Coupling",
    "DiscreteDistribution",
    "EstimateWithCI",
    "Feature",
    "FiniteMetric",
    "MetricViolation",
    "Mode",
    "Norm",
    "Panel",
    "PanelWasserstein",
    "Segment",
    "TrialPlan",
    "convexity_check",
    "draw_panel",
    "is_representative",
    "majority_estimator",
    "make_camouflaged",
    "mean_gap",
    "min_k_sweep",
    "monte_carlo",
    "panel_distribution",
    "population_distribution",
    "proportion_ci",
    "real_feature",
    "validate_metric",
    "wasserstein",
    "wasserstein_1d",
    "wasserstein_flow",
]

__version__ = "0.1.0"
