"""Level-set optimization of control regions for diffusive population models.

Two pipelines share one discretization toolbox:

* harvest-region optimization: an adjoint parabolic solve drives a
  mollified level-set descent that trades harvest yield against length
  and area penalties on the control region;
* eradicability analysis for an age-structured pest model: a growth-rate
  dichotomy (renewal-equation root versus principal eigenvalue of the
  controlled diffusion operator) plus the matching region optimizer.
"""

from .agestruct import (
    AgeDensityField,
    AgeModelParams,
    EradicabilityReport,
    eradicability_verdict,
    eradication_velocity,
    evaluate_psi,
    lotka_root,
    mollified_effort,
    optimize_eradication_region,
    principal_eigenvalue,
    sharp_effort,
    solve_age_structured,
    solve_eradication_adjoint,
    total_population,
)
from .config import RunConfig, gaussian_density, parse_config
from .errors import ConfigError, ConvergenceFailure, SolverFailure
from .grid import (
    GridSpec,
    ScalarField,
    SpaceTimeField,
    curvature_divergence,
    gradient_magnitude,
    read_field_csv,
    simpson_integral_2d,
    write_field_csv,
)
from .levelset import (
    LevelSetFunction,
    Mollifier,
    checkerboard_levelset,
    circle_levelset,
    delta_mollified,
    evolve_phi,
    heaviside_mollified,
    region_area,
    region_length,
    write_region_pgm,
)
from .pde import (
    ControlProblemParams,
    bang_bang_control,
    solve_adjoint,
    solve_forward,
    solve_sensitivity,
)
from .shapeopt import (
    Trace,
    descent_velocity,
    evaluate_J,
    optimize_region,
)

__all__ = [
    "GridSpec",
    "ScalarField",
    "SpaceTimeField",
    "simpson_integral_2d",
    "gradient_magnitude",
    "curvature_divergence",
    "write_field_csv",
    "read_field_csv",
    "Mollifier",
    "LevelSetFunction",
    "heaviside_mollified",
    "delta_mollified",
    "region_area",
    "region_length",
    "evolve_phi",
    "circle_levelset",
    "checkerboard_levelset",
    "write_region_pgm",
    "ControlProblemParams",
    "solve_forward",
    "solve_adjoint",
    "solve_sensitivity",
    "bang_bang_control",
    "evaluate_J",
    "descent_velocity",
    "optimize_region",
    "Trace",
    "AgeModelParams",
    "AgeDensityField",
    "lotka_root",
    "sharp_effort",
    "mollified_effort",
    "principal_eigenvalue",
    "eradicability_verdict",
    "EradicabilityReport",
    "solve_age_structured",
    "total_population",
    "evaluate_psi",
    "solve_eradication_adjoint",
    "eradication_velocity",
    "optimize_eradication_region",
    "RunConfig",
    "parse_config",
    "gaussian_density",
    "ConfigError",
    "SolverFailure",
    "ConvergenceFailure",
]
