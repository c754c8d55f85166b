"""Monte Carlo laboratory for generalized backward doubly stochastic
differential equations and semi-linear SPDEs with nonlinear Neumann boundary
conditions."""

from .grids import TimeGrid
from .paths import PathBundle, sample_paths
from .problems import CoefficientSet
from .geometry import SmoothDomain, ball_domain, interval_domain, make_domain
from .reflection import (
    ReflectedPath,
    simulate_reflected,
    skorokhod_bridge_exact,
    skorokhod_oracle_1d,
)
from .flows import (
    BrownianFlow,
    FlowTable,
    flow_derivative_identities,
    operator_identity_violations,
    spde_noise_coefficient,
    transformed_boundary,
    transformed_generator,
)
from .residuals import (
    DriftField,
    NoiseLinearField,
    ResidualReport,
    ito_formula_residual,
    ito_ventzell_residual,
)
from .regression import PolynomialBasis, make_basis
from .solver import (
    BdsdeSolution,
    apriori_ratio,
    picard_solve,
    solve_bdsde_markov,
    solve_simple,
    solve_transformed_gbsde,
    stability_gap,
)
from .fields import evaluate_u, pde_oracle_g0

__version__ = "0.1.0"

__all__ = [
    "TimeGrid",
    "PathBundle",
    "sample_paths",
    "CoefficientSet",
    "SmoothDomain",
    "interval_domain",
    "ball_domain",
    "make_domain",
    "ReflectedPath",
    "simulate_reflected",
    "skorokhod_oracle_1d",
    "skorokhod_bridge_exact",
    "BrownianFlow",
    "FlowTable",
    "spde_noise_coefficient",
    "flow_derivative_identities",
    "transformed_generator",
    "transformed_boundary",
    "operator_identity_violations",
    "ResidualReport",
    "DriftField",
    "NoiseLinearField",
    "ito_formula_residual",
    "ito_ventzell_residual",
    "PolynomialBasis",
    "make_basis",
    "BdsdeSolution",
    "solve_simple",
    "picard_solve",
    "apriori_ratio",
    "stability_gap",
    "solve_bdsde_markov",
    "solve_transformed_gbsde",
    "evaluate_u",
    "pde_oracle_g0",
]
