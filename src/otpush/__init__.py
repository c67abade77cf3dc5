"""Numerical laboratory for quantitative stability of pushforwards by
(non-smooth) optimal transport maps.

Modules
-------
``geometry_measures``  domains, discrete and 1D measures, exact 1D
                       Wasserstein distances.
``discrete_ot``        exact discrete optimal transport (plans, duals,
                       bottleneck distance).
``convex_analysis``    max-affine calculus, subdifferential polytopes,
                       singular-set covering and integral bounds.
``pcost_maps``         |z|^p cost machinery: gradient inverse with a
                       certified Holder modulus, c-concave potentials,
                       transport maps.
``pushforward``        pushforwards through (possibly singular) transport
                       maps, selection policies, barycentric interpolants,
                       potentials from discrete plans.
``experiments``        reproducible scenario drivers and reports.
"""

from .convex_analysis import (MaxAffineFunction, SubdiffPolytope,
                              covering_number_sigma, diam_subdiff_ball,
                              integral_bound, integral_diam_estimate,
                              kink_ladder, verify_lemma_diam_l1)
from .discrete_ot import (Coupling, DualPotentials, bottleneck_solve,
                          cost_matrix, solve, wasserstein)
from .experiments import (BoundViolationError, ExperimentReport, SweepConfig,
                          audit_stability_bound, fit_holder_rate, fit_loglog,
                          holder_exponent, pushforward_measure1d,
                          random_max_affine, run_demo, run_example,
                          run_figure1, run_singularity_suite,
                          stability_constant)
from .geometry_measures import (DiscreteMeasure, Domain, Measure1D,
                                discretize, measure_from_json, uniform_grid,
                                unit_ball_volume, wasserstein_1d)
from .pcost_maps import (BoundaryEscapeError, CConcavePotential, grad_xi_p,
                         grad_xi_p_inverse)
from .pushforward import (PushforwardResult, SelectionPolicy, lot_interpolant,
                          potential_from_discrete_ot, pushforward_convex,
                          pushforward_tmap)

__version__ = "0.1.0"

__all__ = [
    "BoundViolationError", "BoundaryEscapeError", "CConcavePotential",
    "Coupling", "DiscreteMeasure", "Domain", "DualPotentials",
    "ExperimentReport", "MaxAffineFunction", "Measure1D",
    "PushforwardResult", "SelectionPolicy", "SubdiffPolytope",
    "SweepConfig",
    "audit_stability_bound", "bottleneck_solve", "cost_matrix",
    "covering_number_sigma", "diam_subdiff_ball", "discretize",
    "fit_holder_rate", "fit_loglog", "grad_xi_p", "grad_xi_p_inverse",
    "holder_exponent", "integral_bound", "integral_diam_estimate",
    "kink_ladder", "lot_interpolant", "measure_from_json",
    "potential_from_discrete_ot", "pushforward_convex",
    "pushforward_measure1d", "pushforward_tmap", "random_max_affine",
    "run_demo", "run_example", "run_figure1", "run_singularity_suite",
    "solve", "stability_constant", "uniform_grid", "unit_ball_volume",
    "wasserstein", "wasserstein_1d", "verify_lemma_diam_l1",
]
