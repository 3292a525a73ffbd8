"""Exact Malliavin-type calculus on marked binomial models: orthogonal
increment basis, chaotic decompositions, difference/gradient operators,
measure changes, Chen-Stein approximation bounds with exact
total-variation oracles, and quadratic hedging in the ternary market.
"""

__version__ = "0.1.0"

from .space import (
    Configuration,
    ModelParams,
    PathFunctional,
    compound_value,
    conditional_expectation,
    config_probability,
    enumerate_configurations,
    expectation,
    rng_stream,
    sample_path,
    space,
)
from .basis import (
    OrthogonalBasis,
    build_basis,
    convert_coeffs_r_to_z,
    convert_order1_z_to_r,
    delta_r,
    delta_r_table,
    delta_z,
    delta_z_table,
)
from .chaos import (
    ChaosCoefficients,
    doleans_exponential,
    kernel_inner,
    multiple_integral,
    product_kernel,
    reconstruct,
    stroock_decompose,
)
from .malliavin import (
    ProcessTable,
    add_one_cost,
    bar_grad,
    clark_integrand,
    clark_reconstruct,
    divergence,
    gamma_tilde,
    gradient,
    gradient_process,
    iterated_difference,
    iterated_gradient,
    l_inverse,
    mecke_check,
    number_operator,
    ou_mehler_mc,
    ou_spectral,
    remove_one_cost,
    tilde_divergence,
    tilde_grad,
    tilde_number_operator,
)
from .girsanov import (
    TargetMeasure,
    girsanov_density,
    girsanov_drift,
    girsanov_varphi,
    reweighted_expectation,
)
from .stein import (
    CompoundTarget,
    SteinSolution,
    compound_poisson_bound,
    compound_stein_solve,
    dna_bound,
    dna_functional,
    exact_tv,
    head_run_bound,
    head_run_functional,
    poisson_bound,
    solve_stein_poisson,
    stein_constants,
)
from .hedging import (
    KWDecomposition,
    MarketParams,
    Strategy,
    call_payoff,
    kunita_watanabe,
    ls_oracle,
    martingale_diagnostics,
    minimal_martingale_measure,
    optimal_strategy,
    price_paths,
)
from .diagnostics import run_identity_suite
