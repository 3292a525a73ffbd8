"""Exact Malliavin-type calculus on marked binomial models: orthogonal
increment basis, chaotic decompositions, difference/gradient operators,
measure changes, Chen-Stein approximation bounds with exact
total-variation oracles, and quadratic hedging in the ternary market.
"""

__version__ = "0.1.0"

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

# Every name, and each submodule, is imported on first access (PEP 562), so
# `import markedbinomial` loads nothing and an `mbp` command loads only the
# modules it runs.
_EXPORTS = {
    "space": (
        "Configuration",
        "ModelParams",
        "PathFunctional",
        "compound_value",
        "conditional_expectation",
        "config_probability",
        "enumerate_configurations",
        "expectation",
        "rng_stream",
        "sample_path",
    ),
    "basis": (
        "OrthogonalBasis",
        "build_basis",
        "convert_coeffs_r_to_z",
        "convert_order1_z_to_r",
        "delta_r",
        "delta_r_table",
        "delta_z",
        "delta_z_table",
    ),
    "chaos": (
        "ChaosCoefficients",
        "doleans_exponential",
        "kernel_inner",
        "multiple_integral",
        "product_kernel",
        "reconstruct",
        "stroock_decompose",
    ),
    "malliavin": (
        "ProcessTable",
        "add_one_cost",
        "bar_grad",
        "clark_integrand",
        "clark_reconstruct",
        "divergence",
        "gamma_tilde",
        "gradient",
        "gradient_process",
        "iterated_difference",
        "iterated_gradient",
        "l_inverse",
        "mecke_check",
        "number_operator",
        "ou_mehler_mc",
        "ou_spectral",
        "remove_one_cost",
        "tilde_divergence",
        "tilde_grad",
        "tilde_number_operator",
    ),
    "girsanov": (
        "TargetMeasure",
        "girsanov_density",
        "girsanov_drift",
        "girsanov_varphi",
        "reweighted_expectation",
    ),
    "stein": (
        "CompoundTarget",
        "SteinSolution",
        "compound_poisson_bound",
        "compound_stein_solve",
        "dna_bound",
        "dna_functional",
        "exact_tv",
        "head_run_bound",
        "head_run_functional",
        "poisson_bound",
        "solve_stein_poisson",
        "stein_constants",
    ),
    "hedging": (
        "KWDecomposition",
        "MarketParams",
        "Strategy",
        "call_payoff",
        "kunita_watanabe",
        "ls_oracle",
        "martingale_diagnostics",
        "minimal_martingale_measure",
        "optimal_strategy",
        "price_paths",
    ),
    "diagnostics": ("run_identity_suite",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted({*_EXPORTS, *_MODULE_OF})


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Root(_ModuleType):
    """The package root, whose ``space`` is the function, not the submodule
    of that name.  The import system binds each submodule it loads on its
    parent; that binding of ``space`` is ignored, and any other assignment
    replaces the function."""

    @property
    def space(self):
        found = vars(self)
        if "space" not in found:
            found["space"] = _import_module(".space", __name__).space
        return found["space"]

    @space.setter
    def space(self, value):
        if value is not _sys.modules.get(f"{__name__}.space"):
            vars(self)["space"] = value


_sys.modules[__name__].__class__ = _Root
