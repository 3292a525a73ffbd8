"""Change of measure between marked binomial laws.

An equivalent law on the same mark set is parametrized by a new jump
probability and mark law.  The Radon-Nikodym density on F_t factorizes
per step,

    L_t = prod_{s<=t} [ (1-lam~)/(1-lam)          if no jump at s
                        lam~ Q~(k) / (lam Q(k))    if jump with mark k ],

equals the exponential functional of the drift kernel

    g(t, k) = lam~ Q~(k) / (lam Q(k)) - (1-lam~)/(1-lam)

(expressed in Z-coordinates), and also takes the compound form
((1-lam~)/(1-lam))^T prod over jumps of (1 + varphi(mark)), whose logs are
summed over digit rows; the density is a step-order product of ratios.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .space import ModelParams, PathFunctional, _prefix_rows, digit_rows, probability_table, step_products, step_weights

if TYPE_CHECKING:
    from .basis import Kernel


@dataclass(frozen=True)
class TargetMeasure:
    """Equivalent marked binomial law (lam~, Q~) on the same mark set."""

    jump_prob: float
    mark_probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "mark_probs", tuple(float(q) for q in self.mark_probs))
        if not 0.0 < self.jump_prob < 1.0:
            raise ValueError(f"target jump_prob must lie in (0, 1), got {self.jump_prob}")
        if not all(q > 0.0 for q in self.mark_probs):  # also refuses NaN, for which q <= 0.0 is False
            raise ValueError(f"target mark probabilities must be positive, got {self.mark_probs}")
        if abs(sum(self.mark_probs) - 1.0) > 1e-12:
            raise ValueError(f"target mark probabilities must sum to 1, got {sum(self.mark_probs)!r}")

    def as_params(self, params: ModelParams) -> ModelParams:
        if len(self.mark_probs) != params.n_marks:
            raise ValueError("target must carry one probability per mark")
        return ModelParams(
            horizon=params.horizon,
            marks=params.marks,
            jump_prob=self.jump_prob,
            mark_probs=self.mark_probs,
            rng_seed=params.rng_seed,
        )


def girsanov_drift(params: ModelParams, target: TargetMeasure) -> Kernel:
    """Order-1 kernel (Z-coordinates) of the density's exponential form;
    constant in t."""
    target.as_params(params)  # validates compatibility
    ratio0 = (1.0 - target.jump_prob) / (1.0 - params.jump_prob)
    out: Kernel = {}
    for j, k in enumerate(params.marks):
        g = (target.jump_prob * target.mark_probs[j]) / (params.jump_prob * params.mark_probs[j]) - ratio0
        for t in range(1, params.horizon + 1):
            out[((t, k),)] = g
    return out


def girsanov_density(params: ModelParams, target: TargetMeasure, t: int | None = None) -> PathFunctional:
    """dP~/dP restricted to F_t, t in 0..T, as an exact table: the step-order
    product of the one-step ratios w~_d / w_d on steps 1..t, with rows of
    ones after t (L_0 = 1 on the trivial F_0).  Only the two laws' one-step
    weights are read, so no sample space is built."""
    ratio = step_weights(target.as_params(params)) / step_weights(params)
    return PathFunctional(params, values=step_products(_prefix_rows(params, t, ratio, 1.0)))


def girsanov_varphi(params: ModelParams, target: TargetMeasure) -> dict[float, float]:
    """Mark function varphi of the compound density form."""
    target.as_params(params)
    lam, lamt = params.jump_prob, target.jump_prob
    scale = lamt * (1.0 - lam) / (lam * (1.0 - lamt))
    return {
        k: scale * target.mark_probs[j] / params.mark_probs[j] - 1.0
        for j, k in enumerate(params.marks)
    }


def girsanov_density_varphi(params: ModelParams, target: TargetMeasure) -> PathFunctional:
    """Compound form ((1-lam~)/(1-lam))^T * prod over jumps (1 + varphi(V_s))."""
    varphi = girsanov_varphi(params, target)
    log_base = params.horizon * np.log((1.0 - target.jump_prob) / (1.0 - params.jump_prob))
    log_factor = np.array([0.0] + [np.log1p(varphi[k]) for k in params.marks])
    vals = np.exp(log_base + log_factor[digit_rows(params)].sum(axis=1))
    return PathFunctional(params, values=vals)


def girsanov_density_doleans(params: ModelParams, target: TargetMeasure) -> PathFunctional:
    """Density via the exponential-functional route: the drift kernel is
    mapped to basis coordinates and exponentiated with unit mean."""
    from .basis import build_basis, convert_order1_z_to_r
    from .chaos import doleans_exponential

    basis = build_basis(params)
    h = convert_order1_z_to_r(basis, girsanov_drift(params, target))
    return doleans_exponential(basis, h)


def reweighted_expectation(F: PathFunctional, target: TargetMeasure) -> float:
    """E[F L_T]; equals the expectation of F under the target law."""
    dens = girsanov_density(F.params, target).table()
    return float(np.dot(probability_table(F.params), F.table() * dens))
