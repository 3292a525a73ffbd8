"""Centered jump indicators and their orthogonalized increment family.

The raw increments are the centered indicators

    dZ_(t,k) = 1{jump with mark k at t} - lambda * Q(k),

which are uncorrelated across times but not across marks at a fixed
time.  Gram-Schmidt in the user-supplied mark order produces a family
dR_(t,k) that is orthogonal across all points, with

    dZ_(t, k^n) = dR_(t, k^n) + sum_{j<n} gamma_nj dR_(t, k^j).

The lower-triangular unit-diagonal matrix M holding the gamma_nj, its
inverse, and the second moments kappa_k = E[dR_(t,k)^2] fully describe
the change of basis; all three are computed from the closed-form
one-step moments (Var dZ_k = lambda Q_k (1 - lambda Q_k),
Cov(dZ_k, dZ_l) = -lambda^2 Q_k Q_l) and only verified by enumeration.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .space import Configuration, ModelParams, space

Point = tuple[int, float]           # (time step, mark value)
Kernel = dict[tuple[Point, ...], float]   # order-n kernel on time-ordered supports

DEGENERATE_KAPPA = 1e-14


@dataclass(frozen=True)
class OrthogonalBasis:
    """Change of basis between the dZ and dR families at one time step."""

    params: ModelParams
    matrix_m: np.ndarray        # lower triangular, unit diagonal: dZ = M dR
    matrix_m_inv: np.ndarray    # dR = M^{-1} dZ
    kappa: np.ndarray           # kappa_k = E[dR_(t,k)^2] > 0

    def __post_init__(self):
        m = self.params.n_marks
        M, Minv = self.matrix_m, self.matrix_m_inv
        if M.shape != (m, m) or Minv.shape != (m, m):
            raise ValueError("basis matrices must be m x m")
        if not np.allclose(np.triu(M, 1), 0.0) or not np.allclose(np.diag(M), 1.0):
            raise ValueError("M must be lower triangular with unit diagonal")
        if np.max(np.abs(M @ Minv - np.eye(m))) > 1e-12:
            raise ValueError("M * M^-1 deviates from the identity beyond 1e-12")
        if np.any(self.kappa <= 0.0):
            raise ValueError(f"kappa entries must be positive, got {self.kappa}")
        for arr in (self.matrix_m, self.matrix_m_inv, self.kappa):
            arr.flags.writeable = False

    def export_csv(self, path: str | os.PathLike) -> None:
        """Basis dump (M, M^-1, kappa) for the verify CLI report."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["block", "row", "col", "value"])
            for name, mat in (("M", self.matrix_m), ("M_inv", self.matrix_m_inv)):
                for i in range(mat.shape[0]):
                    for j in range(mat.shape[1]):
                        writer.writerow([name, i, j, repr(float(mat[i, j]))])
            for i, k in enumerate(self.kappa):
                writer.writerow(["kappa", i, 0, repr(float(k))])


def step_covariance(params: ModelParams) -> np.ndarray:
    """One-step covariance matrix of (dZ_k)_k from Bernoulli-indicator algebra."""
    lq = params.jump_prob * np.asarray(params.mark_probs)
    cov = -np.outer(lq, lq)
    np.fill_diagonal(cov, lq * (1.0 - lq))
    return cov


@lru_cache(maxsize=64)
def build_basis(params: ModelParams) -> OrthogonalBasis:
    """Gram-Schmidt on the dZ family in the user-supplied mark order.

    The moments feeding the orthogonalization are closed-form, so the
    result is exact up to rounding; a pivot kappa below 1e-14 means the
    mark carries no usable variance.
    """
    m = params.n_marks
    cov = step_covariance(params)
    coeff = np.eye(m)               # row j: dR_j in terms of dZ
    kappa = np.zeros(m)
    for n in range(m):
        for j in range(n):
            gamma = float(coeff[j] @ cov @ coeff[n]) / kappa[j]
            coeff[n] -= gamma * coeff[j]
        kappa[n] = float(coeff[n] @ cov @ coeff[n])
        if kappa[n] < DEGENERATE_KAPPA:
            raise ValueError(
                f"degenerate mark {params.marks[n]!r}: kappa={kappa[n]!r} below {DEGENERATE_KAPPA}"
            )
    matrix_m_inv = coeff
    matrix_m = np.linalg.inv(coeff)
    # clean the numerically-exact structure
    matrix_m[np.triu_indices(m, 1)] = 0.0
    np.fill_diagonal(matrix_m, 1.0)
    return OrthogonalBasis(params, matrix_m, matrix_m_inv, kappa)


# -- per-step value tables ------------------------------------------------------

@lru_cache(maxsize=64)
def z_step_values(params: ModelParams) -> np.ndarray:
    """Table (digit, mark index) -> dZ value; digit 0 means no jump."""
    m = params.n_marks
    lq = params.jump_prob * np.asarray(params.mark_probs)
    vals = np.zeros((m + 1, m))
    vals[:, :] = -lq[None, :]
    vals[np.arange(1, m + 1), np.arange(m)] += 1.0
    vals.flags.writeable = False
    return vals


@lru_cache(maxsize=64)
def r_step_values(params: ModelParams) -> np.ndarray:
    """Table (digit, mark index) -> dR value."""
    basis = build_basis(params)
    vals = z_step_values(params) @ basis.matrix_m_inv.T
    vals = np.ascontiguousarray(vals)
    vals.flags.writeable = False
    return vals


def _step_table(params: ModelParams, column: np.ndarray, t: int) -> np.ndarray:
    """column[digit t] over all configurations, in rank order: written
    through the step-t view (rank (a * base + d) * base^(t-1) + c has digit
    t = d), with no gather through the digit table."""
    sp = space(params)
    out = np.empty(sp.n)
    sp.step_view(out, t)[:] = column[:, None]
    return out


def delta_z_table(params: ModelParams, t: int, k: float) -> np.ndarray:
    """dZ_(t,k) over all configurations, in rank order."""
    return _step_table(params, z_step_values(params)[:, params.mark_index(k)], t)


def delta_r_table(basis: OrthogonalBasis, t: int, k: float) -> np.ndarray:
    """dR_(t,k) over all configurations, in rank order."""
    params = basis.params
    return _step_table(params, r_step_values(params)[:, params.mark_index(k)], t)


def delta_z(params: ModelParams, config: Configuration, point: Point) -> float:
    t, k = point
    digit = config.digits[t - 1]
    return float(z_step_values(params)[digit, params.mark_index(k)])


def delta_r(basis: OrthogonalBasis, config: Configuration, point: Point) -> float:
    t, k = point
    digit = config.digits[t - 1]
    return float(r_step_values(basis.params)[digit, basis.params.mark_index(k)])


# -- kernel coordinate changes --------------------------------------------------

def _support_indices(params: ModelParams, support: tuple[Point, ...]) -> tuple[tuple[int, int], ...]:
    out = []
    last_t = 0
    for t, k in support:
        if t <= last_t:
            raise ValueError(f"support times must be strictly increasing, got {support}")
        out.append((t, params.mark_index(k)))
        last_t = t
    return tuple(out)


def convert_coeffs_r_to_z(basis: OrthogonalBasis, f_n: Kernel) -> Kernel:
    """Kernel g with sum g * prod dZ == sum f * prod dR on every configuration.

    Applies M^{-1} once per tensor slot: for a support carrying mark
    indices (p_1..p_n),

        g(t, k^{p_j}) slot j picks up sum_{i >= p_j} Minv[i, p_j] f(..., k^i, ...).
    """
    params = basis.params
    minv = basis.matrix_m_inv
    out: Kernel = {}
    for support, value in f_n.items():
        idx = _support_indices(params, tuple(support))
        if value == 0.0:
            continue
        # distribute each slot (t, i) over target indices p <= i with weight Minv[i, p]
        stack = [((), 1.0)]
        for t, i in idx:
            stack = [
                (prefix + ((t, p),), w * minv[i, p])
                for prefix, w in stack
                for p in range(i + 1)
                if minv[i, p] != 0.0
            ]
        for target_idx, weight in stack:
            key = tuple((t, params.marks[p]) for t, p in target_idx)
            out[key] = out.get(key, 0.0) + weight * value
    return {k: v for k, v in out.items() if v != 0.0}


def convert_order1_z_to_r(basis: OrthogonalBasis, g_1: Kernel) -> Kernel:
    """Inverse of convert_coeffs_r_to_z for order-1 kernels (h = M^T g)."""
    params = basis.params
    M = basis.matrix_m
    out: Kernel = {}
    for support, value in g_1.items():
        ((t, k),) = tuple(support)
        p = params.mark_index(k)
        for i in range(p + 1):
            key = ((t, params.marks[i]),)
            out[key] = out.get(key, 0.0) + M[p, i] * value
    return {k: v for k, v in out.items() if v != 0.0}
