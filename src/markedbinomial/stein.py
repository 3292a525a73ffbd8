"""Discrete Stein equation solvers and (compound) Poisson approximation bounds.

Poisson target.  For A a subset of Z+ the Stein solution phi_A solves

    lam0 * phi(k+1) - k * phi(k) = 1_A(k) - P(Poi(lam0) in A),   phi(0) = 0.

The forward recursion amplifies rounding by k/lam0 per step, so the
solver evaluates the equivalent closed form

    phi(k+1) = [P(A & U_k) * P(> k) - P(A \\ U_k) * P(<= k)] / (lam0 * pmf(k)),

U_k = {0..k}, whose factors are single-signed partial pmf sums; residuals
stay near machine precision for the whole table.

Compound Poisson target PC(lam0, gV).  The solution table psi_A solves

    lam0 * sum_k k gV(k) psi(l+k) - l * psi(l) = 1_A(l) - P(PC in A)

for l = 1..L_max (same creation-minus-annihilation orientation as the
Poisson equation, so gV = delta_1 reproduces phi exactly); back
substitution from an extended horizon keeps truncation error away from
the reported window.  The compound pmf itself comes from the Panjer
recursion.

The approximation bounds evaluate their defining expectations exactly on
the enumerated space (or through iid convolutions when the space is too
large to enumerate), so "bound >= exact total variation" is a testable
statement, not an asymptotic one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

# `space` is imported by the head-run and Malliavin-route functions that use
# it, so the closed forms and the DNA law load this module alone.
if TYPE_CHECKING:
    from .space import ModelParams, PathFunctional


# -- constants and generic helpers --------------------------------------------------

TAIL_TOL = 1e-12          # compound pmf mass the target table may leave out
MAX_PMF_LENGTH = 2**22    # longest pmf table the target or the exact DNA law builds
GEOMETRIC_TAIL = 1e-17    # mass the geometric truncation, or one exact DNA table, leaves out
MAX_GEOMETRIC_MARKS = 2048  # widest geometric law in the target: each Panjer entry sums over its marks
SOLVE_EXTENSION = 64      # steps the compound back substitution runs past its window
Z_PLUS_TOL = 1e-9         # largest distance from an integer in a Z+-valued table


def stein_constants(lam0: float) -> tuple[float, float, float]:
    """Sup-norm estimates for (phi, grad phi, grad^2 phi) at intensity lam0,
    uniform over all sets A.

    The first two are Barbour, Holst & Janson, Lemma 1.1.1:
    |phi| <= min(1, sqrt(2 / (e lam0))) and |grad phi| <= (1-e^-lam0)/lam0.
    The third follows from the second, since
    grad^2 phi(k) = grad phi(k+1) - grad phi(k), so
    |grad^2 phi| <= 2 (1-e^-lam0)/lam0.  It decays like 1/lam0, as the
    exact supremum over all sets does; the form 2 (1-e^-lam0)/lam0^2
    agrees with it at lam0 = 1 but first falls below the exact supremum
    between lam0 = 1.2 and 1.375 (0.8755 against 0.7904 at 1.375).
    """
    if lam0 <= 0:
        raise ValueError(f"lam0 must be positive, got {lam0}")
    grad = (1.0 - math.exp(-lam0)) / lam0
    return min(1.0, math.sqrt(2.0 / (math.e * lam0))), grad, 2.0 * grad


def poisson_pmf(lam0: float, k_max: int) -> np.ndarray:
    """P(Poi(lam0) = k) for k = 0..k_max, as e^-lam0 * prod_{j<=k} lam0 / j."""
    return math.exp(-lam0) * np.cumprod(np.concatenate([[1.0], lam0 / np.arange(1, k_max + 1)]))


def _as_mask(A: Iterable[int] | np.ndarray, k_max: int) -> np.ndarray:
    if isinstance(A, np.ndarray) and A.dtype == bool:
        if len(A) > k_max + 1:
            raise ValueError(f"set mask of length {len(A)} exceeds table range 0..{k_max}")
        mask = np.zeros(k_max + 1, dtype=bool)
        mask[: len(A)] = A
        return mask
    mask = np.zeros(k_max + 1, dtype=bool)
    for j in A:
        if not 0 <= int(j) <= k_max:
            raise ValueError(f"set element {j} outside 0..{k_max}")
        mask[int(j)] = True
    return mask


def default_k_max(lam0: float) -> int:
    return int(10 * lam0 + 50)


# -- Poisson Stein solution ----------------------------------------------------------

@dataclass
class SteinSolution:
    """Solved Stein table for one target intensity and one set A."""

    lam0: float
    a_mask: np.ndarray          # membership of A over 0..K_max
    phi: np.ndarray             # phi(0..K_max+1), phi(0) = 0
    k_max: int
    residual: float             # max |recursion residual| over k = 0..K_max

    @property
    def grad(self) -> np.ndarray:
        return np.diff(self.phi)

    @property
    def grad2(self) -> np.ndarray:
        return np.diff(self.phi, 2)

    def norm_slacks(self) -> dict[str, float]:
        """Positive entries mean the corresponding sup-norm estimate fails."""
        b_phi, b_grad, b_grad2 = stein_constants(self.lam0)
        return {
            "phi": float(np.max(np.abs(self.phi[: self.k_max + 1])) - b_phi),
            "grad": float(np.max(np.abs(self.grad)) - b_grad),
            "grad2": float(np.max(np.abs(self.grad2)) - b_grad2),
        }


def solve_stein_poisson(lam0: float, A: Iterable[int] | np.ndarray, k_max: int | None = None) -> SteinSolution:
    """Solve the Poisson Stein equation for the set A on 0..k_max."""
    if lam0 <= 0:
        raise ValueError(f"lam0 must be positive, got {lam0}")
    k_max = default_k_max(lam0) if k_max is None else int(k_max)
    mask = _as_mask(A, k_max)
    ks = np.arange(k_max + 1)
    # the table runs on past k_max so that the upper tails P(> k) are sums
    # of terms, never formed as 1 - P(<= k)
    table = poisson_pmf(lam0, k_max + math.ceil(lam0) + 60)
    pmf = table[: k_max + 1]
    if np.any(pmf == 0.0):
        raise ValueError(f"k_max={k_max} too large for float precision at lam0={lam0}")
    cdf = np.cumsum(pmf)
    sf = table[::-1].cumsum()[::-1][1 : k_max + 2]
    in_a = np.where(mask, pmf, 0.0)
    p_a_low = np.cumsum(in_a)                                  # P(A & {<=k})
    above = in_a[::-1].cumsum()[::-1]
    p_a_high = np.concatenate([above[1:], [0.0]])              # P(A & {>k})
    if mask.all():
        # an all-true mask means A is the whole lattice: P(A) = 1 and the
        # upper mass is the full tail, so the solution vanishes identically
        p_a_low = cdf
        p_a_high = sf
    phi = np.zeros(k_max + 2)
    phi[1:] = (p_a_low * sf - p_a_high * cdf) / (lam0 * pmf)
    p_a = float(p_a_low[-1]) + (float(sf[-1]) if mask.all() else 0.0)
    res = lam0 * phi[ks + 1] - ks * phi[ks] - (mask.astype(float) - p_a)
    residual = float(np.max(np.abs(res)))
    if residual > 1e-12:
        raise RuntimeError(f"Stein recursion residual {residual} exceeds 1e-12")
    return SteinSolution(lam0=lam0, a_mask=mask, phi=phi, k_max=k_max, residual=residual)


# -- compound Poisson target -----------------------------------------------------------

def compound_pmf(lam0: float, mark_pmf: np.ndarray, length: int) -> np.ndarray:
    """Panjer recursion for the compound Poisson law on 0..length-1;
    mark_pmf[k-1] = P(V = k)."""
    p = np.zeros(length)
    p[0] = math.exp(-lam0)
    kmax = len(mark_pmf)
    weighted = np.arange(1, kmax + 1) * mark_pmf
    for s in range(1, length):
        width = min(s, kmax)
        p[s] = lam0 * float(np.dot(weighted[:width], p[s - 1 :: -1][:width])) / s
    return p


@dataclass
class CompoundTarget:
    """Compound Poisson law PC(lam0, gV) with a positive-integer mark pmf."""

    lam0: float
    mark_pmf: np.ndarray         # P(V = k) for k = 1..len(mark_pmf)
    pmf: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.lam0 <= 0:
            raise ValueError(f"lam0 must be positive, got {self.lam0}")
        if math.exp(-self.lam0) < np.finfo(float).tiny:
            raise ValueError(f"lam0 = {self.lam0:g} is too large: e^-lam0 is below the smallest normal float")
        self.mark_pmf = np.asarray(self.mark_pmf, dtype=float)
        if np.any(self.mark_pmf < 0):
            raise ValueError("mark pmf entries must be nonnegative")
        total = float(self.mark_pmf.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mark pmf must sum to 1, got {total!r}")
        # a defective mark law caps the compound mass at exp(-lam0 (1 - total))
        if -math.expm1(-self.lam0 * (1.0 - total)) > TAIL_TOL:
            raise ValueError(f"mark pmf misses {1.0 - total:.3g}, beyond the tail tolerance {TAIL_TOL:g}")
        length = max(64, int(8 * self.lam0 * self.mean_mark) + 64)
        while True:
            pmf = compound_pmf(self.lam0, self.mark_pmf, length)
            if 1.0 - pmf.sum() <= TAIL_TOL:
                break
            length *= 2
            if length > MAX_PMF_LENGTH:
                raise ValueError("compound pmf support too large for the tail tolerance")
        self.pmf = pmf

    @property
    def mean_mark(self) -> float:
        return float(np.dot(np.arange(1, len(self.mark_pmf) + 1), self.mark_pmf))

    @property
    def d_pc(self) -> float:
        """Sup-norm estimate for the compound Stein solutions."""
        g1 = float(self.mark_pmf[0])
        lead = 1.0 if g1 == 0.0 else min(1.0, 1.0 / (self.lam0 * g1))
        return lead * math.exp(self.lam0)

    def prob_of(self, mask: np.ndarray) -> float:
        width = min(len(mask), len(self.pmf))
        return float(self.pmf[:width][mask[:width]].sum())

    @classmethod
    def polya_aeppli(cls, lam0: float, alpha: float) -> "CompoundTarget":
        """Poisson(lam0) compounded by geometric(1-alpha) marks, truncated to
        the first c marks with alpha^c <= GEOMETRIC_TAIL (c = 1 at alpha = 0)."""
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
        marks = 1 if alpha == 0.0 else math.ceil(math.log(GEOMETRIC_TAIL) / math.log(alpha))
        if marks > MAX_GEOMETRIC_MARKS:
            limit = GEOMETRIC_TAIL ** (1 / MAX_GEOMETRIC_MARKS)
            raise ValueError(f"need at most {MAX_GEOMETRIC_MARKS} geometric marks, got {marks} at "
                             f"alpha={alpha} (the truncation allows alpha <= {limit:.5f})")
        return cls(lam0=lam0, mark_pmf=(1.0 - alpha) * alpha ** np.arange(marks))


def compound_stein_solve(target: CompoundTarget, A: Iterable[int] | np.ndarray,
                         l_max: int | None = None) -> tuple[np.ndarray, float]:
    """Solve the compound Stein equation for l = 1..l_max.

    Back substitution runs on 1..l_max+SOLVE_EXTENSION with zero tail, so the
    truncation error has decayed below rounding inside the reported
    window; returns (psi(0..l_max) with psi(0) = 0, max residual).
    """
    l_max = default_k_max(target.lam0 * target.mean_mark) if l_max is None else int(l_max)
    mask = _as_mask(A, l_max)
    p_a = target.prob_of(mask)
    kmax = len(target.mark_pmf)
    weighted = np.arange(1, kmax + 1) * target.mark_pmf
    total = l_max + SOLVE_EXTENSION
    psi = np.zeros(total + kmax + 2)
    conv = np.zeros(total + 1)  # conv[l]: the sum psi[l] is solved from, kept for the residual
    for l in range(total, 0, -1):
        h = (1.0 if l <= l_max and mask[l] else 0.0) - p_a
        conv[l] = np.dot(weighted, psi[l + 1 : l + 1 + kmax])
        psi[l] = (target.lam0 * conv[l] - h) / l
    ls = np.arange(1, l_max + 1)
    res = target.lam0 * conv[1 : l_max + 1] - ls * psi[1 : l_max + 1] - (mask[1:].astype(float) - p_a)
    return psi[: l_max + 1].copy(), float(np.max(np.abs(res)))


# -- exact total variation -------------------------------------------------------------

def exact_tv(pmf_a: Sequence[float], pmf_b: Sequence[float]) -> float:
    """Total variation distance 0.5 * sum |a - b| with tail mass folded in."""
    a = np.asarray(pmf_a, dtype=float)
    b = np.asarray(pmf_b, dtype=float)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("pmf tables must be nonnegative")
    width = max(len(a), len(b))
    a = np.pad(a, (0, width - len(a)))
    b = np.pad(b, (0, width - len(b)))
    tail_a = 1.0 - a.sum()
    tail_b = 1.0 - b.sum()
    return 0.5 * (float(np.abs(a - b).sum()) + abs(tail_a - tail_b))


def functional_pmf(F: PathFunctional) -> np.ndarray:
    """Law of a Z+-valued exact functional as a pmf table."""
    from .space import probability_table

    vals = F.table()
    rounded = np.rint(vals)
    if np.max(np.abs(vals - rounded)) > Z_PLUS_TOL or np.min(rounded) < 0:
        raise ValueError("functional is not Z+-valued")
    return np.bincount(rounded.astype(int), weights=probability_table(F.params))


# -- Poisson approximation bound ---------------------------------------------------------

def poisson_bound(F: PathFunctional, lam0: float) -> float:
    """Exact evaluation of the Poisson-approximation bound for a simple
    binomial functional: with G = L^{-1}(F - E F),

        (1-e^-lam0)/lam0 * E| lam0 - <Dtilde F, -D G>_nu |
      + (1-e^-lam0)/lam0 * E[ sum_t nu_t |Dtilde_t F (Dtilde_t F - 1)| |D_t G| ].

    The first coefficient is sup|grad phi|; the second is half of
    sup|grad^2 phi| (see stein_constants), from the second-order Taylor
    remainder of phi along the add-one step.
    """
    from .malliavin import gradient, l_inverse, tilde_grad
    from .space import PathFunctional, space

    params = F.params
    if params.n_marks != 1:
        raise ValueError(f"mark-space size must be 1, got {params.n_marks}")
    if lam0 <= 0:
        raise ValueError(f"lam0 must be positive, got {lam0}")
    functional_pmf(F)  # raises unless F is Z+-valued
    sp = space(params)
    vals = F.table()
    mean = sp.expectation(vals)
    if abs(mean - lam0) > 1e-9:
        raise ValueError(f"mean mismatch: E[F]={mean!r} but lam0={lam0!r}")
    k = params.marks[0]
    nu_t = params.jump_prob
    G = l_inverse(PathFunctional(params, values=vals - mean))
    inner = np.zeros(sp.n)
    second = np.zeros(sp.n)
    for t in range(1, params.horizon + 1):
        d_tilde = tilde_grad(F, (t, k)).table()
        minus_dg = -gradient(G, (t, k)).table()
        inner += nu_t * d_tilde * minus_dg
        second += nu_t * np.abs(d_tilde * (d_tilde - 1.0)) * np.abs(minus_dg)
    _, grad_sup, grad2_sup = stein_constants(lam0)
    return grad_sup * sp.expectation(np.abs(lam0 - inner)) + 0.5 * grad2_sup * sp.expectation(second)


# -- compound Poisson approximation bound --------------------------------------------------

def default_set_family(length: int, extra_diff: tuple[np.ndarray, np.ndarray]) -> list[np.ndarray]:
    """Singletons, lower intervals, and the positive-part set of the pmf
    difference extra_diff = (a, b), as boolean masks over 0..length-1."""
    family = []
    for j in range(length):
        single = np.zeros(length, dtype=bool)
        single[j] = True
        family.append(single)
        lower = np.zeros(length, dtype=bool)
        lower[: j + 1] = True
        family.append(lower)
    a, b = extra_diff
    width = min(len(a), len(b), length)
    diff = np.zeros(length, dtype=bool)
    diff[:width] = a[:width] > b[:width]
    family.append(diff)
    return family


def _first_chaos_step_law(F: PathFunctional) -> ModelParams:
    """Validate F = sum_j V_j dN_j on its space and return the params."""
    from .malliavin import add_one_cost

    params = F.params
    marks_rounded = [round(k) for k in params.marks]
    if any(abs(k - r) > 1e-12 or r < 1 for k, r in zip(params.marks, marks_rounded)):
        raise ValueError("unsupported functional form: marks must be positive integers")
    vals = F.table()
    if abs(vals[0]) > 1e-9:
        raise ValueError("unsupported functional form: F(no jumps) must be 0")
    for t in range(1, params.horizon + 1):
        for k in params.marks:
            d = add_one_cost(F, (t, k)).table()
            if np.max(np.abs(d - k)) > 1e-9:
                raise ValueError(
                    "unsupported functional form: add-one cost is not the mark value "
                    "(F must be a first-chaos compound sum)"
                )
    return params


def compound_poisson_bound(F: PathFunctional | ModelParams, target: CompoundTarget,
                           a_family: list[np.ndarray] | None = None) -> float:
    bound, _ = compound_poisson_bound_details(F, target, a_family)
    return bound


def compound_poisson_bound_details(F: PathFunctional | ModelParams, target: CompoundTarget,
                                   a_family: list[np.ndarray] | None = None) -> tuple[float, np.ndarray]:
    """Bound for the compound sum against PC(lam0, gV): supremum over the
    set family of the two exactly evaluated integral terms of the Stein
    identity.  Returns (bound, attaining set mask).

    Accepts either an exact first-chaos functional or bare ModelParams
    describing the compound sum.  Either way the terms are evaluated
    through iid convolutions of the one-step law; a functional is only
    checked, by enumeration, to be such a compound sum.
    """
    from .space import PathFunctional

    if isinstance(F, PathFunctional):
        params = _first_chaos_step_law(F)
    else:
        params = F
    lam = params.jump_prob
    marks = [int(round(k)) for k in params.marks]
    if any(k < 1 for k in marks):
        raise ValueError("unsupported functional form: marks must be positive integers")
    q = np.asarray(params.mark_probs)
    mean_f = lam * params.horizon * float(np.dot(marks, q))
    if abs(mean_f - target.lam0 * target.mean_mark) > 1e-9:
        raise ValueError(
            f"mean mismatch: E[F]={mean_f!r} but lam0*E[V]={target.lam0 * target.mean_mark!r}"
        )
    kmax = max(marks)
    # per-step law of one summand
    step = np.zeros(kmax + 1)
    step[0] = 1.0 - lam
    for k, qk in zip(marks, q):
        step[k] += lam * qk
    pmf_drop = np.array([1.0])
    for _ in range(params.horizon - 1):
        pmf_drop = np.convolve(pmf_drop, step)
    pmf_full = np.convolve(pmf_drop, step)
    l_max = len(pmf_full) + kmax + 8
    family = a_family if a_family is not None else default_set_family(
        min(l_max, len(target.pmf)), extra_diff=(pmf_full, target.pmf)
    )
    # second term of the bound: integrand D+F - k vanishes identically for
    # a first-chaos compound sum
    best = -1.0
    best_mask = None
    for mask in family:
        psi, _ = compound_stein_solve(target, np.asarray(mask, dtype=bool), l_max)
        psi_pad = np.concatenate([psi, np.zeros(kmax + 1)])
        term1 = 0.0
        for k, qk in zip(marks, q):
            # E[psi(S_{T-1} + k)] - E[psi(S_T + k)], T-1 vs T fold convolutions
            e_drop = float(np.dot(pmf_drop, psi_pad[k : k + len(pmf_drop)]))
            e_full = float(np.dot(pmf_full, psi_pad[k : k + len(pmf_full)]))
            term1 += lam * qk * k * (e_drop - e_full)
        term1 *= params.horizon
        if abs(term1) > best:
            best = abs(term1)
            best_mask = mask
    return best, best_mask


# -- head run application -------------------------------------------------------------------

def head_run_params(n: int, m: int, p: float, rng_seed: int = 0) -> ModelParams:
    """Simple binomial space of length n+m-1 with jump probability p."""
    from .space import ModelParams

    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return ModelParams(horizon=n + m - 1, marks=(1.0,), jump_prob=p, mark_probs=(1.0,), rng_seed=rng_seed)


def head_run_lambda0(n: int, m: int, p: float) -> float:
    return p**m * ((n - 1) * (1.0 - p) + 1.0)


def _head_run_values(digits: np.ndarray, n: int, m: int) -> np.ndarray:
    jumps = digits > 0  # bool windows: no float table of the digits
    u = jumps[..., :m].all(axis=-1).astype(float)
    for i in range(1, n):
        u += ~jumps[..., i - 1] & jumps[..., i : i + m].all(axis=-1)
    return u


def head_run_functional(n: int, m: int, p: float, rng_seed: int = 0) -> PathFunctional:
    """Number of clumps of success runs of length >= m starting in the
    first n tosses, as an exact table.  Past the enumeration cap it raises
    the cap's ValueError, as every exact builder does; Monte Carlo
    (``space.mc_expectation`` on ``head_run_params(n, m, p)``) samples the
    count from batches of digit rows instead."""
    from .space import PathFunctional, space

    params = head_run_params(n, m, p, rng_seed)
    return PathFunctional(params, values=_head_run_values(space(params).digits, n, m))


def _head_run_b1(n: int, m: int, p: float) -> float:
    """sum over clump starts i and j with |i - j| <= m of P(I_i) P(I_j).

    Start 0 has probability p^m and starts 1..n-1 have q p^m, so the sum is
    p^{2m} [1 + 2 min(m, n-1) q + ((n-1) + 2 sum_{d=1..m} max(0, n-1-d)) q^2]:
    the start-0 diagonal, the pairs of start 0 with starts 1..min(m, n-1),
    and the pairs of later starts at distance d = 0..m (n-1-d of them).
    """
    q = 1.0 - p
    later_pairs = (n - 1) + 2 * sum(max(0, n - 1 - d) for d in range(1, m + 1))
    return p ** (2 * m) * (1.0 + 2 * min(m, n - 1) * q + later_pairs * q * q)


def head_run_variance_identity(n: int, m: int, p: float) -> float:
    """Closed-form variance of the clump count, Var U = lam0 - b1.

    Write U = sum_i I_i over the clump starts i = 0..n-1.  Two starts
    with 0 < |i - j| <= m are mutually exclusive (the later one needs a
    failure where the earlier run needs a success), so
    Cov(I_i, I_j) = -P(I_i) P(I_j); starts further apart read disjoint
    tosses and are independent.  With Var I_i = P(I_i) - P(I_i)^2 this
    leaves Var U = lam0 - b1, b1 as in _head_run_b1 (0.578125 at
    n=10, m=2, p=0.5, as exhaustive enumeration gives).
    """
    return head_run_lambda0(n, m, p) - _head_run_b1(n, m, p)


def head_run_bound(n: int, m: int, p: float) -> float:
    """Closed-form Poisson-approximation bound for the clump count,
    d_TV(U, Poi(lam0)) <= (1-e^-lam0)/lam0 * b1.

    This is the local-dependence Chen-Stein bound (Arratia, Goldstein &
    Gordon 1989; Barbour, Holst & Janson, Thm 1.A) with neighbourhoods
    |i - j| <= m: b2 = 0 because neighbouring clump starts are mutually
    exclusive, and b3 = 0 because starts further apart are independent.
    Equality holds at n = 1 (a single Bernoulli start).
    """
    lam0 = head_run_lambda0(n, m, p)
    return (1.0 - math.exp(-lam0)) / lam0 * _head_run_b1(n, m, p)


# -- DNA word count application ----------------------------------------------------------------

def dna_lambda0(n: int, h: int, alpha: float, mu_w: float) -> float:
    return (n - h + 1) * (1.0 - alpha) * mu_w


def _check_dna_args(n: int, h: int, alpha: float, mu_w: float):
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if not 0.0 < mu_w < 1.0:
        raise ValueError(f"mu_w must lie in (0, 1), got {mu_w}")
    if not 0 < h < n:
        raise ValueError(f"need 0 < h < n, got h={h}, n={n}")


def dna_functional(n: int, h: int, alpha: float, mu_w: float) -> np.ndarray:
    """Exact pmf of the geometric-marked occurrence count H, with no mark truncation.  H sums
    K ~ Binomial(N, lam') geometric(1-alpha) marks, N = n-h+1 and lam' = (1-alpha) mu_w, so
    pmf(x) = sum_k P(K = k) nb_k(x): nb_0 = delta_0, nb_k(x) = alpha nb_k(x-1) + (1-alpha) nb_{k-1}(x-1).
    Each table stops where a ratio bound puts the mass it leaves out below GEOMETRIC_TAIL."""
    _check_dna_args(n, h, alpha, mu_w)
    big_n, lamp = n - h + 1, (1.0 - alpha) * mu_w
    weights = [math.exp(big_n * math.log1p(-lamp))]
    if weights[0] < np.finfo(float).tiny:
        raise ValueError(f"P(K = 0) = (1-lam')^N is below the smallest normal float at N={big_n}")
    for k in range(big_n):
        ratio = (big_n - k) / (k + 1) * lamp / (1.0 - lamp)  # P(K = k+1) / P(K = k), falling in k
        if ratio < 1.0 and weights[k] * ratio < GEOMETRIC_TAIL * (1.0 - ratio):
            break
        weights.append(weights[k] * ratio)
    w = np.array(weights)
    k_max = len(w) - 1
    if (k_max - math.log(GEOMETRIC_TAIL)) / (1.0 - alpha) > MAX_PMF_LENGTH:  # about its length
        raise ValueError(f"exact pmf longer than {MAX_PMF_LENGTH} entries at N={big_n}, alpha={alpha}")
    nb, pmf = np.concatenate(([1.0], np.zeros(k_max))), []
    for x in range(MAX_PMF_LENGTH):
        pmf.append(float(w @ nb))
        # nb_k(x+1) / nb_k(x) = alpha x / (x-k+1) falls in x; rest > 0 needs x >= k_max and puts it below 1
        rest = x - k_max + 1 - alpha * x
        if rest > 0.0 and pmf[-1] * alpha * x < GEOMETRIC_TAIL * rest:
            return np.array(pmf)
        nb = np.concatenate(([0.0], alpha * nb[1:] + (1.0 - alpha) * nb[:-1]))  # nb_0 is 0 past x = 0
    raise ValueError(f"exact pmf longer than {MAX_PMF_LENGTH} entries at N={big_n}, alpha={alpha}")


def dna_target(n: int, h: int, alpha: float, mu_w: float) -> CompoundTarget:
    """Polya-Aeppli law matched to the occurrence count."""
    _check_dna_args(n, h, alpha, mu_w)
    return CompoundTarget.polya_aeppli(dna_lambda0(n, h, alpha, mu_w), alpha)


def dna_bound(n: int, h: int, alpha: float, mu_w: float) -> float:
    """2 h mu(W) declumping term plus (n-h+1) d_PC mu(W)^2."""
    target = dna_target(n, h, alpha, mu_w)
    return 2.0 * h * mu_w + (n - h + 1) * target.d_pc * mu_w**2
