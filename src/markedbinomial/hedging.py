"""Quadratic hedging in the two-asset ternary market.

The risky asset jumps up by factor 1+b (mark +1), down by 1+a (mark -1)
or stays put, driven by a marked binomial process with mark space
{1, -1}; the riskless asset grows by 1+r per step (-1 < a < r < b).
Discounted prices S~_t = S_t / (1+r)^t satisfy

    dS~_t = S~_{t-1} (eta_t dN_t - r) / (1+r),

which is a martingale exactly when lambda (b p + a q) = r.  The market
is incomplete: a claim F is approximated by a self-financed predictable
strategy minimizing E[(F - x - sum_t phi_t dS~_t)^2].

All conditional moments are computed exactly on the enumerated tree, so
the minimal martingale measure really turns dS~ into a martingale
tablewise, the value-process decomposition really is orthogonal, and the
recursive optimal strategy can be confronted with an independent
normal-equations oracle that solves the same least-squares problem over
every predictable strategy at once.

The recursions run on the scenario tree, not on dense tables.  An
F_t-measurable rank-indexed table is fixed by its first 3^t entries, its
prefix, because the F_t atom of rank omega is omega mod 3^t.  Step t
reads a prefix as the (3, 3^(t-1)) grid ``prefix.reshape(3, -1)``, whose
entry [d, c] is digit t = d on the F_{t-1} atom c: a backward step maps
3^t entries to 3^(t-1), a forward step 3^(t-1) to 3^t.  Dense tables are
returned step-major, as a (T, n) array seen through ``.T``, so column t
is contiguous and its first 3^t entries are the prefix again.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .space import ModelParams, PathFunctional, space


@dataclass(frozen=True)
class MarketParams:
    """Ternary market description; -1 < a < r < b and lambda, p in (0, 1)."""

    a: float
    b: float
    r: float
    jump_prob: float
    up_prob: float
    horizon: int
    initial_capital: float = 0.0
    a0: float = 1.0

    def __post_init__(self):
        for name in ("a", "b", "r", "jump_prob", "up_prob", "horizon", "initial_capital", "a0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not -1.0 < self.a < self.r < self.b:
            raise ValueError(
                f"need -1 < a < r < b, got a={self.a}, r={self.r}, b={self.b}"
            )
        if not 0.0 < self.jump_prob < 1.0:
            raise ValueError(f"jump_prob must lie in (0, 1), got {self.jump_prob}")
        if not 0.0 < self.up_prob < 1.0:
            raise ValueError(f"up_prob must lie in (0, 1), got {self.up_prob}")
        if self.initial_capital < 0.0:
            raise ValueError(f"initial capital must be >= 0, got {self.initial_capital}")
        if self.a0 <= 0.0:
            raise ValueError(f"a0 must be positive, got {self.a0}")
        if int(self.horizon) != self.horizon or self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon}")
        object.__setattr__(self, "horizon", int(self.horizon))

    @property
    def down_prob(self) -> float:
        return 1.0 - self.up_prob

    @property
    def rho(self) -> float:
        """lambda q / (1 - lambda p), the Gram-Schmidt mixing weight."""
        lam, p = self.jump_prob, self.up_prob
        return lam * (1.0 - p) / (1.0 - lam * p)

    @property
    def drift_gap(self) -> float:
        """lambda (b p + a q) - r; zero exactly for martingale parameters."""
        lam, p, q = self.jump_prob, self.up_prob, self.down_prob
        return lam * (self.b * p + self.a * q) - self.r

    def model_params(self) -> ModelParams:
        """Underlying marked binomial model: marks (+1, -1), Q = (p, q)."""
        return ModelParams(
            horizon=self.horizon,
            marks=(1.0, -1.0),
            jump_prob=self.jump_prob,
            mark_probs=(self.up_prob, self.down_prob),
        )


@dataclass
class PricePaths:
    """Exact price tables per configuration (columns t = 0..T), step-major."""

    market: MarketParams
    riskless: np.ndarray          # A_t, shape (T+1,)
    price: np.ndarray             # S_t, shape (n, T+1)
    discounted: np.ndarray        # S~_t = S_t / (1+r)^t
    increments: np.ndarray        # dS~_t, shape (n, T)


@lru_cache(maxsize=64)
def price_paths(market: MarketParams) -> PricePaths:
    """Cached per market; the returned tables are shared and read-only.

    S_t is built step by step on prefixes, S_t[d, c] = factor(d) S_{t-1}[c],
    the same products in the same order as a cumulative product over the
    digits."""
    params = market.model_params()
    sp = space(params)
    smallest = float(sp.probabilities.min())
    if smallest < np.finfo(float).tiny:
        raise ValueError(
            f"smallest configuration probability {smallest:.3e} is below the smallest normal float"
        )
    T = market.horizon
    factor_of_digit = np.array([1.0, 1.0 + market.b, 1.0 + market.a])
    disc = (1.0 + market.r) ** np.arange(T + 1)
    price, discounted = np.empty((T + 1, sp.n)), np.empty((T + 1, sp.n))
    increments = np.empty((T, sp.n))
    price[0] = discounted[0] = 1.0
    for t in range(1, T + 1):
        atoms = 3 ** (t - 1)
        s_t = np.multiply.outer(factor_of_digit, price[t - 1, :atoms])
        d_t = s_t / disc[t]
        for table, prefix in ((price[t], s_t), (discounted[t], d_t),
                              (increments[t - 1], d_t - discounted[t - 1, :atoms])):
            table.reshape(-1, 3 * atoms)[:] = prefix.ravel()
    paths = PricePaths(
        market=market,
        riskless=market.a0 * disc,
        price=price.T,
        discounted=discounted.T,
        increments=increments.T,
    )
    for arr in (paths.riskless, paths.price, paths.discounted, paths.increments):
        arr.flags.writeable = False
    return paths


def martingale_diagnostics(market: MarketParams) -> tuple[float, np.ndarray]:
    """(drift gap, mean-variance tradeoff table K_0..K_T).

    Per step K grows by E[dS~ | F]^2 / Var[dS~ | F] = gap^2 / Var(eta dN):
    the one-step return is b with probability lambda p, a with lambda q and
    0 otherwise, so Var(eta dN) = lambda p (1-lambda p) b^2
    + lambda q (1-lambda q) a^2 - 2 lambda^2 p q a b, the last term the
    covariance of the mutually exclusive up and down jumps.  K is linear in
    t and deterministic.
    """
    lam, p, q = market.jump_prob, market.up_prob, market.down_prob
    a, b = market.a, market.b
    gap = market.drift_gap
    denom = lam * p * (1.0 - lam * p) * b**2 + lam * q * (1.0 - lam * q) * a**2 - 2.0 * lam**2 * p * q * a * b
    per_step = gap**2 / denom
    return gap, per_step * np.arange(market.horizon + 1, dtype=float)


def _step_mean(weights: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """E[X | F_{t-1}] on the 3^(t-1) atoms for X given on its (3, 3^(t-1))
    prefix grid; ``weights`` are the one-step digit weights."""
    return weights @ grid / weights.sum()


def _dense(prefixes: list[np.ndarray], n: int) -> np.ndarray:
    """Dense (n, len(prefixes)) table whose column j repeats prefixes[j],
    stored step-major as (len(prefixes), n); each row is one broadcast write."""
    table = np.empty((len(prefixes), n))
    for row, prefix in zip(table, prefixes):
        row.reshape(-1, prefix.size)[:] = prefix.ravel()
    return table.T


@dataclass
class MinimalMartingaleMeasure:
    """Exact minimal-martingale reweighting of the tree (step-major tables)."""

    market: MarketParams
    theta: np.ndarray             # shape (n, T): predictable tables
    factors: np.ndarray           # per-step density factors rho_t, shape (n, T)
    density: np.ndarray           # dP^ / dP, shape (n,)
    signed: bool                  # True if the density takes nonpositive values


@lru_cache(maxsize=64)
def minimal_martingale_measure(market: MarketParams) -> MinimalMartingaleMeasure:
    """theta_t = E[dS~_t | F_{t-1}] / E[(dS~_t)^2 | F_{t-1}] and the product
    density prod (1 - theta dS~) / (1 - theta E[dS~ | F_{t-1}]); under it
    discounted prices are a martingale tablewise."""
    sp = space(market.model_params())
    paths = price_paths(market)
    weights = sp.step_weights
    thetas, factors = [], []
    density = np.ones(1)
    for t in range(1, market.horizon + 1):
        inc = paths.increments[: 3**t, t - 1].reshape(3, -1)
        e1 = _step_mean(weights, inc)
        theta = e1 / _step_mean(weights, inc * inc)
        factor = (1.0 - theta * inc) / (1.0 - theta * e1)
        density = (density * factor).ravel()
        thetas.append(theta)
        factors.append(factor)
    signed = bool(np.any(density <= 0.0))
    if signed:
        warnings.warn("minimal martingale measure is signed for these parameters")
    return MinimalMartingaleMeasure(market, _dense(thetas, sp.n), _dense(factors, sp.n), density, signed)


def _value_prefixes(market: MarketParams, mmm: MinimalMartingaleMeasure,
                    values: np.ndarray) -> list[np.ndarray]:
    """The prefixes of E^[values | F_t], t = 0..T (3^t entries each), by
    backward induction on the density factors."""
    weights = space(market.model_params()).step_weights
    T = market.horizon
    prefixes = [None] * T + [np.asarray(values, dtype=float)]
    for t in range(T, 0, -1):
        weighted = mmm.factors[: 3**t, t - 1].reshape(3, -1) * prefixes[t].reshape(3, -1)
        prefixes[t - 1] = _step_mean(weights, weighted)
    return prefixes


def mmm_conditional(market: MarketParams, mmm: MinimalMartingaleMeasure,
                    values: np.ndarray) -> list[np.ndarray]:
    """E^[values | F_t] for t = 0..T by backward induction on the density
    factors (exact, works for signed measures)."""
    return list(_dense(_value_prefixes(market, mmm, values), np.size(values)).T)


@dataclass
class Strategy:
    """Predictable risky quotas phi_t (one value per F_{t-1} atom, stored
    as step-major dense tables) and the self-financed riskless quotas alpha_t."""

    market: MarketParams
    phi: np.ndarray               # shape (n, T)
    alpha: np.ndarray             # shape (n, T+1); alpha[:, 0] constant

    def phi_by_atom(self, t: int) -> np.ndarray:
        """The 3^(t-1) distinct values of phi_t (atom order)."""
        return self.phi[: 3 ** (t - 1), t - 1].copy()

    def self_financing_residual(self) -> float:
        """Max violation of A_t (alpha_{t+1}-alpha_t) + S_t (phi_{t+1}-phi_t) = 0
        over t = 0..T-1 and every configuration, with the convention
        phi_0 = phi_1; NaN if any entry is NaN."""
        paths = price_paths(self.market)
        worst = []
        for t in range(0, self.market.horizon):
            phi_next = self.phi[:, t]
            phi_cur = self.phi[:, t - 1] if t >= 1 else self.phi[:, 0]
            lhs = paths.riskless[t] * (self.alpha[:, t + 1] - self.alpha[:, t]) \
                + paths.price[:, t] * (phi_next - phi_cur)
            worst.append(np.max(np.abs(lhs)))
        return float(np.max(worst))  # np.max, unlike max(), propagates NaN


def _self_financed_alpha(market: MarketParams, phi: np.ndarray, alpha0: float) -> np.ndarray:
    """alpha_t = alpha_{t-1} - (phi_t - phi_{t-1}) S_{t-1} / A_{t-1}
    (phi_0 := phi_1), which makes the book-balance identity hold for any a0.
    alpha_t is F_{t-1}-measurable, so step t computes the first 3^(t-1)
    entries of its step-major column from those of the columns before."""
    paths = price_paths(market)
    T = market.horizon
    alpha = np.empty((T + 1, phi.shape[0]))
    alpha[0] = alpha0
    for t in range(1, T + 1):
        atoms = 3 ** (t - 1)
        ratio = paths.price[:atoms, t - 1] / paths.riskless[t - 1]
        step = (phi[:atoms, t - 1] - phi[:atoms, max(t - 2, 0)]) * ratio
        alpha[t].reshape(-1, atoms)[:] = alpha[t - 1, :atoms] - step
    return alpha.T


@dataclass
class KWDecomposition:
    """F = F0 + sum_t xi_t dS~_t + L_T with L a martingale orthogonal to
    the discounted price increments."""

    market: MarketParams
    f0: float
    xi: np.ndarray                # shape (n, T), predictable
    l_process: np.ndarray         # shape (n, T+1), L_0 = 0
    value: list[np.ndarray]       # V_t = E^[F | F_t] for t = 0..T, each shape (n,)


def _kw_prefixes(market: MarketParams, F: PathFunctional) -> tuple[list, list, list]:
    """The prefixes of V_t (3^t entries), xi_t (3^(t-1)) and L_t (3^t)."""
    paths = price_paths(market)
    weights = space(market.model_params()).step_weights
    value = _value_prefixes(market, minimal_martingale_measure(market), F.table())
    xis, ls = [], [np.zeros(1)]
    for t in range(1, market.horizon + 1):
        inc = paths.increments[: 3**t, t - 1].reshape(3, -1)
        dv = value[t].reshape(3, -1) - value[t - 1]
        xi = _step_mean(weights, dv * inc) / _step_mean(weights, inc * inc)
        ls.append((ls[-1] + dv - xi * inc).ravel())
        xis.append(xi)
    return value, xis, ls


def kunita_watanabe(market: MarketParams, F: PathFunctional) -> KWDecomposition:
    """Projection construction through the minimal martingale measure:
    V_t = E^[F | F_t], xi_t = E[dV_t dS~_t | F_{t-1}] / E[(dS~_t)^2 | F_{t-1}],
    L_t = V_t - V_0 - sum_{s<=t} xi_s dS~_s."""
    n = space(market.model_params()).n
    value, xis, ls = _kw_prefixes(market, F)
    return KWDecomposition(market, float(value[0][0]), _dense(xis, n), _dense(ls, n),
                           list(_dense(value, n).T))


def _forward_gain(market: MarketParams, value: list[np.ndarray], xi: list[np.ndarray],
                  x: float, lag: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Discounted gain G_T of phi_t = xi_t + theta_t (V_{t-lag} - x - G_{t-1})
    from the prefixes of V and xi, and the prefixes of phi_t: 3^(t-1)
    entries for lag 1, 3^t for lag 0."""
    paths = price_paths(market)
    theta = minimal_martingale_measure(market).theta
    gain = np.zeros(1)
    phis = []
    for t in range(1, market.horizon + 1):
        atoms = 3 ** (t - 1)
        phi_t = xi[t - 1] + theta[:atoms, t - 1] * (value[t - lag].reshape(-1, atoms) - x - gain)
        gain = (gain + phi_t * paths.increments[: 3**t, t - 1].reshape(3, -1)).ravel()
        phis.append(phi_t)
    return gain, phis


def optimal_strategy(market: MarketParams, F: PathFunctional,
                     x: float | None = None) -> tuple[Strategy, float]:
    """Quadratic-loss minimizing self-financed strategy for the claim F.

    Forward recursion on top of the value-process decomposition:

        phi*_t = xi_t + theta_t (E^[F | F_{t-1}] - x - G_{t-1}(phi*)),

    with G the running discounted gain; the conditioning at t-1 keeps the
    strategy predictable.  The residual risk E[(F - x - G_T)^2] matches
    the normal-equations oracle (mean-variance tradeoff is deterministic).
    """
    x = market.initial_capital if x is None else float(x)
    sp = space(market.model_params())
    value, xi, _ = _kw_prefixes(market, F)
    gain, phis = _forward_gain(market, value, xi, x, 1)
    residual = float(sp.expectation((F.table() - x - gain) ** 2))
    phi = _dense(phis, sp.n)
    alpha0 = float(value[0][0]) / float(price_paths(market).price[0, 0])
    return Strategy(market, phi, _self_financed_alpha(market, phi, alpha0)), residual


def optimal_strategy_t_conditioning(market: MarketParams, F: PathFunctional,
                                    x: float | None = None) -> float:
    """Residual of the variant that conditions the correction term on F_t
    (not predictable; reported for comparison only)."""
    x = market.initial_capital if x is None else float(x)
    value, xi, _ = _kw_prefixes(market, F)
    gain, _ = _forward_gain(market, value, xi, x, 0)
    return float(space(market.model_params()).expectation((F.table() - x - gain) ** 2))


LS_ORACLE_MAX_HORIZON = 11


def ls_oracle(market: MarketParams, F: PathFunctional,
              x: float | None = None) -> tuple[Strategy, float]:
    """Independent least-squares oracle: one unknown per (t, F_{t-1} atom),
    solved by orthogonal elimination in scenario-tree order.

    Unknown (s, b), b = rank mod 3^(s-1), has the design column X_s 1_b with
    X_s = sqrt(p) dS~_s, and couples only with the atoms above and below b
    in the tree (the ancestor of b at step t is b mod 3^(t-1)).  Step T is
    eliminated first, then T-1, ...: on every F_{s-1} atom the columns of
    the earlier steps and the weighted target are projected off X_s
    (modified Gram-Schmidt).  This is the square-root form of eliminating
    the normal equations in the same order: no fill-in arises, and each
    pivot is a sum of squares.  Eliminating the normal matrix itself forms
    each pivot as a difference of moments, which cancels to rounding noise
    in near-arbitrage markets.  The projection coefficients R_s[t-1, b],
    t < s, are the tree-shaped factor; back substitution from the root
    gives phi.  A pivot at or below (T eps)^2 of its own diagonal
    E[1_b dS~_s^2], the level rounding leaves in a projected column, raises
    ValueError.
    """
    x = market.initial_capital if x is None else float(x)
    if market.horizon > LS_ORACLE_MAX_HORIZON:
        raise ValueError(
            f"ls_oracle caps the horizon at {LS_ORACLE_MAX_HORIZON}, got {market.horizon}"
        )
    sp = space(market.model_params())
    inc = price_paths(market).increments
    T, base = market.horizon, sp.base
    target = F.table() - x
    root = np.sqrt(sp.probabilities)
    columns = np.multiply(inc.T, root, order="C")  # row s-1 holds X_s
    residual_column = target * root
    floor = (T * np.finfo(float).eps) ** 2
    factor, rhs = [None] * T, [None] * T
    for s in range(T, 0, -1):
        atoms = base ** (s - 1)
        xs = columns[s - 1].reshape(-1, atoms)
        pivot = (xs * xs).sum(axis=0)
        diagonal = (sp.probabilities * inc[:, s - 1] ** 2).reshape(-1, atoms).sum(axis=0)
        bad = np.flatnonzero(~(pivot > floor * diagonal))
        if bad.size:
            b = int(bad[0])
            raise ValueError(
                f"singular normal matrix: pivot {pivot[b]:.3e} of step {s}, atom {b} "
                f"is at the rounding level of its diagonal {diagonal[b]:.3e}"
            )
        factor[s - 1] = np.empty((s - 1, atoms))
        for t in range(1, s):
            xt = columns[t - 1].reshape(-1, atoms)
            factor[s - 1][t - 1] = coef = (xt * xs).sum(axis=0) / pivot
            xt -= coef * xs
        ys = residual_column.reshape(-1, atoms)
        rhs[s - 1] = coef = (ys * xs).sum(axis=0) / pivot
        ys -= coef * xs
    # back substitution from the root: phi_s = r_s - sum_{t<s} R_s[t-1] phi_t[ancestor]
    phi = np.empty((T, sp.n))  # step-major: row s-1 repeats its first 3^(s-1) entries
    for s in range(1, T + 1):
        atoms = base ** (s - 1)
        acc = rhs[s - 1].copy()
        for t in range(1, s):
            acc -= factor[s - 1][t - 1] * phi[t - 1, :atoms]
        phi[s - 1].reshape(-1, atoms)[:] = acc
    phi = phi.T
    gain = (phi * inc).sum(axis=1)
    residual = float(sp.expectation((target - gain) ** 2))
    strategy = Strategy(market, phi, _self_financed_alpha(market, phi, 0.0))
    return strategy, residual


def call_payoff(market: MarketParams, strike: float) -> PathFunctional:
    """European call (S_T - K)+ as an exact claim table."""
    paths = price_paths(market)
    return PathFunctional(market.model_params(), values=np.maximum(paths.price[:, -1] - strike, 0.0))


def random_claim(market: MarketParams, rng: np.random.Generator) -> PathFunctional:
    """Seeded random F_T-measurable claim (testing convenience)."""
    params = market.model_params()
    return PathFunctional(params, values=rng.normal(size=params.n_configurations))


def pgf_ratio_enumerated(market: MarketParams, s: float) -> float:
    """E[s^(S_t / S_{t-1})] by enumeration of one step."""
    lam, p, q = market.jump_prob, market.up_prob, market.down_prob
    params = ModelParams(horizon=1, marks=(1.0, -1.0), jump_prob=lam, mark_probs=(p, q))
    sp = space(params)
    ratios = np.array([1.0, 1.0 + market.b, 1.0 + market.a])
    return float(np.dot(sp.probabilities, s ** ratios[sp.digits[:, 0]]))


def pgf_ratio_trinomial(market: MarketParams, s: float) -> float:
    """The trinomial one-step pgf with p~ = lambda p, q~ = lambda q."""
    lam, p, q = market.jump_prob, market.up_prob, market.down_prob
    return lam * p * s ** (1.0 + market.b) + lam * q * s ** (1.0 + market.a) + (1.0 - lam) * s
