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
3^t entries to 3^(t-1), a forward step 3^(t-1) to 3^t.  Results store
only what the recursions solve for (the prefixes of V and phi, alpha_0,
and the minimal martingale measure's step law); S and dS~ are formed step
by step from S_{t-1}, and theta, xi, alpha, S~, L, dP^/dP and every dense
(n, T) table are derived on each access, step-major (a (T, n) array seen
via ``.T``).  The forward recursion walks each step in blocks of at most
BLOCK_ATOMS F_{t-1} atoms, so it holds whole only G_t and phi_t.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .space import ModelParams, PathFunctional, probability_table, step_products, step_weights


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
            raise ValueError(f"need -1 < a < r < b, got a={self.a}, r={self.r}, b={self.b}")
        for name in ("jump_prob", "up_prob"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if self.initial_capital < 0.0:
            raise ValueError(f"initial capital must be >= 0, got {self.initial_capital}")
        if self.a0 <= 0.0:
            raise ValueError(f"a0 must be positive, got {self.a0}")
        if int(self.horizon) != self.horizon or self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon}")
        object.__setattr__(self, "horizon", int(self.horizon))

    down_prob = property(lambda self: 1.0 - self.up_prob)

    @property
    def rho(self) -> float:
        """lambda q / (1 - lambda p), the Gram-Schmidt mixing weight."""
        return self.jump_prob * (1.0 - self.up_prob) / (1.0 - self.jump_prob * self.up_prob)

    @property
    def drift_gap(self) -> float:
        """lambda (b p + a q) - r; zero exactly for martingale parameters."""
        return self.jump_prob * (self.b * self.up_prob + self.a * self.down_prob) - self.r

    def model_params(self) -> ModelParams:
        """Underlying marked binomial model: marks (+1, -1), Q = (p, q)."""
        return ModelParams(horizon=self.horizon, marks=(1.0, -1.0), jump_prob=self.jump_prob,
                           mark_probs=(self.up_prob, self.down_prob))


def _dense(prefixes: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    """Dense (n, len(prefixes)) table whose column j repeats prefixes[j],
    stored step-major as (len(prefixes), n); each row is one broadcast write."""
    table = np.empty((len(prefixes), n))
    for row, prefix in zip(table, prefixes):
        row.reshape(-1, prefix.size)[:] = prefix.ravel()
    return table.T


def _dense_view(prefixes: str, columns: bool = False) -> property:
    """A property that builds, with ``_dense`` on each access, the step-major table
    of the named prefixes, (n, T) or (n, T+1), or with ``columns`` its (n,) columns."""
    def view(self):
        table = _dense(getattr(self, prefixes), 3 ** self.market.horizon)
        return list(table.T) if columns else table
    return property(view)


def _discount(market: MarketParams) -> np.ndarray:
    """(1+r)^t, t = 0..T: the divisors of S~_t = S_t / (1+r)^t, multiplied
    up step by step, since numpy's power loop rounds by SIMD level."""
    return np.cumprod([1.0] + [1.0 + market.r] * market.horizon)


@dataclass(frozen=True)
class PricePaths:
    """Exact prices on the tree, formed step by step and never stored:
    S_t on the 3^t F_t atoms, dS~_t on its (3, 3^(t-1)) grid."""

    market: MarketParams
    riskless: np.ndarray   # A_t, shape (T+1,)

    price_prefixes = property(lambda self: tuple(self.walk()))  # S_t, t = 0..T
    increment_prefixes = property(lambda self: tuple(self.increment(t, s) for t, s in self.steps()))  # t = 1..T
    terminal = property(lambda self: reduce(lambda _, price: price, self.walk()))  # S_T, the walk's last
    increments = _dense_view("increment_prefixes")   # (n, T)

    @property
    def price(self) -> np.ndarray:  # (n, T+1): row t is factor(digit t) times row t-1, in place
        table = np.ones((self.market.horizon + 1, 3 ** self.market.horizon))
        for t in range(1, self.market.horizon + 1):
            grid = (-1, 3, 3 ** (t - 1))  # [higher digits, digit t, F_{t-1} atom]
            np.multiply(self._factor[:, None], table[t - 1].reshape(grid), out=table[t].reshape(grid))
        return table.T

    @property
    def discounted(self) -> np.ndarray:  # S~, (n, T+1): a fresh price table divided in place
        table = self.price
        return np.divide(table, _discount(self.market), out=table)

    def walk(self):
        """S_0, ..., S_T, each S_t[d, c] = factor(d) S_{t-1}[c] formed from the last:
        the same products in the same order as a cumulative product over the digits."""
        price = np.ones(1)
        yield price
        for _ in range(self.market.horizon):
            price = np.multiply.outer(self._factor, price).ravel()
            yield price

    def steps(self):
        """(t, S_{t-1}) for t = 1..T; zip stops on the range, so S_T is never formed."""
        return zip(range(1, self.market.horizon + 1), self.walk())

    def increment(self, t: int, price: np.ndarray) -> np.ndarray:
        """dS~_t = S_t / (1+r)^t - S_{t-1} / (1+r)^(t-1) on the (3, k) grid over
        k given entries of S_{t-1}; elementwise, so a block has the bits of the whole."""
        disc = _discount(self.market)
        return np.multiply.outer(self._factor, price) / disc[t] - price / disc[t - 1]

    _factor = property(lambda self: np.array([1.0, 1.0 + self.market.b, 1.0 + self.market.a]))  # of digits 0..2


@lru_cache(maxsize=64)
def price_paths(market: MarketParams) -> PricePaths:
    """Cached per market; holds the market and the read-only riskless prices A_t."""
    smallest = float(probability_table(market.model_params()).min())
    if smallest < np.finfo(float).tiny:
        raise ValueError(f"smallest configuration probability {smallest:.3e} is below the smallest normal float")
    riskless = market.a0 * _discount(market)
    riskless.flags.writeable = False
    return PricePaths(market, riskless)


def martingale_diagnostics(market: MarketParams) -> tuple[float, np.ndarray]:
    """(drift gap, mean-variance tradeoff table K_0..K_T).

    Per step K grows by E[dS~ | F]^2 / Var[dS~ | F] = gap^2 / Var(eta dN):
    the one-step return is b with probability lambda p, a with lambda q and
    0 otherwise, so Var(eta dN) = lambda p (1-lambda p) b^2
    + lambda q (1-lambda q) a^2 - 2 lambda^2 p q a b, the last term the
    covariance of the mutually exclusive up and down jumps.  K is linear in
    t and deterministic.
    """
    lam, p, q, a, b, gap = market.jump_prob, market.up_prob, market.down_prob, market.a, market.b, market.drift_gap
    denom = lam * p * (1.0 - lam * p) * b**2 + lam * q * (1.0 - lam * q) * a**2 - 2.0 * lam**2 * p * q * a * b
    return gap, gap**2 / denom * np.arange(market.horizon + 1, dtype=float)


def _step_mean(weights: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """E[X | F_{t-1}] on the 3^(t-1) atoms for X given on its (3, 3^(t-1))
    prefix grid; ``weights`` are the one-step digit weights."""
    return weights @ grid / weights.sum()


@dataclass(frozen=True)
class MinimalMartingaleMeasure:
    """The exact minimal martingale measure: the mean-variance tradeoff is
    deterministic, so P^ is a product of one step law w^ = w rho and
    theta_t = c / S~_{t-1} (Schweizer 1995); the cached step law is read-only."""

    market: MarketParams
    step_law: np.ndarray   # w^ of digits 0..2, shape (3,); signed when an entry is <= 0
    c: float               # theta_1

    theta = _dense_view("theta_prefixes")  # (n, T), predictable
    theta_prefixes = property(lambda self: tuple(self._theta(t, s) for t, s in price_paths(self.market).steps()))
    signed = property(lambda self: bool(np.any(self.step_law <= 0.0)))  # True for a signed measure

    def _theta(self, t: int, price: np.ndarray) -> np.ndarray:
        """theta_t = c / S~_{t-1} on the F_{t-1} atoms whose S_{t-1} is given."""
        return self.c / (price / _discount(self.market)[t - 1])

    @property
    def density(self) -> np.ndarray:  # dP^ / dP, (n,): rho = w^ / w multiplied in step order
        return step_products([self.step_law / step_weights(self.market.model_params())] * self.market.horizon)


@lru_cache(maxsize=64)
def minimal_martingale_measure(market: MarketParams) -> MinimalMartingaleMeasure:
    """c = theta_1 = E[dS~_1] / E[(dS~_1)^2] and the step law w^ = w rho,
    rho = (1 - c dS~_1) / (1 - c E[dS~_1]); under the product of w^
    discounted prices are a martingale tablewise."""
    weights = step_weights(market.model_params())
    inc = price_paths(market).increment(1, np.ones(1))
    e1 = _step_mean(weights, inc)
    c = e1 / _step_mean(weights, inc * inc)
    step_law = weights * ((1.0 - c * inc) / (1.0 - c * e1)).ravel()
    step_law.flags.writeable = False
    mmm = MinimalMartingaleMeasure(market, step_law, float(c[0]))
    if mmm.signed:
        warnings.warn("minimal martingale measure is signed for these parameters")
    return mmm


def _value_prefixes(market: MarketParams, mmm: MinimalMartingaleMeasure, values: np.ndarray) -> list[np.ndarray]:
    """The prefixes of E^[values | F_t], t = 0..T (3^t entries each), by
    backward induction on the step law."""
    T = market.horizon
    prefixes = [None] * T + [np.asarray(values, dtype=float)]
    for t in range(T, 0, -1):
        prefixes[t - 1] = _step_mean(mmm.step_law, prefixes[t].reshape(3, -1))
    return prefixes


@dataclass(frozen=True)
class Strategy:
    """Predictable risky quotas phi_t on the 3^(t-1) F_{t-1} atoms; the
    self-financed riskless quotas alpha_t are derived from phi and alpha_0."""

    market: MarketParams
    phi_prefixes: tuple[np.ndarray, ...]     # phi_t, t = 1..T
    alpha0: float                            # the riskless quota held at t = 0

    phi = _dense_view("phi_prefixes")        # (n, T)
    alpha = _dense_view("alpha_prefixes")    # (n, T+1); alpha[:, 0] constant
    alpha_prefixes = property(lambda self: _self_financed_alpha(self.market, self.phi_prefixes, self.alpha0))

    def self_financing_residual(self) -> float:
        """Max violation of A_t (alpha_{t+1}-alpha_t) + S_t (phi_{t+1}-phi_t) = 0
        over t = 0..T-1 and the 3^t F_t atoms, on which every term is fixed,
        with the convention phi_0 = phi_1; NaN if any entry is NaN."""
        paths, phi, alpha, worst = price_paths(self.market), self.phi_prefixes, self.alpha_prefixes, []
        for t, price in zip(range(self.market.horizon), paths.walk()):  # S_t, t = 0..T-1
            atoms = 3 ** max(t - 1, 0)  # entries of phi_t and alpha_t
            lhs = paths.riskless[t] * (alpha[t + 1].reshape(-1, atoms) - alpha[t]) \
                + price.reshape(-1, atoms) * (phi[t].reshape(-1, atoms) - phi[max(t - 1, 0)])
            worst.append(np.max(np.abs(lhs)))
        return float(np.max(worst))  # np.max, unlike max(), propagates NaN


def _self_financed_alpha(market: MarketParams, phi: tuple[np.ndarray, ...], alpha0: float) -> tuple[np.ndarray, ...]:
    """alpha_t = alpha_{t-1} - (phi_t - phi_{t-1}) S_{t-1} / A_{t-1}
    (phi_0 := phi_1), which makes the book-balance identity hold for any a0.
    alpha_t is F_{t-1}-measurable, so step t maps the prefixes of step t-1
    to the 3^(t-1) entries of alpha_t."""
    paths = price_paths(market)
    alpha = [np.full(1, alpha0)]
    for t, price in paths.steps():
        atoms = 3 ** max(t - 2, 0)  # entries of phi_{t-1} and alpha_{t-1}
        ratio = price / paths.riskless[t - 1]
        step = (phi[t - 1].reshape(-1, atoms) - phi[max(t - 2, 0)]) * ratio.reshape(-1, atoms)
        alpha.append((alpha[-1] - step).ravel())
    return tuple(alpha)


@dataclass(frozen=True)
class KWDecomposition:
    """F = F0 + sum_t xi_t dS~_t + L_T with L a martingale orthogonal to
    the discounted price increments, kept on the value prefixes."""

    market: MarketParams
    f0: float
    value_prefixes: tuple[np.ndarray, ...]   # V_t = E^[F | F_t] on the 3^t F_t atoms, t = 0..T

    xi = _dense_view("xi_prefixes")                    # (n, T), predictable
    value = _dense_view("value_prefixes", columns=True)  # T+1 tables of shape (n,)
    xi_prefixes = property(lambda self: tuple(
        self._xi(t, inc) for t, inc in enumerate(price_paths(self.market).increment_prefixes, start=1)))

    def _xi(self, t: int, inc: np.ndarray, block: slice = slice(None)) -> np.ndarray:
        """xi_t = E[dV_t dS~_t | F_{t-1}] / E[(dS~_t)^2 | F_{t-1}] on a block of the
        F_{t-1} atoms (all by default), given dS~_t on the block's grid."""
        weights = step_weights(self.market.model_params())
        dv = self.value_prefixes[t].reshape(3, -1)[:, block] - self.value_prefixes[t - 1][block]
        return _step_mean(weights, dv * inc) / _step_mean(weights, inc * inc)

    @property
    def l_process(self) -> np.ndarray:
        """(n, T+1): L_t = L_{t-1} + (V_t - V_{t-1}) - xi_t dS~_t on the 3^t F_t atoms, L_0 = 0."""
        ls, value = [np.zeros(1)], self.value_prefixes
        for t, inc in enumerate(price_paths(self.market).increment_prefixes, start=1):
            ls.append((ls[-1] + (value[t].reshape(3, -1) - value[t - 1]) - self._xi(t, inc) * inc).ravel())
        return _dense(ls, 3 ** self.market.horizon)


def kunita_watanabe(market: MarketParams, F: PathFunctional) -> KWDecomposition:
    """Projection construction through the minimal martingale measure:
    V_t = E^[F | F_t], xi_t = E[dV_t dS~_t | F_{t-1}] / E[(dS~_t)^2 | F_{t-1}],
    L_t = V_t - V_0 - sum_{s<=t} xi_s dS~_s; only V is stored, xi and L are read from it."""
    value = _value_prefixes(market, minimal_martingale_measure(market), F.table())
    return KWDecomposition(market, float(value[0][0]), tuple(value))


BLOCK_ATOMS = 4096  # F_{t-1} atoms per forward block; 2^15 took a traced T=11 hedge to 6.0 tables, not 4.05


def _blocks(size: int):
    """Slices of at most BLOCK_ATOMS entries covering 0..size-1; through T=11 a block's
    (3,) @ (3, k) gemv gives the bits of a whole step's (a test checks T=11's 15 blocks)."""
    return (slice(lo, lo + BLOCK_ATOMS) for lo in range(0, size, BLOCK_ATOMS))


def _forward_gain(kw: KWDecomposition, x: float, lag: int) -> tuple[float, list[np.ndarray]]:
    """Residual E[(V_T - x - G_T)^2] of phi_t = xi_t + theta_t (V_{t-lag} - x - G_{t-1}),
    G the discounted gain, and for lag 1 the 3^(t-1)-entry prefixes of phi_t.  Each
    step is walked in blocks of F_{t-1} atoms: only G_t and phi_t are held whole."""
    mmm, paths, values = minimal_martingale_measure(kw.market), price_paths(kw.market), kw.value_prefixes
    gain, phis = np.zeros(1), []
    for t, price in paths.steps():
        grid = np.empty((3, price.size))  # G_t
        if lag:  # the lag-0 variant reports its residual only
            phis.append(np.empty(price.size))
        for block in _blocks(price.size):
            inc = paths.increment(t, price[block])
            value = values[t - lag].reshape(-1, price.size)[:, block]
            phi = kw._xi(t, inc, block) + mmm._theta(t, price[block]) * (value - x - gain[block])
            grid[:, block] = gain[block] + phi * inc
            if lag:
                phis[-1][block] = phi
        gain = grid.ravel()
    for block in _blocks(gain.size):  # the residual V_T - x - G_T overwrites G_T
        np.subtract(values[-1][block] - x, gain[block], out=gain[block])  # V_T is the claim's own table
    return float(np.dot(probability_table(kw.market.model_params()), np.multiply(gain, gain, out=gain))), phis


def optimal_strategy(market: MarketParams, F: PathFunctional, x: float | None = None) -> tuple[Strategy, float]:
    """Quadratic-loss minimizing self-financed strategy for the claim F.

    Forward recursion on top of the value-process decomposition:

        phi*_t = xi_t + theta_t (E^[F | F_{t-1}] - x - G_{t-1}(phi*)),

    with G the running discounted gain; the conditioning at t-1 keeps the
    strategy predictable.  The residual risk E[(F - x - G_T)^2] matches
    the normal-equations oracle (mean-variance tradeoff is deterministic).
    """
    x = market.initial_capital if x is None else float(x)
    kw = kunita_watanabe(market, F)
    residual, phi = _forward_gain(kw, x, 1)
    return Strategy(market, tuple(phi), kw.f0), residual


def optimal_strategy_t_conditioning(market: MarketParams, F: PathFunctional, x: float | None = None) -> float:
    """Residual of the variant that conditions the correction term on F_t
    (not predictable; reported for comparison only)."""
    x = market.initial_capital if x is None else float(x)
    return _forward_gain(kunita_watanabe(market, F), x, 0)[0]


LS_ORACLE_MAX_HORIZON = 11


def ls_oracle(market: MarketParams, F: PathFunctional, x: float | None = None) -> tuple[Strategy, float]:
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
        raise ValueError(f"ls_oracle caps the horizon at {LS_ORACLE_MAX_HORIZON}, got {market.horizon}")
    p = probability_table(market.model_params())
    increments = price_paths(market).increment_prefixes
    T, base = market.horizon, 3
    target = F.table() - x
    root = np.sqrt(p)
    columns = np.empty((T, p.size))  # row s-1 holds X_s
    diagonal = []                    # E[1_b dS~_s^2] on the F_{s-1} atoms b
    for row, inc in zip(columns, increments):
        row.reshape(-1, inc.size)[:] = inc.ravel()
        diagonal.append((p * row**2).reshape(-1, inc.shape[1]).sum(axis=0))
        row *= root
    residual_column = target * root
    floor = (T * np.finfo(float).eps) ** 2
    factor, rhs = [None] * T, [None] * T
    for s in range(T, 0, -1):
        atoms = base ** (s - 1)
        xs = columns[s - 1].reshape(-1, atoms)
        pivot = (xs * xs).sum(axis=0)
        bad = np.flatnonzero(~(pivot > floor * diagonal[s - 1]))
        if bad.size:
            b = int(bad[0])
            raise ValueError(
                f"singular normal matrix: pivot {pivot[b]:.3e} of step {s}, atom {b} "
                f"is at the rounding level of its diagonal {diagonal[s - 1][b]:.3e}"
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
    phi, gain = [], np.zeros(1)
    for s in range(1, T + 1):
        acc = rhs[s - 1].copy()
        for t in range(1, s):
            ancestors = base ** (t - 1)
            acc -= (factor[s - 1][t - 1].reshape(-1, ancestors) * phi[t - 1]).ravel()
        phi.append(acc)
        gain = (gain + acc * increments[s - 1]).ravel()
    residual = float(np.dot(p, (target - gain) ** 2))
    return Strategy(market, tuple(phi), 0.0), residual


def call_payoff(market: MarketParams, strike: float) -> PathFunctional:
    """European call (S_T - K)+ as an exact claim table."""
    if not math.isfinite(strike):
        raise ValueError(f"strike must be finite, got {strike}")
    s_t = price_paths(market).terminal
    return PathFunctional(market.model_params(), values=np.maximum(s_t - strike, 0.0))


def random_claim(market: MarketParams, rng: np.random.Generator) -> PathFunctional:
    """Seeded random F_T-measurable claim (testing convenience)."""
    params = market.model_params()
    return PathFunctional(params, values=rng.normal(size=params.n_configurations))


def pgf_ratio_enumerated(market: MarketParams, s: float) -> float:
    """E[s^(S_t / S_{t-1})] by enumeration of one step, whose rank order is its digit order."""
    ratios = np.array([1.0, 1.0 + market.b, 1.0 + market.a])
    return float(np.dot(step_weights(market.model_params()), s**ratios))


def pgf_ratio_trinomial(market: MarketParams, s: float) -> float:
    """The trinomial one-step pgf with p~ = lambda p, q~ = lambda q."""
    lam, p, q = market.jump_prob, market.up_prob, market.down_prob
    return lam * p * s ** (1.0 + market.b) + lam * q * s ** (1.0 + market.a) + (1.0 - lam) * s
