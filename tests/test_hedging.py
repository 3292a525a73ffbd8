import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from markedbinomial import (
    MarketParams,
    PathFunctional,
    call_payoff,
    kunita_watanabe,
    ls_oracle,
    martingale_diagnostics,
    minimal_martingale_measure,
    optimal_strategy,
    price_paths,
)
from markedbinomial.hedging import (
    _dense,
    _self_financed_alpha,
    optimal_strategy_t_conditioning,
    pgf_ratio_enumerated,
    pgf_ratio_trinomial,
    random_claim,
)
from markedbinomial.space import jump_count, probability_table, space, step_products


MARTINGALE = dict(a=-0.1, b=0.2, r=0.025, jump_prob=0.5, up_prob=0.5)
DRIFTED = dict(a=-0.1, b=0.2, r=0.0, jump_prob=0.5, up_prob=0.5)


def mk(horizon=3, **kw) -> MarketParams:
    base = dict(MARTINGALE)
    base.update(kw)
    return MarketParams(horizon=horizon, **base)


def test_params_validation():
    with pytest.raises(ValueError, match="-1 < a < r < b"):
        MarketParams(a=0.1, b=0.2, r=0.05, jump_prob=0.5, up_prob=0.5, horizon=2)
    with pytest.raises(ValueError, match="-1 < a < r < b"):
        MarketParams(a=-0.1, b=0.2, r=0.3, jump_prob=0.5, up_prob=0.5, horizon=2)
    with pytest.raises(ValueError, match="jump_prob"):
        MarketParams(a=-0.1, b=0.2, r=0.0, jump_prob=1.0, up_prob=0.5, horizon=2)
    market = mk()
    assert 0.0 < market.rho < 1.0
    assert market.drift_gap == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("field", ["a", "b", "r", "jump_prob", "up_prob", "horizon", "initial_capital", "a0"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_params_refuse_non_finite_fields(field, value):
    base = dict(MARTINGALE, horizon=2)
    base[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MarketParams(**base)


@pytest.mark.parametrize("strike", [float("nan"), float("inf"), -float("inf")])
def test_call_payoff_refuses_a_non_finite_strike(strike):
    with pytest.raises(ValueError, match="strike must be finite"):
        call_payoff(mk(), strike)


def test_price_paths_refuse_underflowing_probabilities():
    market = mk(horizon=3, jump_prob=1e-200)  # (lambda p)^3 underflows to 0
    with pytest.raises(ValueError, match="smallest normal float"):
        price_paths(market)
    price_paths(mk(horizon=3, jump_prob=1e-100))  # 1.25e-301 is still normal


def test_self_financing_residual_propagates_nan(rng):
    market = mk()
    strategy, _ = optimal_strategy(market, random_claim(market, rng), 1.0)
    strategy.phi_prefixes[2][5] = np.nan
    assert np.isnan(strategy.self_financing_residual())


def test_price_paths_no_jump_and_all_up():
    market = mk(horizon=2)
    paths = price_paths(market)
    assert paths.price[0, -1] == pytest.approx(1.0)           # rank 0: no jumps
    assert paths.discounted[0, -1] == pytest.approx(1.025 ** -2)
    all_up = 1 + 3                                            # digit 1 at both steps
    assert paths.price[all_up, -1] == pytest.approx(1.44)
    assert paths.riskless[1] == pytest.approx(1.025)


def test_discounted_increment_factorization(digit_table):
    market = mk()
    digits = digit_table(market.model_params())
    paths = price_paths(market)
    eta = np.where(digits == 1, market.b, np.where(digits == 2, market.a, 0.0))
    for t in range(1, 4):
        expected = paths.discounted[:, t - 1] * (eta[:, t - 1] - market.r) / (1 + market.r)
        assert np.max(np.abs(paths.increments[:, t - 1] - expected)) <= 1e-14


def test_martingale_condition_tablewise():
    market = mk()
    sp = space(market.model_params())
    paths = price_paths(market)
    assert market.drift_gap == pytest.approx(0.0, abs=1e-15)
    for t in range(1, 4):
        cond = sp.conditional_expectation(paths.increments[:, t - 1], t - 1)
        assert np.max(np.abs(cond)) <= 1e-14


def test_martingale_diagnostics_values():
    gap, K = martingale_diagnostics(mk())
    assert gap == pytest.approx(0.0, abs=1e-15)
    assert np.max(np.abs(K)) == 0.0
    gap, K = martingale_diagnostics(mk(**DRIFTED))
    assert gap == pytest.approx(0.025, abs=1e-15)
    # Var(eta dN) = lambda p (1-lambda p) b^2 + lambda q (1-lambda q) a^2 - 2 lambda^2 p q a b
    per_step = 0.025**2 / (0.25 * 0.75 * 0.04 + 0.01 * 0.25 * 0.75 + 2 * 0.25 * 0.25 * 0.02)
    assert per_step == pytest.approx(0.0526316, abs=5e-7)
    assert np.allclose(K, per_step * np.arange(4))     # linear in t


@pytest.mark.parametrize("kw", [
    MARTINGALE, DRIFTED,
    dict(a=-0.3, b=0.5, r=0.01, jump_prob=0.3, up_prob=0.7),
    dict(DRIFTED, jump_prob=0.999, up_prob=0.999),
    dict(a=-0.9, b=0.05, r=0.04, jump_prob=0.999, up_prob=0.001),
], ids=["martingale", "drifted", "M3", "near-arbitrage", "signed"])
def test_martingale_diagnostics_match_conditional_moments(kw):
    """K_t - K_{t-1} = E[dS~_t | F_{t-1}]^2 / Var[dS~_t | F_{t-1}] on every atom."""
    market = mk(horizon=3, **kw)
    sp = space(market.model_params())
    increments = price_paths(market).increments
    _, K = martingale_diagnostics(market)
    for t in range(1, 4):
        inc = increments[:, t - 1]
        mean = sp.conditional_expectation(inc, t - 1)
        var = sp.conditional_expectation((inc - mean) ** 2, t - 1)
        np.testing.assert_allclose(mean**2 / var, K[t] - K[t - 1], rtol=1e-10, atol=1e-25)


@pytest.mark.parametrize("kw", [MARTINGALE, DRIFTED, dict(a=-0.3, b=0.5, r=0.01, jump_prob=0.3, up_prob=0.7)],
                         ids=["M1", "M2", "M3"])
@pytest.mark.parametrize("horizon", range(1, 7))
def test_price_paths_equal_the_cumulative_product(kw, horizon, digit_table):
    market = mk(horizon=horizon, **kw)
    sp = space(market.model_params())
    growth = np.array([1.0, 1.0 + market.b, 1.0 + market.a])[digit_table(market.model_params())]
    price = np.concatenate([np.ones((sp.n, 1)), np.cumprod(growth, axis=1)], axis=1)
    discounted = price / np.cumprod([1.0] + [1.0 + market.r] * horizon)
    paths = price_paths(market)
    np.testing.assert_array_equal(paths.price, price)
    np.testing.assert_array_equal(paths.discounted, discounted)
    np.testing.assert_array_equal(paths.increments, np.diff(discounted, axis=1))


@pytest.mark.parametrize("kw", [MARTINGALE, DRIFTED, dict(a=-0.3, b=0.5, r=0.01, jump_prob=0.3, up_prob=0.7)],
                         ids=["M1", "M2", "M3"])
@pytest.mark.parametrize("horizon", [1, 4, 9])
def test_price_walk_ends_on_the_step_products_of_the_price_factors(kw, horizon):
    """The walk keeps its own loop, since it yields every prefix; its last
    prefix S_T has the bits of the step-order product table."""
    paths = price_paths(mk(horizon=horizon, **kw))
    assert paths.terminal.tobytes() == step_products([paths._factor] * horizon).tobytes()


def test_returned_tables_are_step_major(rng):
    """Every dense table of the hedging layer has contiguous columns."""
    market = mk(horizon=4, **DRIFTED)
    F = random_claim(market, rng)
    paths = price_paths(market)
    mmm = minimal_martingale_measure(market)
    kw = kunita_watanabe(market, F)
    strategy, _ = optimal_strategy(market, F, 1.0)
    oracle, _ = ls_oracle(market, F, 1.0)
    tables = (paths.price, paths.discounted, paths.increments, mmm.theta, kw.xi, kw.l_process,
              strategy.phi, strategy.alpha, oracle.phi, oracle.alpha)
    for table in tables:
        assert table.shape[0] == 3**4
        assert all(table[:, t].flags.c_contiguous for t in range(table.shape[1]))
    assert all(v.shape == (3**4,) and v.flags.c_contiguous for v in kw.value)


def test_minimal_martingale_measure_trivial_under_martingale():
    mmm = minimal_martingale_measure(mk())
    assert np.max(np.abs(mmm.theta)) <= 1e-12
    assert np.allclose(mmm.density, 1.0)
    assert not mmm.signed


def test_minimal_martingale_measure_drifted():
    market = mk(**DRIFTED)
    sp = space(market.model_params())
    paths = price_paths(market)
    mmm = minimal_martingale_measure(market)
    assert not mmm.signed
    assert np.all(mmm.density >= 0.0)
    assert float(np.dot(sp.probabilities, mmm.density)) == pytest.approx(1.0, abs=1e-12)
    # under the reweighting the discounted price is a martingale tablewise
    cond = kunita_watanabe(market, PathFunctional(market.model_params(), values=paths.discounted[:, -1])).value
    for t in range(market.horizon):
        expected = paths.discounted[:, t]
        assert np.max(np.abs(cond[t] - expected)) <= 1e-12


def test_minimal_martingale_measure_signed_warns():
    market = MarketParams(a=-0.9, b=0.05, r=0.04, jump_prob=0.999, up_prob=0.001, horizon=2)
    with pytest.warns(UserWarning, match="signed"):
        mmm = minimal_martingale_measure(market)
    assert mmm.signed
    sp = space(market.model_params())
    assert float(np.dot(sp.probabilities, mmm.density)) == pytest.approx(1.0, abs=1e-10)


def test_cached_measure_cannot_be_corrupted():
    """The cached measure is shared by every later hedge in the process: its
    step law refuses writes, and writing into a table it returns, theta's
    prefixes and the density included, leaves the next strategy bit-identical."""
    market = MarketParams(a=-0.3, b=0.5, r=0.01, jump_prob=0.3, up_prob=0.7, horizon=4)
    F = call_payoff(market, 1.05)
    before, residual_before = optimal_strategy(market, F, 1.0)
    mmm = minimal_martingale_measure(market)
    with pytest.raises(ValueError, match="read-only"):
        mmm.step_law[...] = 0.0
    theta, density = mmm.theta, mmm.density
    theta[:] *= 2
    density[:] *= 3
    for prefix in mmm.theta_prefixes:
        prefix *= 1.5
    after, residual_after = optimal_strategy(market, F, 1.0)
    assert residual_after == residual_before
    np.testing.assert_array_equal(after.phi, before.phi)
    np.testing.assert_array_equal(after.alpha, before.alpha)
    assert not np.array_equal(mmm.theta, theta)
    assert not np.array_equal(mmm.density, density)


def _assert_derived_views_are_bitwise(market, F):
    """The views derived on access equal, bit for bit, their one formulas:
    dP^/dP is the step-order product of rho = w^ / w, theta_t is
    c / S~_{t-1}, the measure is signed when w^ has an entry <= 0, S~_t is
    S_t / (1+r)^t, xi_t is E[dV dS~ | F_{t-1}] /
    E[dS~^2 | F_{t-1}] step by step, L follows its prefix recursion, and
    alpha is the self-financing recursion from alpha_0 = F0."""
    n = 3**market.horizon
    paths, mmm, kw = price_paths(market), minimal_martingale_measure(market), kunita_watanabe(market, F)
    weights = space(market.model_params()).step_weights
    xis = []
    for t, inc in enumerate(paths.increment_prefixes, start=1):
        dv = kw.value_prefixes[t].reshape(3, -1) - kw.value_prefixes[t - 1]
        xis.append((weights @ (dv * inc) / weights.sum()) / (weights @ (inc * inc) / weights.sum()))
    for got, want in zip(kw.xi_prefixes, xis, strict=True):
        np.testing.assert_array_equal(got, want)
    strategy, _ = optimal_strategy(market, F, 1.0)
    assert strategy.alpha0 == kw.f0
    for got, want in zip(strategy.alpha_prefixes, _self_financed_alpha(market, strategy.phi_prefixes, kw.f0),
                         strict=True):
        np.testing.assert_array_equal(got, want)
    disc = np.cumprod([1.0] + [1.0 + market.r] * market.horizon)
    rho, density = mmm.step_law / weights, np.ones(1)
    for _ in range(market.horizon):
        density = np.multiply.outer(rho, density).ravel()
    np.testing.assert_array_equal(mmm.density, density)
    for got, price, divisor in zip(mmm.theta_prefixes, paths.price_prefixes[:-1], disc[:-1], strict=True):
        np.testing.assert_array_equal(got, mmm.c / (price / divisor))
    assert mmm.signed == bool(np.any(mmm.step_law <= 0.0))
    price, discounted = paths.price, paths.discounted
    for t in range(market.horizon + 1):
        np.testing.assert_array_equal(discounted[:, t], price[:, t] / disc[t])
    ls = [np.zeros(1)]
    for t in range(1, market.horizon + 1):
        inc = paths.increment_prefixes[t - 1]
        dv = kw.value_prefixes[t].reshape(3, -1) - kw.value_prefixes[t - 1]
        ls.append((ls[-1] + dv - kw.xi_prefixes[t - 1] * inc).ravel())
    np.testing.assert_array_equal(kw.l_process, _dense(ls, n))


@pytest.mark.filterwarnings("ignore:minimal martingale measure is signed")
@pytest.mark.parametrize("kw", [MARTINGALE, dict(a=-0.3, b=0.5, r=0.01, jump_prob=0.3, up_prob=0.7),
                                dict(a=-0.9, b=0.05, r=0.04, jump_prob=0.999, up_prob=0.001)],
                         ids=["M1", "M3", "signed"])
@pytest.mark.parametrize("horizon", range(1, 7))
def test_derived_views_match_the_stored_recursions(kw, horizon, rng):
    market = mk(horizon=horizon, **kw)
    _assert_derived_views_are_bitwise(market, call_payoff(market, 1.05))
    _assert_derived_views_are_bitwise(market, random_claim(market, rng))
    oracle, _ = ls_oracle(market, call_payoff(market, 1.05), 1.0)
    assert oracle.alpha0 == 0.0
    for got, want in zip(oracle.alpha_prefixes, _self_financed_alpha(market, oracle.phi_prefixes, 0.0), strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("horizon", [11, 13])
def test_hedge_peak_memory_stays_below_five_tables(horizon):
    """At T=11 and T=13 a hedge (claim, both forward recursions and the
    book-balance check, from cold price and measure caches) peaks below 5
    tables of 3^T floats in traced memory; storing S~, L, dP^/dP and the
    lag-0 phi once took it to about 15.8, storing xi and alpha to about
    11.35, storing theta and rho on every atom to about 10.35, and storing
    the S and dS~ prefixes with whole-step temporaries to about 8.35."""
    market = MarketParams(horizon=horizon, **MARTINGALE)
    n = 3**horizon
    probability_table(market.model_params())
    price_paths.cache_clear()
    minimal_martingale_measure.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        F = call_payoff(market, 1.05)
        strategy, _ = optimal_strategy(market, F, 1.0)
        optimal_strategy_t_conditioning(market, F, 1.0)
        strategy.self_financing_residual()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * np.dtype(float).itemsize


def _bits(arrays):
    """The bit patterns of a tuple of float arrays: -0.0 and 0.0 differ, NaNs compare."""
    return [arr.view(np.int64).tolist() for arr in arrays]


@pytest.mark.filterwarnings("ignore:minimal martingale measure is signed")
@pytest.mark.parametrize("kw", [MARTINGALE, dict(a=-0.3, b=0.5, r=0.01, jump_prob=0.3, up_prob=0.7),
                                dict(a=-0.9, b=0.05, r=0.04, jump_prob=0.999, up_prob=0.001)],
                         ids=["M1", "M3", "signed"])
def test_block_walk_has_the_bits_of_one_block_per_step(kw, monkeypatch):
    """At T=11 the forward walk splits the last step's 3^10 F_10 atoms into 15
    blocks; phi, alpha and both residuals equal, bit for bit, those of a walk
    with one block per step."""
    from markedbinomial import hedging

    market = MarketParams(horizon=11, **kw)
    F = call_payoff(market, 1.05)
    assert len(list(hedging._blocks(3**10))) == 15
    runs = []
    for block_atoms in (hedging.BLOCK_ATOMS, 3**10):
        monkeypatch.setattr(hedging, "BLOCK_ATOMS", block_atoms)
        strategy, residual = optimal_strategy(market, F, 1.0)
        residual_alt = optimal_strategy_t_conditioning(market, F, 1.0)
        runs.append((_bits(strategy.phi_prefixes), _bits(strategy.alpha_prefixes), residual.hex(), residual_alt.hex()))
    blocked, whole = runs
    for got, want, name in zip(blocked, whole, ("phi", "alpha", "residual", "t-conditioning residual")):
        assert got == want, name


def test_derived_views_cost_about_their_result():
    """At T=11 reading dP^/dP peaks below 3 tables of 3^11 floats and S~
    below 13 (its own 12 columns): the density is a prefix product, not a
    reduction of dense (n, T) factors (12 tables), S~ is divided into a
    fresh price table, not into a second one (24 tables), and each price
    row is formed in place from the row before, not from a list of the
    S_t prefixes (13.5 tables) or from S_T beside S_(T-1) (13.33 tables)."""
    market = MarketParams(horizon=11, **DRIFTED)
    table = 3**11 * np.dtype(float).itemsize
    paths, mmm = price_paths(market), minimal_martingale_measure(market)
    for view, bound in ((lambda: mmm.density, 3), (lambda: paths.discounted, 13)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            view()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < bound * table


def test_measure_is_one_step_law():
    """At T=11 the cached measure holds no per-atom array: only the market,
    the read-only step law w^ (3 floats) and c = theta_1, against 2.8 MB of
    theta and rho prefixes; theta, its dense table and the density are
    built from them on access, bit for bit."""
    market = MarketParams(horizon=11, **DRIFTED)
    n = 3**11
    mmm = minimal_martingale_measure(market)
    assert [f.name for f in fields(mmm)] == ["market", "step_law", "c"]
    assert mmm.step_law.shape == (3,) and isinstance(mmm.c, float)
    with pytest.raises(ValueError, match="read-only"):
        mmm.step_law[...] = 0.0
    for t in range(1, 12):
        assert mmm.theta_prefixes[t - 1].shape == (3 ** (t - 1),)
    assert mmm.theta.shape == (n, 11)
    np.testing.assert_array_equal(mmm.theta, _dense(mmm.theta_prefixes, n))
    assert mmm.density.shape == (n,)
    _assert_derived_views_are_bitwise(market, call_payoff(market, 1.05))


def _stored_arrays(result):
    """Every array a hedging result holds, through its tuples of prefixes."""
    for field in fields(result):
        value = getattr(result, field.name)
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            yield from value


def test_prices_strategies_and_decompositions_are_kept_on_prefixes():
    """At T=11 price_paths, the optimal strategy and the Kunita-Watanabe
    decomposition hold no (n, T) table and no derived quantity: prices keep
    only the riskless A_t, with S and dS~ formed on access, the strategy
    keeps phi and alpha_0, not alpha, the decomposition V, not xi.  The
    strategy keeps under 1 MB of prefixes against 49.6 + 32.6 MB of dense
    tables, the decomposition under 3 MB (its V_T is the claim's own
    table); every dense view is built from the prefixes on access."""
    market = MarketParams(horizon=11, **DRIFTED)
    n = 3**11
    F = call_payoff(market, 1.05)
    paths = price_paths(market)
    strategy, _ = optimal_strategy(market, F, 1.0)
    kw = kunita_watanabe(market, F)
    assert [f.name for f in fields(paths)] == ["market", "riskless"]
    assert [f.name for f in fields(strategy)] == ["market", "phi_prefixes", "alpha0"]
    assert [f.name for f in fields(kw)] == ["market", "f0", "value_prefixes"]
    for t in range(12):
        assert paths.price_prefixes[t].shape == kw.value_prefixes[t].shape == (3**t,)
        assert strategy.alpha_prefixes[t].shape == (3 ** max(t - 1, 0),)
    for t in range(1, 12):
        assert paths.increment_prefixes[t - 1].shape == (3, 3 ** (t - 1))
        assert strategy.phi_prefixes[t - 1].shape == kw.xi_prefixes[t - 1].shape == (3 ** (t - 1),)
    for result in (paths, strategy, kw):
        assert all(arr.size <= n for arr in _stored_arrays(result))
    assert sum(arr.nbytes for arr in _stored_arrays(paths)) == 12 * 8
    assert sum(arr.nbytes for arr in _stored_arrays(strategy)) < 1e6
    assert sum(arr.nbytes for arr in _stored_arrays(kw)) < 3e6
    for arr in _stored_arrays(paths):  # cached and shared by every later hedge
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    views = ((paths.price, paths.price_prefixes), (paths.increments, paths.increment_prefixes),
             (strategy.phi, strategy.phi_prefixes), (strategy.alpha, strategy.alpha_prefixes),
             (kw.xi, kw.xi_prefixes), (np.stack(kw.value, axis=1), kw.value_prefixes))
    for dense, parts in views:
        assert dense.shape == (n, len(parts))
        np.testing.assert_array_equal(dense, _dense(parts, n))
    assert paths.discounted.shape == kw.l_process.shape == (n, 12)
    _assert_derived_views_are_bitwise(market, F)


def test_kunita_watanabe_attainable_claim():
    market = mk()
    paths = price_paths(market)
    F = PathFunctional(market.model_params(), values=paths.discounted[:, -1])
    kw = kunita_watanabe(market, F)
    assert np.max(np.abs(kw.xi - 1.0)) <= 1e-12
    assert np.max(np.abs(kw.l_process)) <= 1e-12
    assert kw.f0 == pytest.approx(1.0, abs=1e-13)


def test_kunita_watanabe_constant_claim():
    market = mk()
    kw = kunita_watanabe(market, PathFunctional.constant(market.model_params(), 2.0))
    assert np.max(np.abs(kw.xi)) <= 1e-13
    assert np.max(np.abs(kw.l_process)) <= 1e-13


@pytest.mark.parametrize("param_set", [MARTINGALE, DRIFTED])
def test_kunita_watanabe_decomposition_properties(param_set):
    market = mk(**param_set)
    params = market.model_params()
    sp = space(params)
    paths = price_paths(market)
    F = PathFunctional(params, values=(jump_count(params) == 0).astype(float))
    kw = kunita_watanabe(market, F)
    total = kw.f0 + (kw.xi * paths.increments).sum(axis=1) + kw.l_process[:, -1]
    assert np.max(np.abs(total - F.table())) <= 1e-10
    for t in range(1, 4):
        dl = kw.l_process[:, t] - kw.l_process[:, t - 1]
        ortho = sp.conditional_expectation(dl * paths.increments[:, t - 1], t - 1)
        mart = sp.conditional_expectation(dl, t - 1)
        assert np.max(np.abs(ortho)) <= 1e-12
        assert np.max(np.abs(mart)) <= 1e-12
        # predictability of the integrand
        atoms = sp.atom_ids(t - 1)
        assert np.max(np.abs(kw.xi[:, t - 1] - kw.xi[atoms, t - 1])) <= 1e-13


def test_optimal_strategy_replicates_attainable_claim():
    market = mk()
    F = PathFunctional(market.model_params(), values=price_paths(market).discounted[:, -1])
    strategy, residual = optimal_strategy(market, F, x=1.0)
    assert np.max(np.abs(strategy.phi - 1.0)) <= 1e-10
    assert residual <= 1e-10


def test_optimal_strategy_constant_claim():
    market = mk()
    strategy, residual = optimal_strategy(
        market, PathFunctional.constant(market.model_params(), 0.8), x=0.8
    )
    assert np.max(np.abs(strategy.phi)) <= 1e-12
    assert residual <= 1e-20


@pytest.mark.parametrize("param_set", [MARTINGALE, DRIFTED])
@pytest.mark.parametrize("horizon", [2, 3, 4])
def test_optimal_strategy_matches_oracle(param_set, horizon, rng):
    market = mk(horizon=horizon, **param_set)
    for trial in range(3):
        F = random_claim(market, rng)
        x = float(rng.uniform(0.0, 2.0))
        _, residual = optimal_strategy(market, F, x)
        _, oracle = ls_oracle(market, F, x)
        assert residual == pytest.approx(oracle, abs=1e-8)
    call = call_payoff(market, 1.05)
    _, residual = optimal_strategy(market, call, 1.0)
    _, oracle = ls_oracle(market, call, 1.0)
    assert residual == pytest.approx(oracle, abs=1e-8)


def test_self_financing(rng):
    market = mk()
    strategy, _ = optimal_strategy(market, random_claim(market, rng), 1.0)
    assert strategy.self_financing_residual() <= 1e-10
    # general a0
    other = mk(a0=3.5)
    strategy2, _ = optimal_strategy(other, random_claim(other, rng), 1.0)
    assert strategy2.self_financing_residual() <= 1e-10


def test_alpha0_is_mmm_price(rng):
    market = mk(**DRIFTED)
    F = call_payoff(market, 1.05)
    strategy, _ = optimal_strategy(market, F, 1.0)
    price = kunita_watanabe(market, F).f0
    assert strategy.alpha[0, 0] == pytest.approx(price, abs=1e-12)


def test_oracle_orthogonal_claim():
    """A claim built from the increment direction orthogonal to the traded
    one cannot be hedged at all: phi = 0 and the residual is its variance."""
    from markedbinomial.basis import delta_r_table
    from markedbinomial import build_basis

    market = mk(horizon=1)
    params = market.model_params()
    sp = space(params)
    basis = build_basis(params)
    k1, km1 = basis.kappa
    brho = market.b - market.a * market.rho
    v1, v2 = market.a * km1, -brho * k1
    claim = v1 * delta_r_table(basis, 1, 1.0) + v2 * delta_r_table(basis, 1, -1.0)
    F = PathFunctional(params, values=claim)
    strategy, residual = ls_oracle(market, F, 0.0)
    assert np.max(np.abs(strategy.phi)) <= 1e-12
    assert residual == pytest.approx(float(sp.expectation(claim**2)), abs=1e-13)


def test_oracle_dominates_random_strategies(rng):
    market = mk(horizon=3, **DRIFTED)
    params = market.model_params()
    sp = space(params)
    paths = price_paths(market)
    F = random_claim(market, rng)
    x = 0.5
    _, oracle = ls_oracle(market, F, x)
    for _ in range(200):
        phi = rng.normal(size=(sp.n, 3))
        for t in range(1, 4):
            phi[:, t - 1] = phi[sp.atom_ids(t - 1), t - 1]  # force predictability
        gain = (phi * paths.increments).sum(axis=1)
        risk = float(sp.expectation((F.table() - x - gain) ** 2))
        assert oracle <= risk + 1e-12


def test_oracle_horizon_cap():
    market = mk(horizon=12)
    with pytest.raises(ValueError, match="caps the horizon"):
        ls_oracle(market, PathFunctional.constant(market.model_params(), 1.0), 0.0)


@pytest.mark.parametrize("kw", [
    dict(DRIFTED, jump_prob=0.999, up_prob=0.999),
    dict(a=-0.46, b=2.96, r=0.027, jump_prob=0.9986, up_prob=0.9922),
], ids=["tradeoff-307", "tradeoff-82"])
def test_oracle_matches_the_recursion_near_arbitrage(kw):
    """Mean-variance tradeoffs of 307 and 82 per step: eliminating the
    normal equations left no positive pivot (first) or a residual 2.5e-5 above
    the recursion's 2.4e-13 (second); the orthogonal elimination agrees."""
    market = mk(horizon=8, **kw)
    assert martingale_diagnostics(market)[1][1] > 80
    F = call_payoff(market, 1.05)
    _, residual = optimal_strategy(market, F, 1.0)
    _, oracle = ls_oracle(market, F, 1.0)
    assert abs(oracle - residual) <= min(1e-9, 1e-6 * residual)


def test_oracle_refuses_pivots_at_the_rounding_level():
    """Jumps at rate 1e-6 over 8 steps: the step-1 pivot falls to about
    1e-31 of its diagonal, below what rounding leaves in a projected column."""
    market = mk(horizon=8, jump_prob=1e-6)
    with pytest.raises(ValueError, match="singular normal matrix: pivot .* rounding level"):
        ls_oracle(market, call_payoff(market, 1.05), 1.0)


def test_t_conditioning_variant_differs_under_drift(rng):
    market = mk(**DRIFTED)
    F = random_claim(market, rng)
    _, residual = optimal_strategy(market, F, 1.0)
    alt = optimal_strategy_t_conditioning(market, F, 1.0)
    assert alt >= residual - 1e-12  # the predictable recursion is the minimizer


@pytest.mark.parametrize("param_set", [MARTINGALE, DRIFTED])
def test_forward_recursions_match_reference_loops(param_set, rng):
    """phi_t = xi_t + theta_t (V_s - x - G_{t-1}) written out from
    V = kunita_watanabe(...).value: s = t-1 for optimal_strategy, s = t for the
    t-conditioning variant; same arithmetic, so equal to the bit."""
    market = mk(horizon=3, **param_set)
    F = random_claim(market, rng)
    x = 0.7
    sp = space(market.model_params())
    increments = price_paths(market).increments
    mmm = minimal_martingale_measure(market)
    kw = kunita_watanabe(market, F)
    xi, v = kw.xi, kw.value
    strategy, residual = optimal_strategy(market, F, x)
    alt = optimal_strategy_t_conditioning(market, F, x)
    for lag, got in ((1, residual), (0, alt)):
        gain = np.zeros(sp.n)
        for t in range(1, 4):
            phi_t = xi[:, t - 1] + mmm.theta[:, t - 1] * (v[t - lag] - x - gain)
            if lag == 1:
                np.testing.assert_array_equal(strategy.phi[:, t - 1], phi_t)
            gain = gain + phi_t * increments[:, t - 1]
        assert got == float(sp.expectation((F.table() - x - gain) ** 2))


def test_trinomial_pgf_equivalence():
    market = mk(**DRIFTED)
    for s in (0.5, 0.9, 1.1, 1.5, 2.0):
        lhs = pgf_ratio_enumerated(market, s)
        rhs = pgf_ratio_trinomial(market, s)
        assert abs(lhs - rhs) <= 1e-12


def test_call_payoff_values():
    market = mk(horizon=2)
    call = call_payoff(market, 1.05)
    paths = price_paths(market)
    assert np.max(np.abs(call.table() - np.maximum(paths.price[:, -1] - 1.05, 0.0))) == 0.0
