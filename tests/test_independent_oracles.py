"""Brute-force oracles that share no code path with the package internals.

Each test rebuilds the object under test from first principles (explicit
transition matrices, design-matrix least squares, complete-basis duality,
dictionary group-bys) and demands pointwise agreement with the package.
"""
from itertools import combinations, product
from math import factorial

import numpy as np
import pytest

from markedbinomial import (
    MarketParams,
    ModelParams,
    PathFunctional,
    build_basis,
    call_payoff,
    divergence,
    dna_functional,
    gradient,
    ls_oracle,
    martingale_diagnostics,
    multiple_integral,
    optimal_strategy,
    price_paths,
    stroock_decompose,
)
from markedbinomial.basis import delta_r_table, delta_z_table
from markedbinomial.cli import main
from markedbinomial.hedging import (
    kunita_watanabe,
    minimal_martingale_measure,
    optimal_strategy_t_conditioning,
    random_claim,
)
from markedbinomial.malliavin import ProcessTable, ou_spectral
from markedbinomial.space import space


def test_ou_semigroup_equals_explicit_transition_matrix(cti, rng):
    """The spectral semigroup must equal the explicit digit-resampling
    Markov kernel P_tau[w, w'] = prod_t [e^-tau 1{d_t = d'_t} + (1-e^-tau) w_{d'_t}]."""
    sp = space(cti)
    for tau in (0.3, 1.2):
        keep = np.exp(-tau)
        step_kernel = keep * np.eye(sp.base) + (1 - keep) * np.tile(sp.step_weights, (sp.base, 1))
        transition = np.ones((sp.n, sp.n))
        for t in range(cti.horizon):
            transition = transition * step_kernel[np.ix_(sp.digits[:, t], sp.digits[:, t])]
        F = rng.normal(size=sp.n)
        expected = transition @ F
        got = ou_spectral(PathFunctional(cti, values=F), tau).table()
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_chaos_coefficients_match_design_matrix_least_squares(cti, rng):
    """Solve F = c_0 + sum over ordered supports c_s * prod dR by plain
    least squares on the explicit (complete, orthogonal) design matrix."""
    basis = build_basis(cti)
    sp = space(cti)
    columns = [np.ones(sp.n)]
    supports = [()]
    for n in range(1, cti.horizon + 1):
        for tset in combinations(range(1, cti.horizon + 1), n):
            for ks in product(cti.marks, repeat=n):
                col = np.ones(sp.n)
                for t, k in zip(tset, ks):
                    col = col * delta_r_table(basis, t, k)
                columns.append(col)
                supports.append(tuple(zip(tset, ks)))
    design = np.stack(columns, axis=1)
    assert design.shape == (27, 27)
    F = rng.normal(size=sp.n)
    solved, *_ = np.linalg.lstsq(design, F, rcond=None)
    coeffs = stroock_decompose(PathFunctional(cti, values=F))
    from math import factorial

    assert coeffs.f0 == pytest.approx(solved[0], abs=1e-10)
    for support, value in zip(supports[1:], solved[1:]):
        n = len(support)
        assert coeffs.kernel(n).get(support, 0.0) == pytest.approx(
            value / factorial(n), abs=1e-10
        )


@pytest.mark.parametrize("family", ["R", "Z"])
@pytest.mark.parametrize("instance", ["cti", "inst2"])
def test_multiple_integral_equals_sum_of_increment_products(request, instance, family, rng):
    """J_n(f) = n! * sum over ordered supports of f * prod of increment
    tables, summed support by support."""
    params = request.getfixturevalue(instance)
    basis = build_basis(params)
    for n in (1, 2, 3):
        kernel = {}
        for tset in combinations(range(1, params.horizon + 1), n):
            for ks in product(params.marks, repeat=n):
                if rng.random() < 0.7:
                    kernel[tuple(zip(tset, ks))] = float(rng.normal())
        expected = np.zeros(params.n_configurations)
        for support, value in kernel.items():
            term = factorial(n) * value * np.ones(params.n_configurations)
            for t, k in support:
                term = term * (delta_r_table(basis, t, k) if family == "R" else delta_z_table(params, t, k))
            expected += term
        got = multiple_integral(basis, kernel, n, family=family).table()
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))


UNSORTED_MARKS = ModelParams(horizon=4, marks=(2.0, -1.0, 0.5), jump_prob=0.4, mark_probs=(0.2, 0.5, 0.3))


@pytest.mark.parametrize("instance", ["inst2", "unsorted_marks"])
def test_decompose_csv_is_sorted_and_rebuilds_the_functional(request, instance, rng, capsys):
    """The CSV rows, parsed back, are sorted by (order, (time, mark value)
    pairs) and f0 + sum n! * value * prod dR gives back the indicator."""
    params = request.getfixturevalue(instance) if instance == "inst2" else UNSORTED_MARKS
    flags = ["--T", str(params.horizon), "--marks", ",".join(map(repr, params.marks)),
             "--lambda", repr(params.jump_prob), "--Q", ",".join(map(repr, params.mark_probs))]
    basis = build_basis(params)
    rank = int(rng.integers(params.n_configurations))
    assert main(["decompose", *flags, "--functional", f"indicator={rank}", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "order,support,value"
    keys, rebuilt = [], np.zeros(params.n_configurations)
    for line in lines[1:]:
        order, label, value = line.split(",")
        points = [(int(t), float(k)) for t, k in (p.split(":") for p in label.split(";") if p)]
        assert len(points) == int(order)
        keys.append((int(order), points))
        term = factorial(int(order)) * float(value) * np.ones(params.n_configurations)
        for t, k in points:
            term = term * delta_r_table(basis, t, k)
        rebuilt += term
    assert keys[0] == (0, []) and keys == sorted(keys)
    expected = np.zeros(params.n_configurations)
    expected[rank] = 1.0
    assert np.max(np.abs(rebuilt - expected)) <= 1e-12


def test_divergence_duality_on_complete_basis(cti, rng):
    """The adjoint relation E[F delta(u)] = sum kappa E[(D F) u] checked on
    every indicator functional is a complete characterization of delta(u)."""
    basis = build_basis(cti)
    sp = space(cti)
    u = ProcessTable.zeros(cti)
    u.values[:] = rng.normal(size=u.values.shape)
    delta_u = divergence(u).table()
    for rank in range(sp.n):
        indicator = np.zeros(sp.n)
        indicator[rank] = 1.0
        F = PathFunctional(cti, values=indicator)
        lhs = float(sp.probabilities[rank] * delta_u[rank])
        rhs = 0.0
        for t in range(1, cti.horizon + 1):
            for j, k in enumerate(cti.marks):
                rhs += basis.kappa[j] * sp.expectation(
                    gradient(F, (t, k)).table() * u.values[:, t - 1, j]
                )
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_conditional_expectation_against_dict_groupby(inst2, rng):
    """Group configurations by their time prefix with plain dictionaries."""
    sp = space(inst2)
    F = rng.normal(size=sp.n)
    for t in (0, 2, 4):
        num: dict = {}
        den: dict = {}
        for rank in range(sp.n):
            key = tuple(sp.digits[rank, :t])
            num[key] = num.get(key, 0.0) + sp.probabilities[rank] * F[rank]
            den[key] = den.get(key, 0.0) + sp.probabilities[rank]
        expected = np.array(
            [num[tuple(sp.digits[r, :t])] / den[tuple(sp.digits[r, :t])] for r in range(sp.n)]
        )
        got = sp.conditional_expectation(F, t)
        assert np.max(np.abs(got - expected)) <= 1e-13


@pytest.mark.parametrize("instance", ["cti", "inst2"])
@pytest.mark.parametrize("perturb", [None, "new-value", "moved-mass"])
def test_dr_law_check_against_dict_groupby(request, instance, perturb, monkeypatch):
    """The dr_identically_distributed residual equals the largest gap between
    the t=1 law and each later law, each tabulated by a dictionary group-by
    over the rounded values, also when a later table takes a value the t=1
    table never takes or moves mass between its atoms."""
    from markedbinomial import basis as basis_mod, diagnostics

    params = request.getfixturevalue(instance)
    sp = space(params)
    exact = basis_mod.delta_r_table

    def table(basis, t, k):
        values = exact(basis, t, k).copy()
        if t == 2 and perturb == "new-value":  # one new atom that outweighs each atom it drains
            values[sp.digits[:, 1] <= 1] = 123.0
        if t == 2 and perturb == "moved-mass":
            values[sp.digits[:, 1] == 0] = values[sp.digits[:, 1] == 1][0]
        return values

    monkeypatch.setattr(basis_mod, "delta_r_table", table)
    basis = build_basis(params)

    def law(values):
        out = {}
        for value, p in zip(np.round(values, 12).tolist(), sp.probabilities.tolist()):
            out[value] = out.get(value, 0.0) + p
        return out

    worst = 0.0
    for k in params.marks:
        ref = law(table(basis, 1, k))
        for t in range(2, params.horizon + 1):
            cur = law(table(basis, t, k))
            worst = max([worst] + [abs(ref.get(v, 0.0) - cur.get(v, 0.0)) for v in set(ref) | set(cur)])
    residual = diagnostics._dr_identically_distributed(diagnostics._Context(params, 0, "dr_identically_distributed"))
    assert residual == worst
    assert (residual > 1e-3) == (perturb is not None)


LEMMA_T6 = ModelParams(horizon=6, marks=(1.0, -1.0), jump_prob=0.4, mark_probs=(0.5, 0.5))


def _lemma_check():
    from markedbinomial import diagnostics

    tolerance = {name: tol for name, tol, _ in diagnostics.CHECKS}["lemma_iterated_gradient"]
    return diagnostics._lemma_iterated_gradient(diagnostics._Context(LEMMA_T6, 0, "lemma_iterated_gradient")), tolerance


def test_lemma_check_takes_one_gradient_per_support(monkeypatch):
    """Supports of order <= 3 at T=6 with 2 marks: 6*2 + 15*4 + 20*8 = 232,
    one gradient each (rebuilding every chain from F would take 612)."""
    from markedbinomial import malliavin

    calls = []
    exact = malliavin.gradient

    def counted(F, point):
        calls.append(point)
        return exact(F, point)

    monkeypatch.setattr(malliavin, "gradient", counted)
    residual, tolerance = _lemma_check()
    assert len(calls) == 232
    assert residual <= tolerance


def test_lemma_check_never_reads_the_chaos_route(monkeypatch):
    """Neither side of the lemma may go through the coefficient tensor: it
    is the chaos route the lemma is checked against."""
    from markedbinomial import chaos, malliavin

    def refuse(*args, **kwargs):
        raise AssertionError("the lemma check must not use the chaos route")

    for module, name in ((chaos, "coefficient_tensor"), (chaos, "stroock_decompose"),
                         (malliavin, "coefficient_tensor")):
        monkeypatch.setattr(module, name, refuse)
    residual, tolerance = _lemma_check()
    assert residual <= tolerance


@pytest.mark.parametrize("side", ["gradient", "delta_r_table"])
def test_lemma_check_fails_when_either_side_is_off_by_a_millionth(side, monkeypatch):
    from markedbinomial import basis as basis_mod, malliavin

    exact_gradient, exact_dr = malliavin.gradient, basis_mod.delta_r_table
    if side == "gradient":
        monkeypatch.setattr(malliavin, "gradient", lambda F, point: PathFunctional(
            F.params, values=exact_gradient(F, point).table() * (1 + 1e-6)))
    else:
        monkeypatch.setattr(basis_mod, "delta_r_table", lambda basis, t, k: exact_dr(basis, t, k) * (1 + 1e-6))
    residual, tolerance = _lemma_check()
    assert residual > tolerance


def test_probabilities_against_explicit_product(cti):
    sp = space(cti)
    lam = cti.jump_prob
    for rank in range(sp.n):
        prob = 1.0
        for digit in sp.digits[rank]:
            prob *= (1 - lam) if digit == 0 else lam * cti.mark_probs[digit - 1]
        assert sp.probabilities[rank] == pytest.approx(prob, rel=1e-14)


@pytest.mark.parametrize("n, alpha", [(100, 0.0), (100, 0.2), (100, 0.65), (100, 0.95), (100, 0.98)])
def test_dna_law_equals_convolution_of_steps(n, alpha):
    """The law of the geometric-marked count as the (n-h+1)-fold convolution
    of one step: no jump w.p. 1 - lam', mark j >= 1 w.p. lam' (1-alpha) alpha^(j-1).
    The mark law keeps every mark with alpha^(j-1) >= 1e-20, and the running
    table is cut to the compared window plus one mark law, since entries
    below the cut never depend on entries above it."""
    h, mu = 5, 0.02
    lamp = (1 - alpha) * mu
    marks = 1 if alpha == 0 else int(np.ceil(np.log(1e-20) / np.log(alpha)))
    step = np.concatenate([[1 - lamp], lamp * (1 - alpha) * alpha ** np.arange(marks)])
    got = dna_functional(n, h, alpha, mu)
    window = len(got) + marks
    expected = np.array([1.0])
    for _ in range(n - h + 1):
        expected = np.convolve(expected, step)[:window]
    assert np.max(np.abs(got - expected[: len(got)])) <= 1e-14
    assert expected[len(got) :].sum() <= 1e-14


# -- the least-squares hedging oracle ------------------------------------------------

MARKETS = {
    "martingale": dict(a=-0.1, b=0.2, r=0.025, jump_prob=0.5, up_prob=0.5),
    "drifted": dict(a=-0.1, b=0.2, r=0.0, jump_prob=0.5, up_prob=0.5),
}


def _dense_least_squares(market, F, x):
    """The normal equations as one dense matrix, one unknown per (t, F_{t-1}
    atom) numbered step by step, summed configuration by configuration with
    np.add.at and solved by lstsq."""
    sp = space(market.model_params())
    inc = price_paths(market).increments
    T = market.horizon
    offsets = np.cumsum([0] + [3 ** (t - 1) for t in range(1, T + 1)])
    cols = np.stack([offsets[t - 1] + np.arange(sp.n) % 3 ** (t - 1) for t in range(1, T + 1)], axis=1)
    weighted = inc * sp.probabilities[:, None]
    gram = np.zeros((offsets[-1], offsets[-1]))
    np.add.at(gram, (cols[:, :, None], cols[:, None, :]), weighted[:, :, None] * inc[:, None, :])
    target = F.table() - x
    rhs = np.zeros(offsets[-1])
    np.add.at(rhs, cols, weighted * target[:, None])
    solution, _, rank, _ = np.linalg.lstsq(gram, rhs, rcond=None)
    assert rank == offsets[-1]
    phi = solution[cols]
    return phi, float(sp.expectation((target - (phi * inc).sum(axis=1)) ** 2))


@pytest.mark.parametrize("market_name", sorted(MARKETS))
@pytest.mark.parametrize("horizon", [1, 2, 4, 6])
def test_ls_oracle_equals_dense_least_squares(market_name, horizon, rng):
    market = MarketParams(horizon=horizon, **MARKETS[market_name])
    claims = [(call_payoff(market, 1.05), 1.0), (random_claim(market, rng), float(rng.uniform(0.0, 2.0)))]
    for F, x in claims:
        strategy, residual = ls_oracle(market, F, x)
        phi, expected = _dense_least_squares(market, F, x)
        assert np.max(np.abs(strategy.phi - phi)) <= 1e-10
        assert abs(residual - expected) <= 1e-10


@pytest.mark.parametrize("market_name", sorted(MARKETS))
@pytest.mark.parametrize("horizon", [9, 10, 11])
def test_ls_oracle_matches_the_recursion_past_the_dense_range(market_name, horizon):
    market = MarketParams(horizon=horizon, **MARKETS[market_name])
    F = call_payoff(market, 1.05)
    _, residual = optimal_strategy(market, F, 1.0)
    _, oracle = ls_oracle(market, F, 1.0)
    assert abs(residual - oracle) <= 1e-9


def test_ls_oracle_never_calls_the_recursion(monkeypatch, rng):
    from markedbinomial import hedging

    market = MarketParams(horizon=4, **MARKETS["drifted"])
    F = random_claim(market, rng)
    expected = ls_oracle(market, F, 0.5)[1]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not use the recursion")

    for name in ("minimal_martingale_measure", "kunita_watanabe",
                 "_forward_gain", "_blocks", "optimal_strategy", "_step_mean", "_dense", "_value_prefixes"):
        monkeypatch.setattr(hedging, name, refuse)
    # the per-block helpers of the forward walk; the price walk itself is the oracle's input
    monkeypatch.setattr(hedging.KWDecomposition, "_xi", refuse)
    monkeypatch.setattr(hedging.MinimalMartingaleMeasure, "_theta", refuse)
    assert ls_oracle(market, F, 0.5)[1] == expected


def test_ls_oracle_refuses_a_singular_normal_matrix(monkeypatch):
    """A step whose increments are all zero leaves its unknowns unconstrained."""
    from markedbinomial import hedging

    exact = hedging.PricePaths.increment_prefixes.fget

    def zeroed(paths):
        increments = list(exact(paths))
        increments[1] = np.zeros_like(increments[1])
        return tuple(increments)

    monkeypatch.setattr(hedging.PricePaths, "increment_prefixes", property(zeroed))
    market = MarketParams(horizon=3, **MARKETS["drifted"])
    with pytest.raises(ValueError, match="singular normal matrix"):
        ls_oracle(market, call_payoff(market, 1.05), 1.0)


# -- the hedging recursion -----------------------------------------------------------

HEDGING_MARKETS = {
    "M1": dict(a=-0.1, b=0.2, r=0.025, jump_prob=0.5, up_prob=0.5),
    "M2": dict(a=-0.1, b=0.2, r=0.0, jump_prob=0.5, up_prob=0.5),
    "M3": dict(a=-0.3, b=0.5, r=0.01, jump_prob=0.3, up_prob=0.7),
    "signed": dict(a=-0.9, b=0.05, r=0.04, jump_prob=0.999, up_prob=0.001),
}


def _dense_hedging(market, F, x):
    """The Foellmer-Schweizer construction on full rank-indexed tables: prices
    by a cumulative product over the digits, every conditional expectation
    through SampleSpace.conditional_expectation."""
    sp = space(market.model_params())
    T, n = market.horizon, sp.n
    cond = sp.conditional_expectation
    growth = np.array([1.0, 1.0 + market.b, 1.0 + market.a])[sp.digits]
    price = np.concatenate([np.ones((n, 1)), np.cumprod(growth, axis=1)], axis=1)
    riskless = (1.0 + market.r) ** np.arange(T + 1)
    inc = np.diff(price / riskless, axis=1)
    theta, factors = np.empty((n, T)), np.empty((n, T))
    for t in range(1, T + 1):
        e1 = cond(inc[:, t - 1], t - 1)
        theta[:, t - 1] = e1 / cond(inc[:, t - 1] ** 2, t - 1)
        factors[:, t - 1] = (1.0 - theta[:, t - 1] * inc[:, t - 1]) / (1.0 - theta[:, t - 1] * e1)
    value = [None] * T + [F.table()]
    for t in range(T, 0, -1):
        value[t - 1] = cond(factors[:, t - 1] * value[t], t - 1)
    xi, l_process = np.empty((n, T)), np.zeros((n, T + 1))
    for t in range(1, T + 1):
        dv = value[t] - value[t - 1]
        xi[:, t - 1] = cond(dv * inc[:, t - 1], t - 1) / cond(inc[:, t - 1] ** 2, t - 1)
        l_process[:, t] = l_process[:, t - 1] + dv - xi[:, t - 1] * inc[:, t - 1]
    residuals, phi = [], np.empty((n, T))
    for lag in (1, 0):
        gain = np.zeros(n)
        for t in range(1, T + 1):
            phi_t = xi[:, t - 1] + theta[:, t - 1] * (value[t - lag] - x - gain)
            if lag == 1:
                phi[:, t - 1] = phi_t
            gain = gain + phi_t * inc[:, t - 1]
        residuals.append(sp.expectation((F.table() - x - gain) ** 2))
    alpha = np.empty((n, T + 1))
    alpha[:, 0] = value[0][0]
    for t in range(1, T + 1):
        step = phi[:, t - 1] - phi[:, max(t - 2, 0)]
        alpha[:, t] = alpha[:, t - 1] - step * price[:, t - 1] / riskless[t - 1]
    return dict(theta=theta, density=factors.prod(axis=1), value=np.stack(value, axis=1), xi=xi,
                l_process=l_process, phi=phi, alpha=alpha, residuals=np.array(residuals))


@pytest.mark.filterwarnings("ignore:minimal martingale measure is signed")
@pytest.mark.parametrize("market_name", sorted(HEDGING_MARKETS))
@pytest.mark.parametrize("horizon", range(1, 7))
def test_hedging_recursion_matches_the_dense_reference(market_name, horizon, rng):
    """Agreement within 1e-12 (1 + K_T) relative, K_T the mean-variance
    tradeoff: each step divides by 1 - theta E[dS~ | F] = 1 / (1 + K_1), so
    rounding grows with it.  K_T is at most 0.5 on M1-M3 and 3,091 on the
    signed market at T=6, whose density both routes give only to about 2e-11
    of 50-digit arithmetic."""
    market = MarketParams(horizon=horizon, **HEDGING_MARKETS[market_name])
    tol = 1e-12 * (1.0 + martingale_diagnostics(market)[1][-1])
    for F, x in ((call_payoff(market, 1.05), 1.0), (random_claim(market, rng), 0.5)):
        expected = _dense_hedging(market, F, x)
        mmm = minimal_martingale_measure(market)
        kw = kunita_watanabe(market, F)
        strategy, residual = optimal_strategy(market, F, x)
        got = dict(theta=mmm.theta, density=mmm.density, value=np.stack(kw.value, axis=1), xi=kw.xi,
                   l_process=kw.l_process, phi=strategy.phi, alpha=strategy.alpha,
                   residuals=np.array([residual, optimal_strategy_t_conditioning(market, F, x)]))
        for name, want in expected.items():
            assert got[name].shape == want.shape, name
            error = np.max(np.abs(got[name] - want) / np.maximum(1.0, np.abs(want)))
            assert error <= tol, f"{name}: {error:.3e}"
        assert mmm.signed == bool(np.any(expected["density"] <= 0.0))


@pytest.mark.filterwarnings("ignore:minimal martingale measure is signed")
@pytest.mark.parametrize("market_name", sorted(HEDGING_MARKETS))
@pytest.mark.parametrize("horizon", range(1, 13))
def test_step_law_matches_the_per_atom_measure(market_name, horizon):
    """The per-atom construction that the step law replaced, theta_t and
    rho_t = (1 - theta_t dS~_t) / (1 - theta_t E[dS~_t | F_{t-1}]) formed on
    every F_{t-1} atom from its own increments.  The tradeoff is
    deterministic, so rho_t is w^ / w on every atom and step up to
    rounding, within 1e-13 (1 + K_1) relative: each factor divides by
    1 - theta E[dS~ | F] = 1 / (1 + K_1).  At step 1 the step law is formed
    by this very expression, so there they agree to the bit.  theta_t =
    c / S~_{t-1} is held to the dense reference's 1e-12 (1 + K_1): on M1,
    a martingale market, both are rounding noise about 5e-14 wide."""
    market = MarketParams(horizon=horizon, **HEDGING_MARKETS[market_name])
    lam, p = market.jump_prob, market.up_prob
    w = np.array([1.0 - lam, lam * p, lam * (1.0 - p)])
    mmm = minimal_martingale_measure(market)
    rho = (mmm.step_law / w)[:, None]
    k1 = martingale_diagnostics(market)[1][1]
    for t, inc in enumerate(price_paths(market).increment_prefixes, start=1):
        e1 = w @ inc / w.sum()
        theta = e1 / (w @ (inc * inc) / w.sum())
        factor = (1.0 - theta * inc) / (1.0 - theta * e1)
        if t == 1:
            np.testing.assert_array_equal(factor, rho)
        assert np.max(np.abs(factor - rho) / np.abs(rho)) <= 1e-13 * (1.0 + k1), t
        theta_error = np.max(np.abs(mmm.theta_prefixes[t - 1] - theta) / np.maximum(1.0, np.abs(theta)))
        assert theta_error <= 1e-12 * (1.0 + k1), t


def _phi_50_digits(market, strike, x):
    """phi_t on the F_{t-1} atoms in 50-digit arithmetic, atom by atom: the
    children of atom c at step t are the ranks d 3^(t-1) + c."""
    import mpmath

    with mpmath.workdps(50):
        mpf = mpmath.mpf
        a, b, r, lam, p = (mpf(v) for v in (market.a, market.b, market.r, market.jump_prob, market.up_prob))
        strike, x = mpf(strike), mpf(x)
        w = [1 - lam, lam * p, lam * (1 - p)]
        growth = [mpf(1), 1 + b, 1 + a]
        T = market.horizon

        def mean(values, k, c):  # E[X | F_{t-1}] on atom c from X on its children
            return sum(w[d] * values(d * k + c) for d in range(3)) / sum(w)

        price, disc = [[mpf(1)]], [[mpf(1)]]
        for t in range(1, T + 1):
            price.append([growth[d] * s for d in range(3) for s in price[-1]])
            disc.append([s / (1 + r) ** t for s in price[-1]])
        inc = [None] + [[disc[t][i] - disc[t - 1][i % 3 ** (t - 1)] for i in range(3**t)] for t in range(1, T + 1)]
        theta, var, factor = [None], [None], [None]
        for t in range(1, T + 1):
            k = 3 ** (t - 1)
            e1 = [mean(lambda i: inc[t][i], k, c) for c in range(k)]
            var.append([mean(lambda i: inc[t][i] ** 2, k, c) for c in range(k)])
            theta.append([e1[c] / var[t][c] for c in range(k)])
            factor.append([(1 - theta[t][i % k] * inc[t][i]) / (1 - theta[t][i % k] * e1[i % k])
                           for i in range(3 * k)])
        value = [None] * T + [[max(s - strike, mpf(0)) for s in price[T]]]
        for t in range(T, 0, -1):
            k = 3 ** (t - 1)
            value[t - 1] = [mean(lambda i: factor[t][i] * value[t][i], k, c) for c in range(k)]
        gain, phis = [mpf(0)], []
        for t in range(1, T + 1):
            k = 3 ** (t - 1)
            xi = [mean(lambda i: (value[t][i] - value[t - 1][c]) * inc[t][i], k, c) / var[t][c] for c in range(k)]
            phi = [xi[c] + theta[t][c] * (value[t - 1][c] - x - gain[c]) for c in range(k)]
            gain = [gain[i % k] + phi[i % k] * inc[t][i] for i in range(3 * k)]
            phis.append(np.array([float(v) for v in phi]))
        return phis


@pytest.mark.parametrize("market_name", ["M1", "M2", "M3"])
def test_optimal_strategy_against_50_digit_arithmetic(market_name):
    pytest.importorskip("mpmath")
    market = MarketParams(horizon=7, **HEDGING_MARKETS[market_name])
    strategy, _ = optimal_strategy(market, call_payoff(market, 1.05), 1.0)
    for t, want in enumerate(_phi_50_digits(market, 1.05, 1.0), start=1):
        got = strategy.phi_prefixes[t - 1]
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13


POINCARE_LAWS = {
    1: ((1.5,), (1.0,), 0.3),
    2: ((1.0, -1.0), (0.5, 0.5), 0.4),
    3: ((-2.0, 1.0, 3.0), (0.3, 0.3, 0.4), 0.45),
    4: ((1.0, 2.0, 3.0, 4.0), (0.1, 0.2, 0.3, 0.4), 0.5),
}


def test_poincare_check_draws_the_stream_of_100_single_functionals(monkeypatch):
    """The chunked draws are 100 single functionals' draws from the check's
    stream, column by column, and leave the stream where those draws leave
    it."""
    from markedbinomial import diagnostics, malliavin

    params = ModelParams(horizon=4, marks=(1.0, -1.0), jump_prob=0.4, mark_probs=(0.5, 0.5))
    tables = []
    planes = malliavin._gradient_planes

    def recording(p, table):
        tables.append(np.array(table))
        return planes(p, table)

    monkeypatch.setattr(malliavin, "_gradient_planes", recording)
    ctx = diagnostics._Context(params, 3, "poincare")
    diagnostics._poincare(ctx)
    single = diagnostics.UniformStream(diagnostics.stream_key(3, "poincare"))
    draws = [single.draw(params.n_configurations) for _ in range(100)]
    assert np.array_equal(np.hstack(tables), np.column_stack(draws))
    assert ctx.stream.position == single.position == 100 * params.n_configurations


def test_poincare_check_fails_on_a_halved_gradient(monkeypatch):
    """Var F <= E sum kappa |DF|^2 has room to spare, but at T=3 the energy
    is at most 3 Var F, so a quarter of it falls below the variance."""
    from markedbinomial import diagnostics, malliavin

    params = ModelParams(horizon=3, marks=(1.0, -1.0), jump_prob=0.5, mark_probs=(0.5, 0.5))
    tolerance = {name: tol for name, tol, _ in diagnostics.CHECKS}["poincare"]
    assert diagnostics._poincare(diagnostics._Context(params, 0, "poincare")) <= tolerance
    exact = malliavin._projection
    monkeypatch.setattr(malliavin, "_projection", lambda p: 0.5 * exact(p))
    assert diagnostics._poincare(diagnostics._Context(params, 0, "poincare")) > tolerance


@pytest.mark.parametrize("n_marks", [1, 2, 3, 4])
def test_batched_gradient_planes_match_gradient_process(n_marks):
    """A batch of functionals through the step-plane contraction gives each
    functional's gradient_process within 4 eps * max|DF| (the batch changes
    the matmul's operand shapes, and BLAS may round differently)."""
    from markedbinomial import gradient_process
    from markedbinomial.malliavin import _gradient_planes

    marks, Q, lam = POINCARE_LAWS[n_marks]
    params = ModelParams(horizon=5, marks=marks, jump_prob=lam, mark_probs=Q)
    sp = space(params)
    X = np.random.default_rng(n_marks).normal(size=(6, sp.n)).T
    DFs = [gradient_process(PathFunctional(params, values=X[:, f].copy())).values for f in range(6)]
    for t, planes in _gradient_planes(params, X):
        for f, DF in enumerate(DFs):
            want = sp.step_view(DF, t)[:, 0, :, t - 1, :]
            scale = 4 * np.finfo(float).eps * np.max(np.abs(DF))
            assert np.max(np.abs(planes[:, :, f, :] - want)) <= scale


def test_poincare_check_peak_memory_stays_below_two_process_tables():
    """At T=8 with 2 marks the check's traced peak stays below two (n, T, m)
    float tables (1.68 MB): it never spreads a gradient over the whole space."""
    import tracemalloc

    from markedbinomial import diagnostics

    params = ModelParams(horizon=8, marks=(1.0, -1.0), jump_prob=0.4, mark_probs=(0.5, 0.5))
    ctx = diagnostics._Context(params, 1, "poincare")
    diagnostics._poincare(diagnostics._Context(params, 1, "poincare"))  # warm the caches
    tracemalloc.start()
    try:
        diagnostics._poincare(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * params.n_configurations * params.horizon * params.n_marks


CLARK_LAWS = {  # the four mark laws of the process-table layout tests
    1: ((1.5,), (1.0,), 0.3),
    2: ((1.0, -1.0), (0.5, 0.5), 0.4),
    3: ((-2.5, 0.5, 3.0), (0.3, 0.3, 0.4), 0.45),
    4: ((1.0, -2.0, 3.0, 0.5), (0.1, 0.2, 0.3, 0.4), 0.5),
}


@pytest.mark.parametrize("n_marks", [1, 2, 3, 4])
@pytest.mark.parametrize("horizon", range(1, 7))
def test_clark_integrand_matches_the_projected_gradient_process(n_marks, horizon):
    """The Clark integrand in both coordinates against the full-table route:
    the gradient spread over the (n, T, m) table, each column projected on
    F_{t-1} by a whole-table conditional expectation, then M^-1 for the
    Z-coordinates; within 8 eps * max|u|."""
    from markedbinomial import gradient_process
    from markedbinomial.malliavin import _project_predictable, clark_integrand, clark_integrand_z

    marks, Q, lam = CLARK_LAWS[n_marks]
    params = ModelParams(horizon, marks, lam, Q)
    F = PathFunctional(params, values=np.random.default_rng(10 * n_marks + horizon).normal(
        size=params.n_configurations))
    u = _project_predictable(gradient_process(F)).values
    # Z-coordinate i is sum_j u(., (t, k^j)) Minv[j, i]
    u_z = u @ build_basis(params).matrix_m_inv
    for got, want in ((clark_integrand(F).values, u), (clark_integrand_z(F).values, u_z)):
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(want))
