"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest -v`` or ``-s`` to see them).

The closed forms that criteria 5 and 7 pin are checked against exact
enumeration: the head-run variance identity and bound, and the
second-difference sup-norm estimate for Stein solutions.  Their
derivations are in the docstrings of ``markedbinomial.stein``
(``head_run_variance_identity``, ``head_run_bound``, ``stein_constants``).
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import markedbinomial as mbp
from markedbinomial.basis import delta_r_table
from markedbinomial.chaos import stroock_decompose, reconstruct
from markedbinomial.diagnostics import run_identity_suite
from markedbinomial.girsanov import girsanov_density_doleans, girsanov_density_varphi
from markedbinomial.hedging import pgf_ratio_enumerated, pgf_ratio_trinomial, random_claim
from markedbinomial.malliavin import clark_reconstruct, ou_mehler_mc, ou_spectral
from markedbinomial.space import jump_count, space
from markedbinomial.stein import (
    compound_stein_solve,
    dna_functional,
    dna_target,
    functional_pmf,
    head_run_bound,
    head_run_functional,
    head_run_lambda0,
    head_run_variance_identity,
    poisson_pmf,
)


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"acceptance[{criterion}]: {status} {detail}".rstrip())


# crit 1 -------------------------------------------------------------------------------

CRIT1_NAMED = [
    "isometry",
    "mecke",
    "ipp_l1",
    "ipp_l2",
    "number_operator_adjoint",
    "product_rules",
    "conditional_truncation",
    "lemma_iterated_gradient",
    "stroock_covariance",
    "poincare",
]


def test_criterion_1_identity_suite(cti, inst2):
    """Exact identity suite on both instances: named residuals <= 1e-10,
    total runtime under 60 s."""
    start = time.time()
    worst = {}
    for params in (cti, inst2):
        results = {r.name: r for r in run_identity_suite(params, seed=101)}
        for name in CRIT1_NAMED:
            worst[name] = max(worst.get(name, 0.0), results[name].residual)
        assert all(r.passed for r in results.values()), [
            (r.name, r.residual) for r in results.values() if not r.passed
        ]
    elapsed = time.time() - start
    ok = elapsed < 60.0 and all(v <= 1e-10 for v in worst.values())
    report("1 identity suite", ok, f"max residual {max(worst.values()):.2e}, {elapsed:.1f}s")
    assert elapsed < 60.0
    for name, value in worst.items():
        assert value <= 1e-10, (name, value)


# crit 2 -------------------------------------------------------------------------------

def test_criterion_2_stroock_clark_roundtrips(cti, inst2):
    worst = 0.0
    for params in (cti, inst2):
        basis = mbp.build_basis(params)
        gen = np.random.default_rng(202)
        for _ in range(20):
            F = mbp.PathFunctional(params, values=gen.normal(size=params.n_configurations))
            back = reconstruct(basis, stroock_decompose(F))
            worst = max(worst, float(np.max(np.abs(back.table() - F.table()))))
            clark = clark_reconstruct(F)
            worst = max(worst, float(np.max(np.abs(clark.table() - F.table()))))
    report("2 stroock/clark round trips", worst <= 1e-9, f"max pointwise error {worst:.2e}")
    assert worst <= 1e-9


# crit 3 -------------------------------------------------------------------------------

def test_criterion_3_mehler_vs_spectral(cti):
    sp = space(cti)
    basis = mbp.build_basis(cti)
    gen = np.random.default_rng(303)
    functionals = [
        mbp.PathFunctional(cti, values=jump_count(cti)),
        mbp.PathFunctional(cti, values=delta_r_table(basis, 1, 1.0) * delta_r_table(basis, 2, 1.0)),
        mbp.PathFunctional(cti, values=gen.normal(size=27)),
    ]
    cells = failures = 0
    stream = 0
    for F in functionals:
        for tau in (0.1, 1.0):
            stream += 1
            spectral = ou_spectral(F, tau).table()
            means, errs = ou_mehler_mc(F, tau, 10**5, stream=stream)
            z = np.abs(means - spectral) / np.maximum(errs, 1e-300)
            failures += int(np.sum(z > 4.0))
            cells += sp.n
    rate = failures / cells
    report("3 mehler vs spectral", rate <= 0.01, f"{failures}/{cells} cells beyond 4 SE")
    assert rate <= 0.01


# crit 4 -------------------------------------------------------------------------------

def test_criterion_4_girsanov(cti, inst2):
    worst_factor = worst_doleans = worst_varphi = 0.0
    cases = [
        (cti, mbp.TargetMeasure(0.5, (0.75, 0.25))),
        (cti, mbp.TargetMeasure(0.35, (0.4, 0.6))),
        (inst2, mbp.TargetMeasure(0.45, (0.3, 0.3, 0.4))),
    ]
    for params, target in cases:
        sp = space(params)
        dens = mbp.girsanov_density(params, target).table()
        target_probs = space(target.as_params(params)).probabilities
        worst_factor = max(worst_factor, float(np.max(
            np.abs(dens * sp.probabilities - target_probs) / target_probs)))
        worst_doleans = max(worst_doleans, float(np.max(
            np.abs(girsanov_density_doleans(params, target).table() - dens))))
        worst_varphi = max(worst_varphi, float(np.max(
            np.abs(girsanov_density_varphi(params, target).table() - dens))))
    ok = worst_factor <= 1e-14 and worst_doleans <= 1e-12 and worst_varphi <= 1e-12
    report("4 girsanov", ok,
           f"factorization {worst_factor:.2e}, exponential route {worst_doleans:.2e}, "
           f"compound route {worst_varphi:.2e}")
    assert worst_factor <= 1e-14
    assert worst_doleans <= 1e-12
    assert worst_varphi <= 1e-12


# crit 5 -------------------------------------------------------------------------------

def test_criterion_5_head_run_mean_and_primary_instance():
    U = head_run_functional(10, 2, 0.5)
    sp = space(U.params)
    assert sp.n == 2**11
    mean = sp.expectation(U.table())
    tv = mbp.exact_tv(functional_pmf(U), poisson_pmf(1.375, 80))
    bound = head_run_bound(10, 2, 0.5)
    ok = abs(mean - 1.375) <= 1e-14 and tv <= bound
    report("5a head run mean + dominance (10,2,0.5)", ok,
           f"E[U]={mean}, TV={tv:.6f} <= bound={bound:.6f}")
    assert mean == pytest.approx(1.375, abs=1e-14)
    assert tv <= bound


def test_criterion_5_head_run_variance_identity():
    """The identity Var[U] = lam0 - b1 = 0.578125 at (10, 2, 0.5).

    Exhaustive enumeration over the 2^11 coin sequences must give the
    same value as the closed form: clump starts at distance <= m are
    mutually exclusive (their products vanish), so each such pair adds
    -P(I_i) P(I_j) to the variance.  The form 1.140625 once pinned here
    counted 2m - 1 = 3 of the q^2 pairs whatever n, not the
    (2m+1)(n-1) - m(m+1) = 39 there are.
    """
    U = head_run_functional(10, 2, 0.5)
    sp = space(U.params)
    mean = sp.expectation(U.table())
    var = sp.expectation(U.table() ** 2) - mean**2
    identity = head_run_variance_identity(10, 2, 0.5)
    ok = abs(var - 0.578125) <= 1e-10 and abs(var - identity) <= 1e-10
    report("5b head run variance identity", ok,
           f"enumerated Var[U]={var}, closed form={identity}")
    assert var == pytest.approx(0.578125, abs=1e-10), (
        f"enumerated Var[U]={var} disagrees with the closed-form identity "
        f"{identity}; the exact value is {var}"
    )


@pytest.mark.parametrize("n,m,p", [(10, 2, 0.5), (8, 2, 0.3), (10, 3, 0.5)])
def test_criterion_5_head_run_dominance(n, m, p):
    """Closed-form bound dominance over the exact total variation.

    The exact distances are 0.2424, 0.0866 and 0.1360 against closed-form
    bounds (1-e^-lam0)/lam0 * b1 of 0.4330, 0.1132 and 0.1893.  An earlier
    form with a q^2 coefficient that did not grow with n gave 0.0480 and
    0.1007 on the last two, below the exact distance.  The exactly
    evaluated bound (criterion-free check in test_stein) dominates as well.
    """
    U = head_run_functional(n, m, p)
    lam0 = head_run_lambda0(n, m, p)
    tv = mbp.exact_tv(functional_pmf(U), poisson_pmf(lam0, 80))
    bound = head_run_bound(n, m, p)
    report(f"5c head run dominance ({n},{m},{p})", tv <= bound,
           f"TV={tv:.6f} vs bound={bound:.6f}")
    assert tv <= bound, f"exact TV {tv:.6f} exceeds the closed-form bound {bound:.6f}"


# crit 6 -------------------------------------------------------------------------------

def test_criterion_6_dna_compound():
    n, h, alpha, mu_w = 50, 5, 0.2, 0.02
    pmf = dna_functional(n, h, alpha, mu_w)
    target = dna_target(n, h, alpha, mu_w)
    tv = mbp.exact_tv(pmf, target.pmf)
    clump_bound = (n - h + 1) * target.d_pc * mu_w**2
    gen = np.random.default_rng(606)
    worst_residual = 0.0
    worst_sup = 0.0
    for _ in range(200):
        mask = gen.random(60) < 0.5
        psi, residual = compound_stein_solve(target, mask, l_max=59)
        worst_residual = max(worst_residual, residual)
        worst_sup = max(worst_sup, float(np.max(np.abs(psi))))
    ok = tv <= clump_bound and worst_residual <= 1e-10 and worst_sup <= target.d_pc
    report("6 dna compound", ok,
           f"TV={tv:.6f} <= {clump_bound:.6f}, residual {worst_residual:.1e}, "
           f"sup {worst_sup:.3f} <= d_pc {target.d_pc:.3f}")
    assert tv <= clump_bound
    assert worst_residual <= 1e-10
    assert worst_sup <= target.d_pc


# crit 7 -------------------------------------------------------------------------------

@pytest.mark.parametrize("lam0", [0.5, 1.0, 1.375, 3.0])
def test_criterion_7_stein_norm_estimates(lam0):
    """All three sup-norm estimates over 200 random sets per intensity.

    The second-difference estimate is 2(1-e^-lam0)/lam0.  The earlier
    form 2(1-e^-lam0)/lam0^2 is exceeded by random sets at lam0 = 1.375
    and 3.0; over all sets its first failure lies between lam0 = 1.2 and
    1.375 (at 1.0 the exact supremum is 1.000 < 1.264).  The 60-digit
    check of the supremum is in test_stein.
    """
    gen = np.random.default_rng(707)
    k_max = int(10 * lam0 + 50)
    worst = {"phi": -np.inf, "grad": -np.inf, "grad2": -np.inf}
    for _ in range(200):
        mask = gen.random(k_max + 1) < 0.5
        sol = mbp.solve_stein_poisson(lam0, mask, k_max=k_max)
        assert sol.residual <= 1e-12
        for key, slack in sol.norm_slacks().items():
            worst[key] = max(worst[key], slack)
    ok = all(v <= 1e-12 for v in worst.values())
    report(f"7 stein norm estimates (lam0={lam0})", ok,
           f"slacks phi {worst['phi']:.2e}, grad {worst['grad']:.2e}, grad2 {worst['grad2']:.2e}")
    assert worst["phi"] <= 1e-12
    assert worst["grad"] <= 1e-12
    assert worst["grad2"] <= 1e-12, (
        f"max |second difference| exceeds the estimate by {worst['grad2']:.3e} at lam0={lam0}"
    )


# crit 8 -------------------------------------------------------------------------------

def test_criterion_8_hedging():
    gen = np.random.default_rng(808)
    worst_gap = 0.0
    worst_kw = 0.0
    for horizon in (2, 3, 4):
        for r in (0.025, 0.0):  # martingale and drifted parameter sets
            market = mbp.MarketParams(a=-0.1, b=0.2, r=r, jump_prob=0.5, up_prob=0.5,
                                      horizon=horizon)
            params = market.model_params()
            sp = space(params)
            paths = mbp.price_paths(market)
            claims = [random_claim(market, gen) for _ in range(5)]
            claims.append(mbp.call_payoff(market, 1.05))
            for F in claims:
                x = float(gen.uniform(0.0, 2.0))
                _, residual = mbp.optimal_strategy(market, F, x)
                _, oracle = mbp.ls_oracle(market, F, x)
                worst_gap = max(worst_gap, abs(residual - oracle))
                kw = mbp.kunita_watanabe(market, F)
                total = kw.f0 + (kw.xi * paths.increments).sum(axis=1) + kw.l_process[:, -1]
                worst_kw = max(worst_kw, float(np.max(np.abs(total - F.table()))))
                for t in range(1, horizon + 1):
                    dl = kw.l_process[:, t] - kw.l_process[:, t - 1]
                    ortho = sp.conditional_expectation(dl * paths.increments[:, t - 1], t - 1)
                    worst_kw = max(worst_kw, float(np.max(np.abs(ortho))))
    # attainable claim under martingale parameters
    market = mbp.MarketParams(a=-0.1, b=0.2, r=0.025, jump_prob=0.5, up_prob=0.5, horizon=3)
    F = mbp.PathFunctional(market.model_params(), values=mbp.price_paths(market).discounted[:, -1])
    strategy, residual = mbp.optimal_strategy(market, F, x=1.0)
    attainable_ok = np.max(np.abs(strategy.phi - 1.0)) <= 1e-10 and residual <= 1e-10
    pgf_gap = max(
        abs(pgf_ratio_enumerated(market, s) - pgf_ratio_trinomial(market, s))
        for s in (0.5, 0.9, 1.1, 1.5, 2.0)
    )
    ok = worst_gap <= 1e-8 and attainable_ok and worst_kw <= 1e-10 and pgf_gap <= 1e-12
    report("8 hedging", ok,
           f"oracle gap {worst_gap:.2e}, KW residual {worst_kw:.2e}, pgf gap {pgf_gap:.2e}")
    assert worst_gap <= 1e-8
    assert attainable_ok
    assert worst_kw <= 1e-10
    assert pgf_gap <= 1e-12


# crit 9 -------------------------------------------------------------------------------

def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "markedbinomial.cli", *args],
                          capture_output=True, text=True)


def test_criterion_9_cli_determinism():
    verify_args = ["verify", "--T", "3", "--marks", "1,-1", "--lambda", "0.5",
                   "--Q", "0.5,0.5", "--seed", "17", "--no-timestamp"]
    headrun_args = ["stein", "headrun", "--n", "10", "--m", "2", "--p", "0.5",
                    "--seed", "17", "--no-timestamp"]
    pairs = [(_run_cli(a), _run_cli(a)) for a in (verify_args, headrun_args)]
    identical = all(first.stdout == second.stdout for first, second in pairs)
    codes_ok = pairs[0][0].returncode == 0 and pairs[1][0].returncode == 0
    report("9 cli determinism", identical and codes_ok, "verify + stein headrun byte-identical")
    assert identical
    assert codes_ok
    assert json.loads(pairs[1][0].stdout)["lambda0"] == 1.375
