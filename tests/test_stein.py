import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from markedbinomial import (
    CompoundTarget,
    ModelParams,
    PathFunctional,
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
from markedbinomial.space import space
from markedbinomial.stein import (
    compound_pmf,
    compound_poisson_bound_details,
    dna_lambda0,
    dna_target,
    functional_pmf,
    head_run_lambda0,
    head_run_params,
    head_run_variance_identity,
    poisson_pmf,
)


# -- constants ----------------------------------------------------------------------

def test_stein_constants_at_one():
    sup, grad, grad2 = stein_constants(1.0)
    assert sup == pytest.approx(math.sqrt(2.0 / math.e), abs=1e-15)
    assert sup == pytest.approx(0.857763, abs=1e-6)
    assert grad == pytest.approx(0.632121, abs=1e-6)
    assert grad2 == pytest.approx(1.264241, abs=1e-6)


def test_stein_constants_large_lambda():
    sup, _, _ = stein_constants(50.0)
    assert sup == pytest.approx(math.sqrt(2.0 / (math.e * 50.0)))


def test_stein_constants_1375():
    _, grad, _ = stein_constants(1.375)
    assert grad == pytest.approx((1.0 - math.exp(-1.375)) / 1.375, abs=1e-15)
    assert grad == pytest.approx(0.543390, abs=1e-6)
    with pytest.raises(ValueError, match="positive"):
        stein_constants(0.0)


# -- Poisson Stein solver --------------------------------------------------------------

def test_solver_empty_and_full_sets():
    sol = solve_stein_poisson(1.0, [])
    assert np.all(sol.phi == 0.0)
    full = solve_stein_poisson(1.0, range(sol.k_max + 1))
    assert np.max(np.abs(full.phi)) <= 1e-13


def test_solver_singleton_zero_set():
    sol = solve_stein_poisson(1.0, [0], k_max=50)
    assert sol.residual <= 1e-12
    # the forward-difference bound is attained at A = {0}
    assert np.max(np.abs(sol.grad)) <= (1.0 - math.exp(-1.0)) + 1e-12
    assert sol.phi[1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-13)


@given(st.sets(st.integers(min_value=0, max_value=60), max_size=40))
def test_solver_random_sets_residual_and_bounds(A):
    sol = solve_stein_poisson(1.0, sorted(A))
    b_sup, b_grad, _ = stein_constants(1.0)
    assert sol.residual <= 1e-12
    assert np.max(np.abs(sol.phi[: sol.k_max + 1])) <= b_sup + 1e-12
    assert np.max(np.abs(sol.grad)) <= b_grad + 1e-12


def test_solver_second_difference_bound_small_lambda(rng):
    b_sup, b_grad, b_grad2 = stein_constants(0.5)
    for _ in range(100):
        mask = rng.random(56) < 0.5
        sol = solve_stein_poisson(0.5, mask)
        slacks = sol.norm_slacks()
        assert slacks["phi"] <= 1e-12
        assert slacks["grad"] <= 1e-12
        assert slacks["grad2"] <= 1e-12


def _singleton_phis_60_digits(mpmath, lam0: float, k_max: int) -> list[list]:
    """phi_{j}(0..k_max+1) for every singleton {j}, j = 0..k_max, from the
    closed form in 60-digit arithmetic; the tails come from the regularized
    incomplete gamma function, so none is formed as 1 - cdf."""
    lam = mpmath.mpf(lam0)
    pmf = [mpmath.exp(-lam) * lam**k / mpmath.factorial(k) for k in range(k_max + 1)]
    cdf = [mpmath.gammainc(k + 1, lam, mpmath.inf, regularized=True) for k in range(k_max + 1)]
    sf = [mpmath.gammainc(k + 1, 0, lam, regularized=True) for k in range(k_max + 1)]
    return [
        [mpmath.mpf(0)] + [(pmf[j] * sf[k] if j <= k else -pmf[j] * cdf[k]) / (lam * pmf[k])
                           for k in range(k_max + 1)]
        for j in range(k_max + 1)
    ]


@pytest.mark.parametrize("lam0", [1.375, 3.0])
def test_solver_and_second_difference_supremum_60_digits(lam0, rng):
    """The solver against 60-digit arithmetic, and the exact supremum of
    |grad^2 phi_A| over all sets A in 0..k_max.

    phi_A is linear in A, so grad^2 phi_A(k) = sum_{j in A} grad^2 phi_{j}(k)
    and the supremum over A at each k is the larger of the positive part
    sum and the negative part sum over singletons.  It lies above the
    earlier estimate 2(1-e^-lam0)/lam0^2 and below 2(1-e^-lam0)/lam0.
    """
    mpmath = pytest.importorskip("mpmath")
    k_max = int(10 * lam0 + 50)
    with mpmath.workdps(60):
        phis = _singleton_phis_60_digits(mpmath, lam0, k_max)
        for j in range(k_max + 1):
            sol = solve_stein_poisson(lam0, [j], k_max=k_max)
            assert np.max(np.abs(sol.phi - np.array(phis[j], dtype=float))) <= 1e-13
        for _ in range(5):
            mask = rng.random(k_max + 1) < 0.5
            exact = [mpmath.fsum(phis[j][k] for j in np.flatnonzero(mask)) for k in range(k_max + 2)]
            sol = solve_stein_poisson(lam0, mask, k_max=k_max)
            assert np.max(np.abs(sol.phi - np.array(exact, dtype=float))) <= 1e-13
        sup = mpmath.mpf(0)
        for k in range(k_max):
            col = [row[k + 2] - 2 * row[k + 1] + row[k] for row in phis]
            sup = max(sup, mpmath.fsum(c for c in col if c > 0), -mpmath.fsum(c for c in col if c < 0))
    sup = float(sup)
    old_estimate = 2.0 * (1.0 - math.exp(-lam0)) / lam0**2
    assert old_estimate < sup <= stein_constants(lam0)[2]
    assert sup == pytest.approx({1.375: 0.8755, 3.0: 0.5445}[lam0], abs=5e-5)


def test_first_difference_inequality(rng):
    """|phi(k) - phi(a) - grad phi(a)(k-a)| <= sup|grad2|/2 |(k-a)(k-a-1)|."""
    for lam0 in (0.5, 1.375):
        mask = rng.random(41) < 0.5
        sol = solve_stein_poisson(lam0, mask, k_max=42)
        grad2_sup = np.max(np.abs(sol.grad2))
        for k in range(41):
            for a in range(41):
                lhs = abs(sol.phi[k] - sol.phi[a] - (sol.phi[a + 1] - sol.phi[a]) * (k - a))
                rhs = 0.5 * grad2_sup * abs((k - a) * (k - a - 1))
                assert lhs <= rhs + 1e-12


def test_solver_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        solve_stein_poisson(-1.0, [0])
    with pytest.raises(ValueError, match="outside"):
        solve_stein_poisson(1.0, [1000], k_max=10)


# -- Poisson approximation bound ----------------------------------------------------------

def test_poisson_bound_binomial_dominates():
    params = ModelParams(horizon=5, marks=(1.0,), jump_prob=0.2, mark_probs=(1.0,))
    sp = space(params)
    F = PathFunctional(params, values=sp.jump_count())
    bound = poisson_bound(F, 1.0)
    tv = exact_tv(functional_pmf(F), poisson_pmf(1.0, 60))
    assert tv <= bound + 1e-12
    # first term only: the tilde-gradient of a count is an indicator, so the
    # second term vanishes and the bound is (1-e^-1) * E|0.2 N_5|
    assert bound == pytest.approx((1.0 - math.exp(-1.0)) * 0.2, abs=1e-12)


def test_poisson_bound_single_bernoulli_step():
    params = ModelParams(horizon=1, marks=(1.0,), jump_prob=0.5, mark_probs=(1.0,))
    sp = space(params)
    F = PathFunctional(params, values=sp.jump_count())
    bound = poisson_bound(F, 0.5)
    tv = exact_tv(functional_pmf(F), poisson_pmf(0.5, 40))
    assert tv <= bound + 1e-12


def test_poisson_bound_guards(cti, rng):
    sp = space(cti)
    with pytest.raises(ValueError, match="mark-space size"):
        poisson_bound(PathFunctional(cti, values=sp.jump_count()), 1.5)
    params = ModelParams(horizon=3, marks=(1.0,), jump_prob=0.5, mark_probs=(1.0,))
    sp1 = space(params)
    signed = PathFunctional(params, values=np.where(sp1.jump_count() > 1, 1.0, -1.0))
    with pytest.raises(ValueError, match="Z\\+-valued"):
        poisson_bound(signed, 1.5)
    counts = PathFunctional(params, values=sp1.jump_count())
    with pytest.raises(ValueError, match="mean mismatch"):
        poisson_bound(counts, 2.0)


# -- compound Poisson machinery --------------------------------------------------------------

def test_compound_pmf_against_poisson_mixture():
    """Independent oracle: P(S=s) = sum_j Poi(lam0, j) * (gv convolved j times)(s)."""
    lam0 = 0.8
    gv = 0.8 * 0.2 ** np.arange(30)
    panjer = compound_pmf(lam0, gv, 40)
    mixture = np.zeros(40)
    conv = np.zeros(40)
    conv[0] = 1.0
    mixture += math.exp(-lam0) * conv
    step = np.concatenate([[0.0], gv])
    for j in range(1, 60):
        conv = np.convolve(conv, step)[:40]
        mixture += math.exp(-lam0) * lam0**j / math.factorial(j) * conv
    assert np.max(np.abs(panjer - mixture)) <= 1e-14


def test_compound_target_validation():
    target = CompoundTarget.polya_aeppli(0.8, 0.2)
    assert 1.0 - target.pmf.sum() <= 1e-12
    assert target.d_pc == pytest.approx(min(1.0, 1.0 / (0.8 * 0.8)) * math.exp(0.8))
    with pytest.raises(ValueError, match="sum to 1"):
        CompoundTarget(1.0, np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="alpha"):
        CompoundTarget.polya_aeppli(1.0, 1.0)


def test_compound_target_refuses_defective_mark_law_up_front():
    """A mark law missing 5e-10 passes the sum check but caps the compound
    mass at exp(-5e-10), so the tail tolerance can never be reached."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="misses"):
        CompoundTarget(1.0, np.array([0.5, 0.5 - 5e-10]))
    assert time.perf_counter() - start < 1.0


def test_compound_target_sum_message_prints_a_plain_float():
    with pytest.raises(ValueError, match=r"got 0\.9\d*$"):
        CompoundTarget(1.0, np.array([0.5, 0.4]))


@pytest.mark.parametrize("alpha, marks", [(0.0, 1), (0.1, 18), (0.2, 25), (0.5, 57), (0.9, 372), (0.98, 1938)])
def test_polya_aeppli_truncation_derived_from_alpha(alpha, marks):
    """The mark law keeps the first c marks with alpha^c <= 1e-17."""
    target = CompoundTarget.polya_aeppli(0.5, alpha)
    assert len(target.mark_pmf) == marks
    if alpha > 0.0:
        assert alpha**marks <= 1e-17 < alpha ** (marks - 1)
    assert 1.0 - target.pmf.sum() <= 1e-12


def test_compound_target_alpha_zero_is_poisson():
    target = CompoundTarget.polya_aeppli(1.3, 0.0)
    assert np.max(np.abs(target.pmf - poisson_pmf(1.3, len(target.pmf) - 1))) <= 1e-13


def test_compound_solver_empty_set():
    target = CompoundTarget.polya_aeppli(0.8, 0.2)
    psi, residual = compound_stein_solve(target, [], l_max=50)
    assert np.all(psi == 0.0)
    assert residual == 0.0


def test_compound_solver_delta1_reduces_to_poisson(rng):
    """With unit marks the compound equation is the Poisson equation; away
    from the truncation boundary the solutions agree."""
    lam0 = 0.8
    target = CompoundTarget(lam0, np.array([1.0]))
    mask = rng.random(61) < 0.5
    psi, residual = compound_stein_solve(target, mask, l_max=110)
    assert residual <= 1e-10
    # same spec evaluated against the compound pmf (== Poisson pmf here)
    sol_mask = np.zeros(111, dtype=bool)
    sol_mask[:61] = mask
    phi = solve_stein_poisson(lam0, sol_mask, k_max=110).phi
    assert np.max(np.abs(psi[1:61] - phi[1:61])) <= 1e-10


def test_compound_solver_residual_and_sup(rng):
    target = CompoundTarget.polya_aeppli(0.8, 0.35)
    for _ in range(50):
        mask = rng.random(60) < 0.5
        psi, residual = compound_stein_solve(target, mask, l_max=59)
        assert residual <= 1e-10
        assert np.max(np.abs(psi)) <= target.d_pc + 1e-12


def _compound_model(horizon, lam, marks, probs, seed=0):
    return ModelParams(horizon=horizon, marks=marks, jump_prob=lam,
                       mark_probs=probs, rng_seed=seed)


def test_compound_bound_enumeration_matches_iid_route():
    params = _compound_model(4, 0.1, (1.0, 2.0), (0.7, 0.3))
    target = CompoundTarget(0.4, np.array([0.7, 0.3]))
    sp = space(params)
    F = PathFunctional(params, values=sp.compound_sum())
    via_table = compound_poisson_bound(F, target)
    via_params = compound_poisson_bound(params, target)
    assert via_table == pytest.approx(via_params, abs=1e-12)


def test_compound_bound_per_set_identity():
    """For a first-chaos compound sum the evaluated term equals the
    probability gap |P(F in A) - PC(A)| for each set."""
    params = _compound_model(4, 0.1, (1.0, 2.0), (0.7, 0.3))
    target = CompoundTarget(0.4, np.array([0.7, 0.3]))
    sp = space(params)
    F = PathFunctional(params, values=sp.compound_sum())
    pmf = functional_pmf(F)
    mask = np.zeros(12, dtype=bool)
    mask[[1, 3, 4]] = True
    bound, _ = compound_poisson_bound_details(params, target, a_family=[mask])
    gap = abs(pmf[:12][mask[: len(pmf)]].sum() - target.prob_of(mask))
    assert bound == pytest.approx(gap, abs=1e-12)


def test_compound_bound_dominates_tv_long_horizon():
    """T = 30 instance evaluated through iid convolutions only."""
    params = _compound_model(30, 0.05, (1.0, 2.0, 3.0), (0.6, 0.3, 0.1))
    target = CompoundTarget(1.5, np.array([0.6, 0.3, 0.1]))
    bound = compound_poisson_bound(params, target)
    step = np.zeros(4)
    step[0] = 0.95
    step[1:] = 0.05 * np.array([0.6, 0.3, 0.1])
    pmf = np.array([1.0])
    for _ in range(30):
        pmf = np.convolve(pmf, step)
    tv = exact_tv(pmf, target.pmf)
    assert tv <= bound + 1e-12
    assert bound <= 0.2  # sanity: the approximation is actually decent


def test_compound_bound_degenerate_marks():
    """V == 1: the compound sum is a plain count and the target is Poisson."""
    params = _compound_model(6, 0.15, (1.0,), (1.0,))
    target = CompoundTarget(0.9, np.array([1.0]))
    sp = space(params)
    F = PathFunctional(params, values=sp.compound_sum())
    bound = compound_poisson_bound(F, target)
    tv = exact_tv(functional_pmf(F), target.pmf)
    assert tv <= bound + 1e-12


def test_compound_bound_rejects_non_first_chaos():
    params = _compound_model(3, 0.2, (1.0, 2.0), (0.5, 0.5))
    sp = space(params)
    squared = PathFunctional(params, values=sp.compound_sum() ** 2)
    target = CompoundTarget(0.6, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="unsupported functional form"):
        compound_poisson_bound(squared, target)
    shifted = PathFunctional(params, values=sp.compound_sum() + 1.0)
    with pytest.raises(ValueError, match="unsupported functional form"):
        compound_poisson_bound(shifted, target)
    with pytest.raises(ValueError, match="mean mismatch"):
        compound_poisson_bound(params, CompoundTarget(0.5, np.array([0.5, 0.5])))


# -- head runs ----------------------------------------------------------------------------

def test_head_run_single_clump_is_bernoulli():
    U = head_run_functional(1, 3, 0.4)
    pmf = functional_pmf(U)
    assert pmf[0] == pytest.approx(1.0 - 0.4**3, abs=1e-12)
    assert pmf[1] == pytest.approx(0.4**3, abs=1e-12)


def test_head_run_mean_10_2():
    U = head_run_functional(10, 2, 0.5)
    sp = space(U.params)
    assert sp.n == 2**11
    assert sp.expectation(U.table()) == pytest.approx(1.375, abs=1e-12)
    assert head_run_lambda0(10, 2, 0.5) == pytest.approx(1.375)


def test_head_run_variance_identity_value():
    # at (10, 2, 0.5): lam0 = 1/4 * (1 + 9/2) = 1.375 and
    # b1 = p^4 [1 + 2*2*q + (9 + 2*(8 + 7)) q^2] = (1 + 2 + 39/4) / 16 = 0.796875,
    # so Var U = 1.375 - 0.796875 = 0.578125
    assert head_run_variance_identity(10, 2, 0.5) == pytest.approx(0.578125, abs=1e-12)


def test_head_run_bound_value_and_primary_dominance():
    bound = head_run_bound(10, 2, 0.5)
    # (1 - e^-lam0)/lam0 * b1 with lam0 = 1.375 and b1 = 0.796875 (see above)
    assert bound == pytest.approx((1.0 - math.exp(-1.375)) / 1.375 * 0.796875, abs=1e-15)
    assert bound == pytest.approx(0.433013, abs=5e-7)
    U = head_run_functional(10, 2, 0.5)
    tv = exact_tv(functional_pmf(U), poisson_pmf(1.375, 64))
    assert tv <= bound


def test_head_run_bound_small_p_leading_order():
    # as p -> 0, (1-e^-lam0)/lam0 -> 1 and q -> 1, so the bound is b1 to
    # leading order: p^{2m} [1 + 2m + (n-1)(2m+1) - m(m+1)] = 72 p^6 at
    # (n, m) = (12, 3); relative corrections are O(p)
    m, n = 3, 12
    p = 1e-4
    lead = 1 + 2 * m + (n - 1) * (2 * m + 1) - m * (m + 1)
    assert lead == 72
    assert head_run_bound(n, m, p) == pytest.approx(lead * p ** (2 * m), rel=1e-3, abs=0)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.8])
def test_head_run_closed_forms_match_enumeration(p):
    """Variance identity and closed-form bound against exact enumeration,
    including the cases n <= m where fewer than m later starts exist."""
    for n in range(1, 9):
        for m in range(1, 5):
            U = head_run_functional(n, m, p)
            sp = space(U.params)
            table = U.table()
            mean = sp.expectation(table)
            var = sp.expectation(table**2) - mean**2
            assert head_run_variance_identity(n, m, p) == pytest.approx(var, abs=1e-12), (n, m)
            lam0 = head_run_lambda0(n, m, p)
            tv = exact_tv(functional_pmf(U), poisson_pmf(lam0, 80))
            assert head_run_bound(n, m, p) >= tv - 1e-12, (n, m)


def test_head_run_exact_bound_dominates_everywhere():
    """The exactly evaluated bound dominates the true distance on all
    instances, including those where the closed form fails."""
    for (n, m, p) in [(10, 2, 0.5), (8, 2, 0.3), (10, 3, 0.5)]:
        U = head_run_functional(n, m, p)
        lam0 = head_run_lambda0(n, m, p)
        bound = poisson_bound(U, lam0)
        tv = exact_tv(functional_pmf(U), poisson_pmf(lam0, 80))
        assert tv <= bound + 1e-12


def test_head_run_monte_carlo_mode(monkeypatch):
    from markedbinomial.stein import _head_run_values

    monkeypatch.setenv("MBP_ENUM_CAP", "100")
    with pytest.raises(ValueError, match="2048 configurations exceeds cap 100"):
        head_run_functional(10, 2, 0.5, rng_seed=991)  # fresh params: skip the cache
    digits = np.ones(11, dtype=np.int8)
    assert float(_head_run_values(digits, 10, 2)) == 1.0  # one clump starting at position 1


def _head_run_float_formula(digits, n, m):
    """The clump count from a float jump table and product windows."""
    jumps = (digits > 0).astype(float)
    u = np.prod(jumps[..., :m], axis=-1)
    for i in range(1, n):
        u = u + (1.0 - jumps[..., i - 1]) * np.prod(jumps[..., i : i + m], axis=-1)
    return u


@pytest.mark.parametrize("n, m", [(1, 1), (4, 2), (6, 3), (8, 2)])
def test_head_run_values_are_bit_equal_to_the_float_formula(n, m):
    """The bool windows give the float formula's bits on the exact digit
    table, on a Monte Carlo batch and on a single digit row."""
    from markedbinomial.space import sample_digits
    from markedbinomial.stein import _head_run_values

    params = head_run_params(n, m, 0.6)
    batches = [space(params).digits, sample_digits(params, 500, stream=4)]
    for digits in batches:
        assert _head_run_values(digits, n, m).tobytes() == _head_run_float_formula(digits, n, m).tobytes()
    row = batches[1][0]
    assert float(_head_run_values(row, n, m)) == float(_head_run_float_formula(row, n, m))
    U = head_run_functional(n, m, 0.6)
    assert U.table().tobytes() == _head_run_float_formula(space(params).digits, n, m).tobytes()


def test_head_run_rejects_bad_args():
    with pytest.raises(ValueError):
        head_run_params(0, 2, 0.5)
    with pytest.raises(ValueError):
        head_run_params(5, 2, 1.0)


# -- DNA word counts ------------------------------------------------------------------------

def test_dna_lambda0_and_bound_values():
    assert dna_lambda0(1000, 5, 0.2, 0.001) == pytest.approx(0.7968, abs=1e-12)
    target = dna_target(1000, 5, 0.2, 0.001)
    # exp(0.7968) = 2.21843...; asserted against the formula, loosely against
    # the commonly quoted 2.2186 print
    assert target.d_pc == pytest.approx(math.exp(0.7968), rel=1e-12)
    assert target.d_pc == pytest.approx(2.2186, abs=3e-4)
    assert dna_bound(1000, 5, 0.2, 0.001) == pytest.approx(0.012210, abs=5e-7)


def test_dna_alpha_zero_reduces_to_binomial_poisson():
    pmf = dna_functional(50, 5, 0.0, 0.02)
    lam0 = dna_lambda0(50, 5, 0.0, 0.02)
    binom = np.array([math.comb(46, k) * 0.02**k * 0.98 ** (46 - k) for k in range(len(pmf))])
    assert np.max(np.abs(pmf - binom)) <= 1e-13
    target = dna_target(50, 5, 0.0, 0.02)
    assert np.max(np.abs(target.pmf - poisson_pmf(lam0, len(target.pmf) - 1))) <= 1e-13


def test_dna_instance_dominance():
    n, h, alpha, mu_w = 50, 5, 0.2, 0.02
    pmf = dna_functional(n, h, alpha, mu_w)
    target = dna_target(n, h, alpha, mu_w)
    tv = exact_tv(pmf, target.pmf)
    assert tv <= (n - h + 1) * target.d_pc * mu_w**2


def test_dna_law_moments_past_the_target_limit():
    """At alpha = 0.999 no convolution is feasible (the mark law needs about
    39,000 marks): the exact law still has mass 1, mean N mu and variance
    N (lam' E[V^2] - lam'^2 E[V]^2), E[V] = 1/(1-alpha), E[V^2] = (1+alpha)/(1-alpha)^2."""
    n, h, alpha, mu_w = 100, 5, 0.999, 0.02
    big_n, lamp = n - h + 1, (1 - alpha) * mu_w
    pmf = dna_functional(n, h, alpha, mu_w)
    x = np.arange(len(pmf))
    mean = float(np.dot(x, pmf))
    variance = float(np.dot((x - mean) ** 2, pmf))
    e_v, e_v2 = 1 / (1 - alpha), (1 + alpha) / (1 - alpha) ** 2
    assert pmf.sum() == pytest.approx(1.0, rel=1e-10)
    assert mean == pytest.approx(big_n * mu_w, rel=1e-10)
    assert variance == pytest.approx(big_n * (lamp * e_v2 - lamp**2 * e_v**2), rel=1e-10)


def test_dna_law_at_a_billion_positions():
    """The weights run from P(K = 0) by their ratio and stop past the mode,
    so N = 10^9 builds no table of length N."""
    start = time.perf_counter()
    pmf = dna_functional(10**9, 5, 0.5, 1e-9)
    assert time.perf_counter() - start < 1.0
    assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
    assert float(np.dot(np.arange(len(pmf)), pmf)) == pytest.approx((10**9 - 4) * 1e-9, rel=1e-12)


@pytest.mark.parametrize("call, match", [
    (lambda: CompoundTarget(750.0, [1.0]), "lam0 = 750"),
    (lambda: dna_target(100000, 5, 0.2, 0.01), "lam0 = 799.968"),
    (lambda: dna_functional(1210, 5, 0.0, 0.5), "smallest normal float"),
], ids=["target", "dna-target", "pmf-weights"])
def test_refuses_underflow_up_front(call, match):
    """e^-lam0 (the Panjer start) or (1-lam')^N below the smallest normal
    float would make every table entry 0, so each is refused before any
    table is built."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        call()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("call, match", [
    (lambda: dna_target(50, 5, 0.999, 0.02), "geometric marks"),
    (lambda: dna_functional(50, 5, 1 - 1e-8, 0.02), "exact pmf longer than"),
], ids=["target-alpha", "pmf-alpha"])
def test_dna_refuses_mark_laws_past_the_limit(call, match):
    """The target refuses a mark law wider than MAX_GEOMETRIC_MARKS; the
    untruncated exact pmf refuses an alpha whose table would pass
    MAX_PMF_LENGTH and run for minutes.  Both refuse before any table."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        call()
    assert time.perf_counter() - start < 1.0


def test_dna_validation():
    with pytest.raises(ValueError, match="mu_w"):
        dna_target(50, 5, 0.2, 1.5)
    with pytest.raises(ValueError, match="0 < h < n"):
        dna_target(50, 50, 0.2, 0.02)
    with pytest.raises(ValueError):
        dna_bound(50, 5, 1.0, 0.02)
    with pytest.raises(ValueError):
        dna_bound(50, 50, 0.2, 0.02)
    with pytest.raises(ValueError):
        dna_bound(50, 5, 0.2, 0.0)


# -- exact total variation ---------------------------------------------------------------------

def test_exact_tv_basic():
    assert exact_tv([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert exact_tv([1.0], [0.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        exact_tv([-0.1, 1.1], [0.5, 0.5])


def test_exact_tv_bernoulli_vs_poisson():
    bern = np.array([0.5, 0.5])
    pois = poisson_pmf(0.5, 40)
    tv = exact_tv(bern, pois)
    assert tv == pytest.approx(0.5 - 0.5 * math.exp(-0.5), abs=1e-12)
    # cross-check against the direct supremum over subsets of {0..40}
    width = 41
    a = np.pad(bern, (0, width - 2))
    sup = float(np.maximum(a - pois, 0.0).sum())
    assert tv == pytest.approx(sup, abs=1e-12)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
)
def test_exact_tv_properties(raw_a, raw_b):
    a = np.asarray(raw_a)
    b = np.asarray(raw_b)
    if a.sum() == 0.0 or b.sum() == 0.0:
        return
    a = a / max(a.sum(), 1.0)
    b = b / max(b.sum(), 1.0)
    tv = exact_tv(a, b)
    assert 0.0 <= tv <= 1.0 + 1e-12
    assert tv == pytest.approx(exact_tv(b, a))
    assert exact_tv(a, a) <= 1e-15
    # agreement with the positive-part (supremum over subsets) form
    width = max(len(a), len(b))
    ap = np.pad(a, (0, width - len(a)))
    bp = np.pad(b, (0, width - len(b)))
    sup_form = float(np.maximum(ap - bp, 0.0).sum()) + max((1 - ap.sum()) - (1 - bp.sum()), 0.0)
    assert tv == pytest.approx(sup_form, abs=1e-12)


def test_head_run_monte_carlo_expectation(monkeypatch):
    from markedbinomial.space import mc_expectation
    from markedbinomial.stein import _head_run_values

    monkeypatch.setenv("MBP_ENUM_CAP", "100")
    params = head_run_params(10, 2, 0.5, rng_seed=717)
    mean, se = mc_expectation(params, lambda digits: _head_run_values(digits, 10, 2), 40000, stream=2)
    assert abs(mean - 1.375) <= 4 * se
