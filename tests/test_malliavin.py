import importlib
import math

import numpy as np
import pytest

from markedbinomial import (
    ModelParams,
    PathFunctional,
    ProcessTable,
    add_one_cost,
    bar_grad,
    build_basis,
    clark_integrand,
    clark_reconstruct,
    divergence,
    gamma_tilde,
    gradient,
    gradient_process,
    iterated_difference,
    iterated_gradient,
    l_inverse,
    mecke_check,
    multiple_integral,
    number_operator,
    ou_mehler_mc,
    ou_spectral,
    remove_one_cost,
    tilde_divergence,
    tilde_grad,
    tilde_number_operator,
)
from markedbinomial.basis import delta_r_table
from markedbinomial.chaos import random_kernel
from markedbinomial.malliavin import clark_integrand_z, clark_reconstruct_z, gradient_via_chaos
from markedbinomial.space import space


@pytest.fixture(scope="module")
def singleton() -> ModelParams:
    return ModelParams(horizon=4, marks=(1.0,), jump_prob=0.3, mark_probs=(1.0,))


def _rand(params, rng) -> PathFunctional:
    return PathFunctional(params, values=rng.normal(size=params.n_configurations))


# -- pathwise difference operators ------------------------------------------------

def test_add_one_cost_constant(cti):
    out = add_one_cost(PathFunctional.constant(cti, 3.0), (2, -1.0))
    assert np.all(out.table() == 0.0)


def test_add_one_cost_jump_count(cti):
    sp = space(cti)
    F = PathFunctional(cti, values=sp.jump_count())
    for t in (1, 2, 3):
        for k in cti.marks:
            assert np.all(add_one_cost(F, (t, k)).table() == 1.0)


def test_add_one_cost_constant_in_current_digit(cti, rng):
    """The add-one cost never depends on the digit it overwrites."""
    sp = space(cti)
    F = _rand(cti, rng)
    for t in (1, 2, 3):
        d = add_one_cost(F, (t, -1.0)).table()
        for digit in (0, 1, 2):
            moved = d[sp.ranks_with_digit(t, digit)]
            assert np.max(np.abs(moved - d)) == 0.0


def test_add_one_cost_first_order_kernel_singleton(singleton, rng):
    """On a singleton mark space the add-one cost of an order-1 integral
    returns the kernel."""
    basis = build_basis(singleton)
    h = {s: float(rng.normal()) for s in random_kernel(singleton, 1, rng)}
    J = multiple_integral(basis, h, 1)
    for t in range(1, 5):
        d = add_one_cost(J, (t, 1.0)).table()
        assert np.allclose(d, h[((t, 1.0),)], atol=1e-13)


def test_remove_one_cost(cti):
    sp = space(cti)
    F = PathFunctional(cti, values=sp.jump_count())
    out = remove_one_cost(F, (2, -1.0)).table()
    present = sp.digits[:, 1] == 2
    assert np.all(out[present] == 1.0)
    assert np.all(out[~present] == 0.0)
    assert np.all(remove_one_cost(PathFunctional.constant(cti, 1.0), (1, 1.0)).table() == 0.0)


def test_product_rules(cti, rng):
    sp = space(cti)
    F, G = _rand(cti, rng), _rand(cti, rng)
    FG = F * G
    for t in (1, 2, 3):
        zero = sp.ranks_with_digit(t, 0)
        for k in cti.marks:
            dpF, dpG = add_one_cost(F, (t, k)).table(), add_one_cost(G, (t, k)).table()
            lhs = add_one_cost(FG, (t, k)).table()
            rhs = F.table()[zero] * dpG + G.table()[zero] * dpF + dpF * dpG
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            dmF, dmG = remove_one_cost(F, (t, k)).table(), remove_one_cost(G, (t, k)).table()
            lhs_m = remove_one_cost(FG, (t, k)).table()
            rhs_m = F.table() * dmG + G.table() * dmF - dmF * dmG
            assert np.max(np.abs(lhs_m - rhs_m)) <= 1e-12


def test_tilde_grad(cti, rng):
    F = _rand(cti, rng)
    sp = space(cti)
    assert np.all(tilde_grad(PathFunctional.constant(cti, 1.0), (1, 1.0)).table() == 0.0)
    assert np.all(bar_grad(PathFunctional.constant(cti, 1.0), 1).table() == 0.0)
    # forcing a jump that is already there changes nothing
    out = tilde_grad(F, (2, 1.0)).table()
    already = sp.digits[:, 1] == 1
    assert np.all(out[already] == 0.0)


def test_l1_integration_by_parts(cti, rng):
    """Mecke-based identity with predictable u: E[int D+F u dnu] =
    E[F delta~u] + E[int Dbar F u dnu]."""
    sp = space(cti)
    F = _rand(cti, rng)
    u = ProcessTable.zeros(cti)
    u.values[:] = rng.normal(size=u.values.shape)
    for t in (1, 2, 3):
        for j in range(2):
            u.values[:, t - 1, j] = sp.conditional_expectation(u.values[:, t - 1, j], t - 1)
    nu = cti.jump_prob * np.asarray(cti.mark_probs)
    lhs = rhs_bar = 0.0
    for t in (1, 2, 3):
        dbar = bar_grad(F, t).table()
        for j, k in enumerate(cti.marks):
            lhs += nu[j] * sp.expectation(add_one_cost(F, (t, k)).table() * u.values[:, t - 1, j])
            rhs_bar += nu[j] * sp.expectation(dbar * u.values[:, t - 1, j])
    rhs = sp.expectation(F.table() * tilde_divergence(u).table()) + rhs_bar
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_iterated_difference_order1(cti, rng):
    F = _rand(cti, rng)
    a = iterated_difference(F, ((2, -1.0),)).table()
    b = add_one_cost(F, (2, -1.0)).table()
    assert np.array_equal(a, b)


def test_iterated_difference_product(cti):
    basis = build_basis(cti)
    F = PathFunctional(cti, values=delta_r_table(basis, 1, 1.0) * delta_r_table(basis, 2, 1.0))
    out = iterated_difference(F, ((1, 1.0), (2, 1.0))).table()
    assert np.allclose(out, 1.0, atol=1e-14)


def test_iterated_difference_repeated_times(cti):
    F = PathFunctional.constant(cti, 1.0)
    with pytest.raises(ValueError, match="distinct"):
        iterated_difference(F, ((1, 1.0), (1, -1.0)))


def test_iterated_gradient_moment_identity(inst2, rng):
    """E[D^(n) F] equals E[F prod dR/kappa] on every support, n <= 3."""
    from itertools import combinations, product

    basis = build_basis(inst2)
    sp = space(inst2)
    F = _rand(inst2, rng)
    worst = 0.0
    for n in (1, 2, 3):
        for tset in combinations(range(1, 6), n):
            for ks in product(inst2.marks, repeat=n):
                support = tuple(zip(tset, ks))
                lhs = sp.expectation(iterated_gradient(F, support).table())
                prod_tab = np.ones(sp.n)
                for t, k in support:
                    j = inst2.mark_index(k)
                    prod_tab *= delta_r_table(basis, t, k) / basis.kappa[j]
                worst = max(worst, abs(lhs - sp.expectation(F.table() * prod_tab)))
    assert worst <= 1e-10


# -- gradient and divergence -------------------------------------------------------

def test_gradient_of_first_order_integral(cti, rng):
    basis = build_basis(cti)
    h = {s: float(rng.normal()) for s in random_kernel(cti, 1, rng)}
    J = multiple_integral(basis, h, 1)
    for t in (1, 2, 3):
        for k in cti.marks:
            g = gradient(J, (t, k)).table()
            assert np.allclose(g, h[((t, k),)], atol=1e-13)


def test_gradient_matches_chaos_route(cti, rng):
    F = _rand(cti, rng)
    for t in (1, 2, 3):
        for k in cti.marks:
            a = gradient(F, (t, k)).table()
            b = gradient_via_chaos(F, (t, k)).table()
            assert np.max(np.abs(a - b)) <= 1e-12


def test_gradient_equals_add_one_on_singleton(singleton, rng):
    F = _rand(singleton, rng)
    for t in range(1, 5):
        a = gradient(F, (t, 1.0)).table()
        b = add_one_cost(F, (t, 1.0)).table()
        assert np.max(np.abs(a - b)) <= 1e-13


def test_divergence_of_deterministic_indicator(cti):
    basis = build_basis(cti)
    for t in (1, 2, 3):
        for k in cti.marks:
            u = ProcessTable.deterministic_indicator(cti, (t, k))
            assert np.max(np.abs(divergence(u).table() - delta_r_table(basis, t, k))) <= 1e-13


def test_divergence_zero(cti):
    assert np.all(divergence(ProcessTable.zeros(cti)).table() == 0.0)


def test_divergence_duality_random(cti, rng):
    sp = space(cti)
    basis = build_basis(cti)
    F = _rand(cti, rng)
    u = ProcessTable.zeros(cti)
    u.values[:] = rng.normal(size=u.values.shape)
    lhs = sp.expectation(F.table() * divergence(u).table())
    rhs = 0.0
    for t in (1, 2, 3):
        for j, k in enumerate(cti.marks):
            rhs += basis.kappa[j] * sp.expectation(gradient(F, (t, k)).table() * u.values[:, t - 1, j])
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_divergence_predictable_closed_form(cti, rng):
    sp = space(cti)
    basis = build_basis(cti)
    u = ProcessTable.zeros(cti)
    u.values[:] = rng.normal(size=u.values.shape)
    for t in (1, 2, 3):
        for j in range(2):
            u.values[:, t - 1, j] = sp.conditional_expectation(u.values[:, t - 1, j], t - 1)
    acc = np.zeros(sp.n)
    for t in (1, 2, 3):
        for j, k in enumerate(cti.marks):
            acc += u.values[:, t - 1, j] * delta_r_table(basis, t, k)
    assert np.max(np.abs(divergence(u).table() - acc)) <= 1e-12


def test_tilde_divergence(cti, rng):
    sp = space(cti)
    ones = ProcessTable.zeros(cti)
    ones.values[:] = 1.0
    out = tilde_divergence(ones).table()
    expected = sp.jump_count() - 0.5 * 3
    assert np.max(np.abs(out - expected)) <= 1e-14
    assert np.all(tilde_divergence(ProcessTable.zeros(cti)).table() == 0.0)
    u = ProcessTable.zeros(cti)
    u.values[:] = rng.normal(size=u.values.shape)
    for t in (1, 2, 3):
        for j in range(2):
            u.values[:, t - 1, j] = sp.conditional_expectation(u.values[:, t - 1, j], t - 1)
    assert abs(sp.expectation(tilde_divergence(u).table())) <= 1e-12


def test_mecke(cti, rng):
    ones = ProcessTable.zeros(cti)
    ones.values[:] = 1.0
    lhs, rhs = mecke_check(ones)
    assert lhs == pytest.approx(1.5, abs=1e-12)
    assert rhs == pytest.approx(1.5, abs=1e-12)
    zero_l, zero_r = mecke_check(ProcessTable.zeros(cti))
    assert zero_l == 0.0 and zero_r == 0.0
    u = ProcessTable.zeros(cti)
    u.values[:] = rng.normal(size=u.values.shape)
    lhs, rhs = mecke_check(u)
    assert abs(lhs - rhs) <= 1e-12


# -- number operator family -----------------------------------------------------------

def test_number_operator_constant(cti):
    assert np.max(np.abs(number_operator(PathFunctional.constant(cti, 2.0)).table())) <= 1e-14
    zero = PathFunctional.constant(cti, 0.0)
    assert np.all(l_inverse(zero).table() == 0.0)


def test_number_operator_grading(cti, rng):
    basis = build_basis(cti)
    kernel = random_kernel(cti, 2, rng)
    J = multiple_integral(basis, kernel, 2)
    assert np.max(np.abs(number_operator(J).table() + 2.0 * J.table())) <= 1e-12


def test_number_operator_is_minus_delta_d(cti, rng):
    F = _rand(cti, rng)
    lhs = number_operator(F).table()
    rhs = -divergence(gradient_process(F)).table()
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_l_inverse_requires_centering(cti):
    with pytest.raises(ValueError, match="center first"):
        l_inverse(PathFunctional.constant(cti, 1.0))


def test_l_inverse_inverts(cti, rng):
    sp = space(cti)
    F = _rand(cti, rng)
    centered = PathFunctional(cti, values=F.table() - sp.expectation(F.table()))
    assert np.max(np.abs(number_operator(l_inverse(centered)).table() - centered.table())) <= 1e-10


def test_l_operators_coincide_on_singleton(singleton, rng):
    F = _rand(singleton, rng)
    a = tilde_number_operator(F).table()
    b = number_operator(F).table()
    assert np.max(np.abs(a - b)) <= 1e-10


def test_gamma_tilde(cti, rng):
    sp = space(cti)
    F, G = _rand(cti, rng), _rand(cti, rng)
    assert np.max(np.abs(gamma_tilde(F, PathFunctional.constant(cti, 2.0)).table())) <= 1e-12
    direct = gamma_tilde(F, G).table()
    assert np.max(np.abs(direct - gamma_tilde(G, F).table())) <= 1e-12
    lhs = -sp.expectation(direct)
    rhs = 0.5 * (
        sp.expectation(F.table() * tilde_number_operator(G).table())
        + sp.expectation(G.table() * tilde_number_operator(F).table())
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)


# -- Ornstein-Uhlenbeck semigroup ------------------------------------------------------

def test_ou_spectral_identity_at_zero(cti, rng):
    F = _rand(cti, rng)
    assert np.max(np.abs(ou_spectral(F, 0.0).table() - F.table())) <= 1e-13
    with pytest.raises(ValueError, match="nonnegative"):
        ou_spectral(F, -0.1)


def test_ou_spectral_first_chaos(cti, rng):
    basis = build_basis(cti)
    kernel = random_kernel(cti, 1, rng)
    J = multiple_integral(basis, kernel, 1)
    tau = 0.7
    assert np.max(np.abs(ou_spectral(J, tau).table() - math.exp(-tau) * J.table())) <= 1e-13


def test_ou_commutation(cti, rng):
    F = _rand(cti, rng)
    for tau in (0.1, 1.0):
        P = ou_spectral(F, tau)
        for t in (1, 2, 3):
            for k in cti.marks:
                lhs = gradient(P, (t, k)).table()
                rhs = math.exp(-tau) * ou_spectral(gradient(F, (t, k)), tau).table()
                assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_ou_contractivity(cti, rng):
    sp = space(cti)
    F = _rand(cti, rng)
    for tau in (0.2, 1.5):
        P = ou_spectral(F, tau).table()
        for p in (1, 2):
            assert sp.expectation(np.abs(P) ** p) <= sp.expectation(np.abs(F.table()) ** p) + 1e-12


def test_mehler_mc_reproducible_and_unbiased(cti):
    sp = space(cti)
    F = PathFunctional(cti, values=sp.jump_count())
    tau = 1.0
    means1, errs1 = ou_mehler_mc(F, tau, 4000, stream=3)
    means2, _ = ou_mehler_mc(F, tau, 4000, stream=3)
    assert np.array_equal(means1, means2)
    spectral = ou_spectral(F, tau).table()
    z = np.abs(means1 - spectral) / errs1
    assert np.max(z) <= 5.0


def test_mehler_blocks_read_fresh_stream_positions(cti, rng, monkeypatch):
    """With one configuration per block and every digit redrawn, each block's
    sample is the next stretch of the stream: equal means would mean that
    blocks read the same positions."""
    from markedbinomial import malliavin

    monkeypatch.setattr(malliavin, "MEHLER_BLOCK_DRAWS", 1)
    means, _ = ou_mehler_mc(_rand(cti, rng), 50.0, 20, stream=1)
    assert len(set(means.tolist())) == len(means)


def test_mehler_is_the_same_for_every_block_size(inst2, rng, monkeypatch):
    """The pass size bounds memory only: one configuration per pass and one
    pass for all give the same bits."""
    from markedbinomial import malliavin

    F = _rand(inst2, rng)
    runs = []
    for block_draws in (1, 2**18):
        monkeypatch.setattr(malliavin, "MEHLER_BLOCK_DRAWS", block_draws)
        runs.append(ou_mehler_mc(F, 0.8, 30, stream=2))
    for a, b in zip(*runs):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("marks, probs", [((1.5,), (1.0,)), ((1.0, -1.0), (0.5, 0.5)),
                                          ((2.0, -0.5, 1.0), (0.2, 0.5, 0.3))], ids=["1mark", "2marks", "3marks"])
def test_mehler_is_the_same_for_every_digit_pass(marks, probs, rng, monkeypatch):
    """Short digit passes of the stream and short Mehler blocks, neither a
    multiple of the other, give the bits of the default ones: a pass reads
    the stream's draws by position and a reused counts buffer keeps none
    of the previous block."""
    from markedbinomial import malliavin

    space_mod = importlib.import_module("markedbinomial.space")  # the root's `space` is the function
    params = ModelParams(4, marks, 0.45, probs, rng_seed=7)
    F = _rand(params, rng)
    want = ou_mehler_mc(F, 0.6, 9, stream=4)
    monkeypatch.setattr(space_mod, "DIGIT_BLOCK", 7)
    monkeypatch.setattr(malliavin, "MEHLER_BLOCK_DRAWS", 5 * 9 * params.horizon)
    got = ou_mehler_mc(F, 0.6, 9, stream=4)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_mehler_draws_leave_numpy_random_unloaded():
    """Every package module imported and the estimator run: numpy.random
    stays out of sys.modules, since every draw comes from a counter stream."""
    import subprocess
    import sys

    code = (
        "import pkgutil, sys, importlib\n"
        "import markedbinomial as mb\n"
        "for info in pkgutil.iter_modules(mb.__path__):\n"
        "    importlib.import_module(f'markedbinomial.{info.name}')\n"
        "p = mb.ModelParams(horizon=3, marks=(1.0, -1.0), jump_prob=0.5, mark_probs=(0.5, 0.5))\n"
        "mb.ou_mehler_mc(mb.PathFunctional(p, values=mb.space(p).jump_count()), 0.5, 10)\n"
        "print(sorted(name for name in sys.modules if name.startswith('markedbinomial.')))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, random_loaded = proc.stdout.splitlines()
    assert "markedbinomial.stein" in loaded and "markedbinomial.hedging" in loaded
    assert random_loaded == "False"


@pytest.mark.parametrize("name", ["cti", "inst2"])
def test_mehler_per_digit_law(name, request):
    """For F = 1{d_t = d} the Mehler step gives P_tau F = e^-tau F + (1 - e^-tau) w_d:
    a digit is kept with probability e^-tau and otherwise redrawn from the one-step law."""
    params = request.getfixturevalue(name)
    sp = space(params)
    tau = 0.7
    keep = math.exp(-tau)
    for t in (1, 2, params.horizon):
        for d in range(sp.base):
            F = (sp.digits[:, t - 1] == d).astype(float)
            means, errs = ou_mehler_mc(PathFunctional(params, values=F), tau, 1000, stream=t * sp.base + d)
            exact = keep * F + (1.0 - keep) * sp.step_weights[d]
            assert np.all(errs > 0)
            assert np.max(np.abs(means - exact) / errs) <= 6.0


def test_mehler_rejects_empty_sample(cti):
    with pytest.raises(ValueError, match="n_samples"):
        ou_mehler_mc(PathFunctional.constant(cti, 1.0), 1.0, 0)


def test_mehler_tau_zero_is_exact(cti, rng):
    F = _rand(cti, rng)
    means, errs = ou_mehler_mc(F, 0.0, 100, stream=0)
    assert np.allclose(means, F.table(), atol=1e-12)
    assert np.all(errs <= 1e-12)


def test_l_inverse_integral_representation(cti, rng):
    sp = space(cti)
    F = _rand(cti, rng)
    centered = PathFunctional(cti, values=F.table() - sp.expectation(F.table()))
    nodes, weights = np.polynomial.laguerre.laggauss(64)
    acc = np.zeros(sp.n)
    for x, w in zip(nodes, weights):
        acc += (w * math.exp(x)) * ou_spectral(centered, x).table()
    assert np.max(np.abs(l_inverse(centered).table() + acc)) <= 1e-8


# -- Clark representation ---------------------------------------------------------------

def test_clark_integrand_of_increment(cti):
    basis = build_basis(cti)
    F = PathFunctional(cti, values=delta_r_table(basis, 1, 1.0))
    u = clark_integrand(F)
    expected = np.zeros((27, 3, 2))
    expected[:, 0, 0] = 1.0
    assert np.max(np.abs(u.values - expected)) <= 1e-13
    const = clark_integrand(PathFunctional.constant(cti, 5.0))
    assert np.max(np.abs(const.values)) <= 1e-13


def test_clark_integrand_is_predictable(cti, rng):
    u = clark_integrand(_rand(cti, rng))
    assert u.is_predictable(tol=1e-12)


def test_clark_reconstruction_indicator(cti):
    vals = np.zeros(27)
    all_up = 1 + 3 + 9  # rank of the all-jumps-mark-1 path
    vals[all_up] = 1.0
    F = PathFunctional(cti, values=vals)
    assert np.max(np.abs(clark_reconstruct(F).table() - vals)) <= 1e-12
    assert np.max(np.abs(clark_reconstruct_z(F).table() - vals)) <= 1e-12


def test_clark_second_order(cti, rng):
    sp = space(cti)
    basis = build_basis(cti)
    F = _rand(cti, rng)
    integrand = clark_integrand(F)
    for t in range(4):
        acc = sp.conditional_expectation(F.table(), t)
        for s in range(t + 1, 4):
            for j, k in enumerate(cti.marks):
                acc = acc + integrand.values[:, s - 1, j] * delta_r_table(basis, s, k)
        assert np.max(np.abs(acc - F.table())) <= 1e-10


def test_clark_reconstruct_peak_memory_stays_below_one_process_table():
    """At T=8 with 2 marks the traced peak of clark_reconstruct stays below
    one (n, T, m) float table (0.84 MB): it reads prefix tables of the
    martingale and never builds a process table."""
    import tracemalloc

    params = ModelParams(horizon=8, marks=(1.0, -1.0), jump_prob=0.4, mark_probs=(0.5, 0.5))
    F = _rand(params, np.random.default_rng(8))
    clark_reconstruct(F)  # warm the caches
    tracemalloc.start()
    try:
        clark_reconstruct(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * params.n_configurations * params.horizon * params.n_marks


def test_process_table_validation(cti):
    with pytest.raises(ValueError, match="shape"):
        ProcessTable(cti, np.zeros((27, 3)))
    bad = np.zeros((27, 3, 2))
    bad[:, 2, 0] = np.arange(27)  # depends on digit 3: not F_2-measurable
    assert not ProcessTable(cti, bad).is_predictable()


# -- memory layout ---------------------------------------------------------------------

def _c_order(params, alloc=np.empty):
    return alloc((params.n_configurations, params.horizon, params.n_marks))


@pytest.mark.parametrize("name", ["cti", "inst2"])
def test_allocated_process_tables_are_step_major(name, request, rng):
    params = request.getfixturevalue(name)
    F = _rand(params, rng)
    for u in (ProcessTable.zeros(params), gradient_process(F), clark_integrand(F), clark_integrand_z(F)):
        assert u.values.shape == (params.n_configurations, params.horizon, params.n_marks)
        for t in range(1, params.horizon + 1):
            for j in range(params.n_marks):
                assert u.values[:, t - 1, j].flags.c_contiguous


@pytest.mark.parametrize("name", ["cti", "inst2"])
def test_operators_agree_bitwise_on_both_layouts(name, request, rng, monkeypatch):
    from markedbinomial import malliavin

    params = request.getfixturevalue(name)
    F = _rand(params, rng)
    u = ProcessTable.zeros(params)
    u.values[:] = rng.normal(size=u.values.shape)
    predictable = clark_integrand(F)
    for step_major in (u, predictable):
        copy = ProcessTable(params, np.ascontiguousarray(step_major.values))
        assert copy.values.flags.c_contiguous and not step_major.values.flags.c_contiguous
        assert np.array_equal(divergence(step_major).table(), divergence(copy).table())
        assert np.array_equal(tilde_divergence(step_major).table(), tilde_divergence(copy).table())
        assert mecke_check(step_major) == mecke_check(copy)
        for tol in (0.0, 1e-12):
            assert step_major.is_predictable(tol) == copy.is_predictable(tol)
    assert predictable.is_predictable(1e-12) and not u.is_predictable(1e-12)
    step_major_clark = clark_reconstruct(F).table()
    monkeypatch.setattr(malliavin, "_step_major", _c_order)
    assert clark_integrand(F).values.flags.c_contiguous
    assert np.array_equal(clark_reconstruct(F).table(), step_major_clark)



_LAYOUT_LAWS = {
    1: ((1.5,), (1.0,), 0.3),
    2: ((1.0, -1.0), (0.5, 0.5), 0.4),
    3: ((-2.5, 0.5, 3.0), (0.3, 0.3, 0.4), 0.45),
    4: ((1.0, -2.0, 3.0, 0.5), (0.1, 0.2, 0.3, 0.4), 0.5),
}


@pytest.mark.parametrize("n_marks, horizon",
                         [(m, T) for m in (1, 2, 3, 4) for T in range(1, 8)] + [(2, 11)])
def test_divergence_is_bitwise_the_same_on_every_layout(n_marks, horizon):
    """A C-order table is staged one step at a time into a step-major
    buffer, and a Fortran-order table is read in place: both give the bits
    of the step-major table."""
    from markedbinomial.malliavin import _step_major

    marks, Q, lam = _LAYOUT_LAWS[n_marks]
    params = ModelParams(horizon, marks, lam, Q)
    c_order = _c_order(params)
    c_order[:] = np.random.default_rng(10 * n_marks + horizon).normal(size=c_order.shape)
    step_major = _step_major(params)
    step_major[:] = c_order
    expected = divergence(ProcessTable(params, step_major)).table()
    for values in (c_order, np.asfortranarray(c_order)):
        assert np.array_equal(divergence(ProcessTable(params, values)).table(), expected)


def test_divergence_stages_at_most_one_step_of_a_c_order_table():
    """On a C-order table the traced peak of `divergence` exceeds the one on
    a step-major table by at most one (n, m) buffer: the whole table is
    never copied."""
    import tracemalloc

    from markedbinomial.malliavin import _step_major

    params = ModelParams(9, (1.0, -1.0), 0.4, (0.5, 0.5))
    c_order = _c_order(params)
    c_order[:] = np.random.default_rng(9).normal(size=c_order.shape)
    step_major = _step_major(params)
    step_major[:] = c_order
    divergence(ProcessTable(params, step_major))  # builds the cached space and step values
    peaks = []
    for values in (step_major, c_order):
        u = ProcessTable(params, values)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            divergence(u)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    buffer = params.n_configurations * params.n_marks * np.dtype(float).itemsize
    assert peaks[1] <= peaks[0] + buffer + 1024


_MASK = (1 << 64) - 1


def _mehler_counts(params, tau, n_samples, stream):
    """Edge counts of the estimator's draws, one by one in plain Python:
    draw i is SplitMix64's output i from the key of "mehler stream <stream>",
    its top 53 bits read as a float on [0, 1) and compared with each edge."""
    from markedbinomial.space import stream_key

    keep_p = math.exp(-tau)
    edges = (keep_p + (1.0 - keep_p) * np.concatenate([[0.0], np.cumsum(space(params).step_weights[:-1])])).tolist()
    key = stream_key(params.rng_seed, f"mehler stream {stream}")
    counts = []
    for i in range(params.n_configurations * n_samples * params.horizon):
        z = (key + (i + 1) * 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        u = ((z ^ (z >> 31)) >> 11) * 2.0**-53
        counts.append(sum(u >= e for e in edges))
    return np.array(counts).reshape(params.n_configurations, n_samples, params.horizon)


def _mehler_reference(F, tau, n_samples, stream):
    """The Mehler estimator on the stream's draws, with the new digit chosen
    by np.where over the whole (configurations, samples, T) draw."""
    params = F.params
    sp = space(params)
    pick = _mehler_counts(params, tau, n_samples, stream)
    sample = F.table()[np.where(pick == 0, sp.digits[:, None, :], pick - 1) @ sp.powers]
    return sample.mean(axis=1), sample.std(axis=1, ddof=1) / math.sqrt(n_samples)


@pytest.mark.parametrize("marks, probs", [
    ((1.5,), (1.0,)),
    ((2.0, -0.5, 1.0), (0.2, 0.5, 0.3)),
    (tuple(range(-5, 6)), (1.0 / 11,) * 11),  # (B + 1) * B = 156 picks fit uint8, not int8
])
@pytest.mark.parametrize("tau", [0.0, 3.0])
@pytest.mark.parametrize("block_draws", [7 * 12 * 4, 2**18])
def test_mehler_lookup_is_bit_equal_to_the_where_formula(marks, probs, tau, block_draws, rng, monkeypatch):
    """The digit lookup table reproduces every bit of the np.where choice on
    the stream's draws, with one block or several, on a nonzero stream."""
    from markedbinomial import malliavin

    monkeypatch.setattr(malliavin, "MEHLER_BLOCK_DRAWS", block_draws)
    params = ModelParams(4 if len(marks) < 4 else 2, marks, 0.45, probs, rng_seed=11)
    F = _rand(params, rng)
    got = ou_mehler_mc(F, tau, 12, stream=5)
    want = _mehler_reference(F, tau, 12, stream=5)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_mehler_with_127_marks_redraws_into_the_last_cell(rng):
    """With 127 marks a count reaches B = 128, one past int8: a redraw of the
    last digit must still land on that digit."""
    marks = tuple(float(k) for k in range(1, 128))
    probs = (0.5 / 126,) * 126 + (0.5,)
    params = ModelParams(1, marks, 0.9, probs, rng_seed=3)
    counts = _mehler_counts(params, 5.0, 4, 0)
    assert counts.max() == 128
    F = _rand(params, rng)
    for g, w in zip(ou_mehler_mc(F, 5.0, 4, stream=0), _mehler_reference(F, 5.0, 4, 0)):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("marks, Q, lam", [
    ((1.5,), (1.0,), 0.3),
    ((-1.0,), (1.0,), 0.5),
    ((1.0, -1.0), (0.5, 0.5), 0.35),
    ((1.0, 2.0), (0.3, 0.7), 0.4),
    ((-2.0, 1.0, 3.0), (0.3, 0.3, 0.4), 0.45),
    ((1.0, 2.0, 3.0, 4.0), (0.1, 0.2, 0.3, 0.4), 0.5),
])
def test_gradient_and_gradient_process_agree_to_the_last_bit_or_nearly(marks, Q, lam):
    """gradient at (t, k) is column k of the step-t contraction that
    gradient_process takes, so the two agree bit for bit with 1-4 marks at
    every horizon T = 1-6."""
    for horizon in range(1, 7):
        params = ModelParams(horizon=horizon, marks=marks, jump_prob=lam, mark_probs=Q)
        F = PathFunctional(params, values=np.random.default_rng(7).normal(size=params.n_configurations))
        DF = gradient_process(F).values
        for t in range(1, horizon + 1):
            for j, k in enumerate(marks):
                assert gradient(F, (t, k)).table().tobytes() == np.ascontiguousarray(DF[:, t - 1, j]).tobytes()
