"""Exact identity suite: every structural identity of the calculus,
evaluated on the enumerated space and reported as a max residual.

Used by the ``verify`` CLI subcommand and by the acceptance tests.  Each
check draws its random inputs from its own counter-based stream, keyed by
the seed and the check's name, so a report is a pure function of
(params, seed) and a check's inputs do not depend on the checks run
before it, nor on the process that runs it: the suite spreads its checks
over forked worker processes (see :func:`suite_workers`).
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import time
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, product as iproduct
from math import factorial
from typing import Callable

import numpy as np

from . import basis as basis_mod
from . import chaos as chaos_mod
from . import girsanov as girsanov_mod
from . import malliavin as mal
from .space import (
    ModelParams,
    PathFunctional,
    UniformStream,
    compound_sum,
    digits_of_rank,
    probability_table,
    rank_of_digits,
    space,
    stream_key,
)


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    seconds: float  # wall time of the check, its context included

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


class _Context:
    """Shared precomputed objects and the input stream of one check in a
    (params, seed) run."""

    def __init__(self, params: ModelParams, seed: int, check: str):
        self.params = params
        self.sp = space(params)
        self.basis = basis_mod.build_basis(params)
        self.stream = UniformStream(stream_key(seed, check))

    def random_functional(self) -> PathFunctional:
        return PathFunctional(self.params, values=self.stream.draw(self.sp.n))

    def random_process(self) -> mal.ProcessTable:
        u = mal.ProcessTable.zeros(self.params)
        self.stream.fill(u.values.transpose(1, 2, 0))  # the step-major table's memory order
        return u

    def nu_weights(self) -> np.ndarray:
        return self.params.jump_prob * np.asarray(self.params.mark_probs)

    def canonical_target(self) -> girsanov_mod.TargetMeasure:
        lam_t = 0.5 * (self.params.jump_prob + 0.5)
        weights = np.asarray(self.params.mark_probs) * (
            1.0 + 0.5 * np.arange(1, self.params.n_marks + 1) / self.params.n_marks
        )
        return girsanov_mod.TargetMeasure(lam_t, tuple(weights / weights.sum()))


# -- individual checks (each returns a max residual) ----------------------------------

def _probability_normalization(ctx: _Context) -> float:
    return abs(ctx.sp.probabilities.sum() - 1.0)


def _rank_roundtrip(ctx: _Context) -> float:
    worst = 0
    for rank in range(ctx.sp.n):
        digs = digits_of_rank(rank, ctx.params.horizon, ctx.params.n_marks)
        worst = max(worst, abs(rank_of_digits(digs, ctx.params.n_marks) - rank))
    return float(worst)


def _tower_property(ctx: _Context) -> float:
    F = ctx.random_functional()
    mean = ctx.sp.expectation(F.table())
    worst = 0.0
    for t in range(ctx.params.horizon + 1):
        ce = ctx.sp.conditional_expectation(F.table(), t)
        worst = max(worst, abs(ctx.sp.expectation(ce) - mean))
    return worst


def _compensated_martingale(ctx: _Context) -> float:
    sp, params = ctx.sp, ctx.params
    worst = 0.0
    prev = np.zeros(sp.n)
    for t in range(1, params.horizon + 1):
        ybar = compound_sum(params, t) - params.jump_prob * t * params.mean_mark
        cond = sp.conditional_expectation(ybar - prev, t - 1)
        worst = max(worst, float(np.max(np.abs(cond))))
        prev = ybar
    return worst


def _basis_inverse(ctx: _Context) -> float:
    b = ctx.basis
    eye = np.eye(ctx.params.n_marks)
    return float(np.max(np.abs(b.matrix_m @ b.matrix_m_inv - eye)))


def _basis_orthogonality(ctx: _Context) -> float:
    sp = ctx.sp
    m = ctx.params.n_marks
    worst = 0.0
    tables = [basis_mod.delta_r_table(ctx.basis, 1, k) for k in ctx.params.marks]
    for i in range(m):
        for j in range(m):
            moment = sp.expectation(tables[i] * tables[j])
            expected = ctx.basis.kappa[i] if i == j else 0.0
            worst = max(worst, abs(moment - expected))
    return worst


def _dz_equals_m_dr(ctx: _Context) -> float:
    zvals = basis_mod.z_step_values(ctx.params)
    rvals = basis_mod.r_step_values(ctx.params)
    return float(np.max(np.abs(zvals - rvals @ ctx.basis.matrix_m.T)))


def _dr_identically_distributed(ctx: _Context) -> float:
    """Same one-step law at every time: full atom-by-atom law comparison
    (probability attached to each distinct increment value).  The t=1 law
    is tabulated once per mark; each later table's values are located
    among its atoms, and a value that is not one of them is an atom of
    its own."""
    sp = ctx.sp
    worst = 0.0
    for k in ctx.params.marks:
        ref_values, ref_atoms = np.unique(np.round(basis_mod.delta_r_table(ctx.basis, 1, k), 12),
                                          return_inverse=True)
        ref_law = np.bincount(ref_atoms, weights=sp.probabilities, minlength=len(ref_values))
        for t in range(2, ctx.params.horizon + 1):
            cur = np.round(basis_mod.delta_r_table(ctx.basis, t, k), 12)
            atoms = np.minimum(np.searchsorted(ref_values, cur), len(ref_values) - 1)
            shared = ref_values[atoms] == cur
            cur_law = np.bincount(atoms[shared], weights=sp.probabilities[shared], minlength=len(ref_values))
            worst = max(worst, float(np.max(np.abs(ref_law - cur_law))))
            if not shared.all():
                _, extra_atoms = np.unique(cur[~shared], return_inverse=True)
                extra_law = np.bincount(extra_atoms, weights=sp.probabilities[~shared])
                worst = max(worst, float(np.max(extra_law)))
    return worst


def _dr_sum_martingale(ctx: _Context) -> float:
    sp = ctx.sp
    worst = 0.0
    for t in range(1, ctx.params.horizon + 1):
        total = np.zeros(sp.n)
        for k in ctx.params.marks:
            total += basis_mod.delta_r_table(ctx.basis, t, k)
        worst = max(worst, float(np.max(np.abs(sp.conditional_expectation(total, t - 1)))))
    return worst


def _isometry(ctx: _Context) -> float:
    sp = ctx.sp
    worst = 0.0
    max_order = min(3, ctx.params.horizon)
    kernels = {
        n: chaos_mod.random_kernel(ctx.params, n, ctx.stream) for n in range(1, max_order + 1)
    }
    others = {
        n: chaos_mod.random_kernel(ctx.params, n, ctx.stream) for n in range(1, max_order + 1)
    }
    integrals_f = {n: chaos_mod.multiple_integral(ctx.basis, kernels[n], n) for n in kernels}
    integrals_g = {n: chaos_mod.multiple_integral(ctx.basis, others[n], n) for n in others}
    for n in kernels:
        for m in others:
            lhs = sp.expectation(integrals_f[n].table() * integrals_g[m].table())
            rhs = 0.0
            if n == m:
                rhs = factorial(n) * chaos_mod.kernel_inner(ctx.basis, kernels[n], others[m], n)
            worst = max(worst, abs(lhs - rhs))
    return worst


def _conditional_truncation(ctx: _Context) -> float:
    sp = ctx.sp
    worst = 0.0
    for n in range(1, min(2, ctx.params.horizon) + 1):
        kernel = chaos_mod.random_kernel(ctx.params, n, ctx.stream)
        J = chaos_mod.multiple_integral(ctx.basis, kernel, n)
        for t in range(ctx.params.horizon + 1):
            truncated = {s: v for s, v in kernel.items() if all(tt <= t for tt, _ in s)}
            lhs = sp.conditional_expectation(J.table(), t)
            rhs = chaos_mod.multiple_integral(ctx.basis, truncated, n).table()
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _tensor_recursion(ctx: _Context) -> float:
    """Raising identity: J_{n+1} of the symmetric product g o f_n equals the
    two-sum expansion over the time-ordered last point (n = 2)."""
    params, sp = ctx.params, ctx.sp
    if params.horizon < 3:
        return 0.0
    n = 2
    g = chaos_mod.random_kernel(params, 1, ctx.stream)
    f = chaos_mod.random_kernel(params, n, ctx.stream)
    # left side: symmetric tensor product on ordered 3-supports
    sym: dict = {}
    times = range(1, params.horizon + 1)
    for tset in combinations(times, n + 1):
        for ks in iproduct(params.marks, repeat=n + 1):
            support = tuple(zip(tset, ks))
            acc = 0.0
            for i in range(n + 1):
                rest = support[:i] + support[i + 1 :]
                acc += g.get((support[i],), 0.0) * f.get(rest, 0.0)
            sym[support] = acc / (n + 1)
    lhs = chaos_mod.multiple_integral(ctx.basis, sym, n + 1).table()
    # right side
    rhs = np.zeros(sp.n)
    for t in range(1, params.horizon + 1):
        for k in params.marks:
            dr = basis_mod.delta_r_table(ctx.basis, t, k)
            inner: dict = {}
            trunc = {s: v for s, v in f.items() if all(tt < t for tt, _ in s)}
            for tset in combinations(range(1, t), n):
                for ks in iproduct(params.marks, repeat=n):
                    z = tuple(zip(tset, ks))
                    acc = 0.0
                    for i in range(n):
                        rest = z[:i] + z[i + 1 :] + ((t, k),)
                        acc += g.get((z[i],), 0.0) * f.get(rest, 0.0)
                    if acc:
                        inner[z] = acc / n
            rhs += n * chaos_mod.multiple_integral(ctx.basis, inner, n).table() * dr
            rhs += g.get(((t, k),), 0.0) * chaos_mod.multiple_integral(ctx.basis, trunc, n).table() * dr
    return float(np.max(np.abs(lhs - rhs)))


def _covariance_formula(ctx: _Context) -> float:
    sp = ctx.sp
    F, G = ctx.random_functional(), ctx.random_functional()
    cf = chaos_mod.stroock_decompose(F)
    cg = chaos_mod.stroock_decompose(G)
    lhs = sp.expectation(F.table() * G.table()) - sp.expectation(F.table()) * sp.expectation(G.table())
    return abs(lhs - chaos_mod.covariance_from_coeffs(ctx.basis, cf, cg))


def _stroock_roundtrip(ctx: _Context) -> float:
    F = ctx.random_functional()
    coeffs = chaos_mod.stroock_decompose(F)
    back = chaos_mod.reconstruct(ctx.basis, coeffs)
    return float(np.max(np.abs(back.table() - F.table())))


def _doleans(ctx: _Context) -> float:
    params = ctx.params
    h = chaos_mod.random_kernel(params, 1, ctx.stream)
    h = {s: 0.4 * v for s, v in h.items()}
    xi = chaos_mod.doleans_exponential(ctx.basis, h)
    series = chaos_mod.doleans_series(ctx.basis, h)
    worst = abs(ctx.sp.expectation(xi.table()) - 1.0)
    return max(worst, float(np.max(np.abs(xi.table() - series.table()))))


def _mecke(ctx: _Context) -> float:
    lhs, rhs = mal.mecke_check(ctx.random_process())
    return abs(lhs - rhs)


def _ipp_l1(ctx: _Context) -> float:
    """E[int D+ F u dnu] = E[F delta~ u] + E[int Dbar F u dnu], u predictable."""
    params, sp = ctx.params, ctx.sp
    F = ctx.random_functional()
    u = mal._project_predictable(ctx.random_process())
    nu = ctx.nu_weights()
    lhs = 0.0
    bar_term = 0.0
    for t in range(1, params.horizon + 1):
        dbar = mal.bar_grad(F, t).table()
        for j, k in enumerate(params.marks):
            dplus = mal.add_one_cost(F, (t, k)).table()
            lhs += nu[j] * sp.expectation(dplus * u.values[:, t - 1, j])
            bar_term += nu[j] * sp.expectation(dbar * u.values[:, t - 1, j])
    rhs = sp.expectation(F.table() * mal.tilde_divergence(u).table()) + bar_term
    return abs(lhs - rhs)


def _ipp_tilde(ctx: _Context) -> float:
    """E[<Dtilde F, u>_nu] = E[F delta~ u], u predictable."""
    params, sp = ctx.params, ctx.sp
    F = ctx.random_functional()
    u = mal._project_predictable(ctx.random_process())
    nu = ctx.nu_weights()
    lhs = 0.0
    for t in range(1, params.horizon + 1):
        for j, k in enumerate(params.marks):
            lhs += nu[j] * sp.expectation(mal.tilde_grad(F, (t, k)).table() * u.values[:, t - 1, j])
    return abs(lhs - sp.expectation(F.table() * mal.tilde_divergence(u).table()))


def _ipp_l2(ctx: _Context) -> float:
    """E[F delta u] = E[sum kappa_k D_(t,k)F u_(t,k)] for arbitrary u."""
    sp = ctx.sp
    F = ctx.random_functional()
    u = ctx.random_process()
    lhs = sp.expectation(F.table() * mal.divergence(u).table())
    DF = mal.gradient_process(F).values
    rhs = float(np.sum(np.tensordot(sp.probabilities, DF * u.values, axes=1) * ctx.basis.kappa))
    return abs(lhs - rhs)


def _divergence_predictable_form(ctx: _Context) -> float:
    params = ctx.params
    u = mal._project_predictable(ctx.random_process())
    delta = mal.divergence(u).table()
    acc = np.zeros(ctx.sp.n)
    for t in range(1, params.horizon + 1):
        for j, k in enumerate(params.marks):
            acc += u.values[:, t - 1, j] * basis_mod.delta_r_table(ctx.basis, t, k)
    return float(np.max(np.abs(delta - acc)))


def _divergence_indicator(ctx: _Context) -> float:
    params = ctx.params
    worst = 0.0
    for t in range(1, params.horizon + 1):
        for k in params.marks:
            u = mal.ProcessTable.deterministic_indicator(params, (t, k))
            delta = mal.divergence(u).table()
            worst = max(
                worst,
                float(np.max(np.abs(delta - basis_mod.delta_r_table(ctx.basis, t, k)))),
            )
    return worst


def _product_rules(ctx: _Context) -> float:
    params, sp = ctx.params, ctx.sp
    F, G = ctx.random_functional(), ctx.random_functional()
    FG = F * G
    worst = 0.0
    for t in range(1, params.horizon + 1):
        zero_ranks = sp.ranks_with_digit(t, 0)
        f0 = F.table()[zero_ranks]
        g0 = G.table()[zero_ranks]
        for k in params.marks:
            dpF = mal.add_one_cost(F, (t, k)).table()
            dpG = mal.add_one_cost(G, (t, k)).table()
            lhs = mal.add_one_cost(FG, (t, k)).table()
            worst = max(worst, float(np.max(np.abs(lhs - (f0 * dpG + g0 * dpF + dpF * dpG)))))
            dmF = mal.remove_one_cost(F, (t, k)).table()
            dmG = mal.remove_one_cost(G, (t, k)).table()
            lhs_m = mal.remove_one_cost(FG, (t, k)).table()
            rhs_m = F.table() * dmG + G.table() * dmF - dmF * dmG
            worst = max(worst, float(np.max(np.abs(lhs_m - rhs_m))))
    return worst


def _gradient_chaos_route(ctx: _Context) -> float:
    params = ctx.params
    F = ctx.random_functional()
    worst = 0.0
    for t in range(1, params.horizon + 1):
        for k in params.marks:
            a = mal.gradient(F, (t, k)).table()
            b = mal.gradient_via_chaos(F, (t, k)).table()
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def _gradient_equals_add_one_singleton(ctx: _Context) -> float:
    if ctx.params.n_marks != 1:
        return 0.0
    F = ctx.random_functional()
    k = ctx.params.marks[0]
    worst = 0.0
    for t in range(1, ctx.params.horizon + 1):
        diff = mal.gradient(F, (t, k)).table() - mal.add_one_cost(F, (t, k)).table()
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _number_operator_adjoint(ctx: _Context) -> float:
    F = ctx.random_functional()
    lhs = mal.number_operator(F).table()
    rhs = -mal.divergence(mal.gradient_process(F)).table()
    return float(np.max(np.abs(lhs - rhs)))


def _l_inverse_identity(ctx: _Context) -> float:
    F = ctx.random_functional()
    centered = F.table() - ctx.sp.expectation(F.table())
    G = mal.l_inverse(PathFunctional(ctx.params, values=centered))
    back = mal.number_operator(G).table()
    return float(np.max(np.abs(back - centered)))


def _lemma_iterated_gradient(ctx: _Context) -> float:
    """E[D^(n) F] = E[F prod dR / kappa] over supports of order <= 3.

    The supports are walked as a tree in increasing time order: a child
    support extends its parent's D^(n-1) F by one more gradient and its
    parent's product by one more factor, so each support costs one
    gradient, and both sides keep the operation order of the full chain."""
    params, sp = ctx.params, ctx.sp
    F = ctx.random_functional()
    max_order = min(3, params.horizon)
    worst = 0.0

    def extend(DF: PathFunctional, prod_tab: np.ndarray, after: int, n: int) -> None:
        nonlocal worst
        for t in range(after + 1, params.horizon + 1):
            for j, k in enumerate(params.marks):
                child = mal.gradient(DF, (t, k))
                child_prod = prod_tab * basis_mod.delta_r_table(ctx.basis, t, k) / ctx.basis.kappa[j]
                lhs = sp.expectation(child.table())
                worst = max(worst, abs(lhs - sp.expectation(F.table() * child_prod)))
                if n < max_order:
                    extend(child, child_prod, t, n + 1)

    extend(F, np.ones(sp.n), 0, 1)
    return worst


def _stroock_covariance(ctx: _Context) -> float:
    """cov(F,G) = sum_n (1/n!) <E[D^n F], E[D^n G]> under the kappa pairing."""
    params, sp = ctx.params, ctx.sp
    F, G = ctx.random_functional(), ctx.random_functional()
    cf = chaos_mod.stroock_decompose(F)
    cg = chaos_mod.stroock_decompose(G)
    total = 0.0
    for n in range(1, params.horizon + 1):
        n_fact = factorial(n)
        fk = {s: n_fact * v for s, v in cf.kernel(n).items()}
        gk = {s: n_fact * v for s, v in cg.kernel(n).items()}
        total += chaos_mod.kernel_inner(ctx.basis, fk, gk, n) / n_fact
    lhs = sp.expectation(F.table() * G.table()) - sp.expectation(F.table()) * sp.expectation(G.table())
    return abs(lhs - total)


# Functionals the Poincare check draws and differentiates together: a chunk
# keeps the suite's peak memory where single draws put it.
POINCARE_CHUNK = 10


def _poincare(ctx: _Context) -> float:
    """Var F <= E sum_(t,k) kappa_k |D_(t,k) F|^2 for 100 random F, drawn and
    differentiated POINCARE_CHUNK at a time.  Column f of the (n, chunk)
    draw is the f-th of that many single functionals' draws.  D_(t,k) F
    does not depend on digit t, so its step-t plane is weighted by the
    probability of each slice of the step-t view."""
    sp, kappa = ctx.sp, ctx.basis.kappa
    p = sp.probabilities
    worst = 0.0
    for start in range(0, 100, POINCARE_CHUNK):
        X = ctx.stream.draw((min(POINCARE_CHUNK, 100 - start), sp.n)).T
        var = p @ (X * X) - (p @ X) ** 2
        energy = np.zeros(X.shape[1])
        for t, planes in mal._gradient_planes(ctx.params, X):
            planes *= planes
            energy += np.tensordot(sp.step_view(p, t).sum(axis=1), planes, axes=2) @ kappa
        worst = max(worst, float(np.max(var - energy)))
    return max(worst, 0.0)


def _commutation(ctx: _Context) -> float:
    params = ctx.params
    F = ctx.random_functional()
    semigroup = [(tau, mal.ou_spectral(F, tau)) for tau in (0.1, 0.5, 1.0)]
    worst = 0.0
    for t in range(1, params.horizon + 1):
        for k in params.marks:
            DF = mal.gradient(F, (t, k))
            for tau, P in semigroup:
                lhs = mal.gradient(P, (t, k)).table()
                rhs = math.exp(-tau) * mal.ou_spectral(DF, tau).table()
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _l_inverse_integral(ctx: _Context) -> float:
    """L^{-1} as minus the semigroup time integral, 64-node Gauss-Laguerre."""
    params, sp = ctx.params, ctx.sp
    nodes, weights = np.polynomial.laguerre.laggauss(64)
    worst = 0.0
    for n in range(1, min(params.horizon, 6) + 1):
        approx = float(np.dot(weights, np.exp(-(n - 1) * nodes)))
        worst = max(worst, abs(approx - 1.0 / n))
    if params.horizon <= 6:
        F = ctx.random_functional()
        centered = PathFunctional(params, values=F.table() - sp.expectation(F.table()))
        linv = mal.l_inverse(centered).table()
        acc = np.zeros(sp.n)
        for x, w in zip(nodes, weights):
            acc += (w * math.exp(x)) * mal.ou_spectral(centered, x).table()
        worst = max(worst, float(np.max(np.abs(linv + acc))))
    return worst


def _contractivity(ctx: _Context) -> float:
    sp = ctx.sp
    F = ctx.random_functional()
    worst = 0.0
    for tau in (0.1, 1.0):
        P = mal.ou_spectral(F, tau).table()
        for p in (1, 2):
            worst = max(worst, sp.expectation(np.abs(P) ** p) - sp.expectation(np.abs(F.table()) ** p))
    return max(worst, 0.0)


def _clark_roundtrip(ctx: _Context) -> float:
    F = ctx.random_functional()
    a = float(np.max(np.abs(mal.clark_reconstruct(F).table() - F.table())))
    b = float(np.max(np.abs(mal.clark_reconstruct_z(F).table() - F.table())))
    return max(a, b)


def _clark_second_order(ctx: _Context) -> float:
    """F = E[F|F_t] + sum_{s >= t+1} E[D_(s,k) F | F_{s-1}] dR_(s,k), any t."""
    params, sp = ctx.params, ctx.sp
    F = ctx.random_functional()
    integrand = mal.clark_integrand(F)
    worst = 0.0
    for t in range(params.horizon + 1):
        acc = sp.conditional_expectation(F.table(), t)
        for s in range(t + 1, params.horizon + 1):
            for j, k in enumerate(params.marks):
                acc = acc + integrand.values[:, s - 1, j] * basis_mod.delta_r_table(ctx.basis, s, k)
        worst = max(worst, float(np.max(np.abs(acc - F.table()))))
    return worst


def _gamma_tilde(ctx: _Context) -> float:
    sp = ctx.sp
    F, G = ctx.random_functional(), ctx.random_functional()
    direct = mal.gamma_tilde(F, G).table()
    expanded = mal.gamma_tilde_expansion(F, G).table()
    worst = float(np.max(np.abs(direct - expanded)))
    sym = mal.gamma_tilde(G, F).table()
    worst = max(worst, float(np.max(np.abs(direct - sym))))
    lhs = -sp.expectation(direct)
    rhs = 0.5 * (
        sp.expectation(F.table() * mal.tilde_number_operator(G).table())
        + sp.expectation(G.table() * mal.tilde_number_operator(F).table())
    )
    return max(worst, abs(lhs - rhs))


def _tilde_divergence_centered(ctx: _Context) -> float:
    u = mal._project_predictable(ctx.random_process())
    return abs(ctx.sp.expectation(mal.tilde_divergence(u).table()))


def _singleton_l_operators(ctx: _Context) -> float:
    if ctx.params.n_marks != 1:
        return 0.0
    F = ctx.random_functional()
    diff = mal.tilde_number_operator(F).table() - mal.number_operator(F).table()
    return float(np.max(np.abs(diff)))


def _girsanov_block(ctx: _Context) -> float:
    """The density's mean and factorization, its Doleans and varphi routes,
    and its martingale property.  A density spans min-ratio^T to max-ratio^T
    and every route forms it atom by atom, so each comparison of densities is
    relative to the density at the atom compared."""
    params, sp = ctx.params, ctx.sp
    target = ctx.canonical_target()
    dens = girsanov_mod.girsanov_density(params, target).table()
    tgt_probs = probability_table(target.as_params(params))
    worst = abs(sp.expectation(dens) - 1.0)
    rel = np.abs(dens * sp.probabilities - tgt_probs) / tgt_probs
    worst = max(worst, float(np.max(rel)))
    for route in (girsanov_mod.girsanov_density_doleans, girsanov_mod.girsanov_density_varphi):
        worst = max(worst, float(np.max(np.abs(route(params, target).table() / dens - 1.0))))
    prev = np.ones(sp.n)
    for t in range(1, params.horizon + 1):
        cur = girsanov_mod.girsanov_density(params, target, t).table()
        worst = max(worst, float(np.max(np.abs(sp.conditional_expectation(cur, t - 1) / prev - 1.0))))
        prev = cur
    F = ctx.random_functional()
    direct = float(np.dot(tgt_probs, F.table()))
    worst = max(worst, abs(girsanov_mod.reweighted_expectation(F, target) - direct))
    return worst


CHECKS: list[tuple[str, float, Callable[[_Context], float]]] = [
    ("probability_normalization", 1e-12, _probability_normalization),
    ("rank_roundtrip", 0.0, _rank_roundtrip),
    ("tower_property", 1e-12, _tower_property),
    ("compensated_martingale", 1e-12, _compensated_martingale),
    ("basis_inverse", 1e-12, _basis_inverse),
    ("basis_orthogonality", 1e-12, _basis_orthogonality),
    ("dz_equals_m_dr", 1e-12, _dz_equals_m_dr),
    ("dr_identically_distributed", 1e-12, _dr_identically_distributed),
    ("dr_sum_martingale", 1e-12, _dr_sum_martingale),
    ("isometry", 1e-10, _isometry),
    ("conditional_truncation", 1e-12, _conditional_truncation),
    ("tensor_recursion", 1e-12, _tensor_recursion),
    ("covariance_formula", 1e-10, _covariance_formula),
    ("stroock_roundtrip", 1e-9, _stroock_roundtrip),
    ("doleans_product_vs_series", 1e-10, _doleans),
    ("mecke", 1e-12, _mecke),
    ("ipp_l1", 1e-12, _ipp_l1),
    ("ipp_tilde", 1e-12, _ipp_tilde),
    ("ipp_l2", 1e-10, _ipp_l2),
    ("divergence_predictable_form", 1e-10, _divergence_predictable_form),
    ("divergence_indicator", 1e-12, _divergence_indicator),
    ("product_rules", 1e-12, _product_rules),
    ("gradient_chaos_route", 1e-10, _gradient_chaos_route),
    ("gradient_add_one_singleton", 1e-10, _gradient_equals_add_one_singleton),
    ("number_operator_adjoint", 1e-10, _number_operator_adjoint),
    ("l_inverse_identity", 1e-10, _l_inverse_identity),
    ("lemma_iterated_gradient", 1e-10, _lemma_iterated_gradient),
    ("stroock_covariance", 1e-10, _stroock_covariance),
    ("poincare", 1e-12, _poincare),
    ("commutation", 1e-10, _commutation),
    ("l_inverse_integral_gl64", 1e-8, _l_inverse_integral),
    ("contractivity", 1e-12, _contractivity),
    ("clark_roundtrip", 1e-9, _clark_roundtrip),
    ("clark_second_order", 1e-10, _clark_second_order),
    ("gamma_tilde", 1e-10, _gamma_tilde),
    ("tilde_divergence_centered", 1e-12, _tilde_divergence_centered),
    ("singleton_l_operators", 1e-10, _singleton_l_operators),
    ("girsanov_block", 1e-12, _girsanov_block),
]


class SuiteResults(list):
    """The suite's ``CheckResult``s in ``CHECKS`` order, and ``workers``, the
    number of processes that ran them."""

    def __init__(self, results: list[CheckResult], workers: int):
        super().__init__(results)
        self.workers = workers


# Float tables of n*T*m entries a suite process may hold at its peak; the
# suite forks no more workers than the available memory holds this many of.
# Measured on two marks only (T=12: 346-374 MB per process, 102 MB a table).
WORKER_TABLES = 4

MEMINFO = "/proc/meminfo"
PROC_CGROUP = "/proc/self/cgroup"
CGROUP_ROOT = "/sys/fs/cgroup"
# (directory under CGROUP_ROOT, limit file, usage file) of cgroup v2 and of v1's memory controller
CGROUP_MEMORY_FILES = {2: ("", "memory.max", "memory.current"),
                       1: ("memory", "memory.limit_in_bytes", "memory.usage_in_bytes")}


def _thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _read_int(path: str) -> int | None:
    try:
        with open(path) as fh:
            return int(fh.read())
    except (OSError, ValueError):  # absent, or "max": no limit here
        return None


def available_memory() -> int:
    """Bytes this process may still take: the least of the kernel's
    MemAvailable (free memory plus reclaimable page cache) and, for each
    memory cgroup this process is in and each of its ancestors that sets a
    limit, that limit less the cgroup's usage."""
    with open(MEMINFO) as fh:
        meminfo = dict(line.split(":", 1) for line in fh)
    headroom = [int(meminfo["MemAvailable"].split()[0]) * 1024]  # in kB
    with open(PROC_CGROUP) as fh:
        for line in fh:
            _, controllers, path = line.rstrip("\n").split(":", 2)
            if controllers and "memory" not in controllers.split(","):
                continue
            directory, limit, usage = CGROUP_MEMORY_FILES[1 if controllers else 2]
            parts = [part for part in path.split("/") if part]
            for depth in range(len(parts) + 1):
                here = os.path.join(CGROUP_ROOT, directory, *parts[:depth])
                cap, used = _read_int(os.path.join(here, limit)), _read_int(os.path.join(here, usage))
                if cap is not None and used is not None:
                    headroom.append(cap - used)
    return max(0, min(headroom))


def suite_workers(params: ModelParams) -> int:
    """Processes the suite runs on: one per CPU the process may use, at most
    one per check and per WORKER_TABLES (n, T, m) float tables of available
    memory, and only this one unless the process runs exactly one OS thread.
    Forking a process with other threads (an OpenBLAS pool, say) is unsafe,
    and its workers would oversubscribe the CPUs."""
    if _thread_count() != 1:
        return 1
    table_bytes = 8 * params.n_configurations * params.horizon * params.n_marks
    memory = available_memory() // (WORKER_TABLES * table_bytes)
    return max(1, min(len(os.sched_getaffinity(0)), len(CHECKS), memory))


def run_identity_suite(params: ModelParams, seed: int = 0) -> SuiteResults:
    """Evaluate every identity on the enumerated space for ``params``, each
    on a context of its own, and time each.  The space and the basis are
    built here, once, and the checks then run on ``suite_workers(params)``
    processes; a check that raises, or whose worker dies, raises here, the
    first such in ``CHECKS`` order, with a note naming the check."""
    space(params)
    basis_mod.build_basis(params)
    checks = list(CHECKS)
    outcomes, workers = _fan_out(params, seed, checks, suite_workers(params))
    return SuiteResults([_result(name, outcome) for (name, _, _), outcome in zip(checks, outcomes)], workers)


def _outcome(params: ModelParams, seed: int, check: tuple) -> CheckResult | Exception:
    name, tol, fn = check
    start = time.perf_counter()
    try:
        residual = float(fn(_Context(params, seed, name)))
    except Exception as exc:
        return exc
    return CheckResult(name, residual, tol, time.perf_counter() - start)


def _result(name: str, outcome: CheckResult | Exception) -> CheckResult:
    if isinstance(outcome, Exception):
        outcome.__notes__ = [*getattr(outcome, "__notes__", ()), f"in check {name}"]
        raise outcome
    return outcome


def _pull(todo: int, parent: int) -> Iterator[int]:
    """Check indices taken one byte at a time from the shared pipe until it
    is empty, or, in a worker, until the parent is gone."""
    while os.getpid() == parent or os.getppid() == parent:
        index = os.read(todo, 1)
        if not index:
            return
        yield index[0]


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a RuntimeError with its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc} (raised in a worker; not picklable)")
    return exc


def _work(params: ModelParams, seed: int, checks: list, todo: int, out: int, parent: int) -> None:
    """A worker's life: run the checks it pulls and pickle each (index,
    outcome) to ``out``; it leaves through ``os._exit``, so nothing of the
    parent (buffered output, ``atexit`` hooks) runs twice."""
    code = 1
    try:
        with open(out, "wb") as fh:
            for i in _pull(todo, parent):
                outcome = _outcome(params, seed, checks[i])
                if isinstance(outcome, Exception):
                    outcome = _portable(outcome)
                pickle.dump((i, outcome), fh)
                fh.flush()
        code = 0
    finally:
        os._exit(code)


def _received(fd: int) -> Iterator[tuple[int, CheckResult | Exception]]:
    """The (index, outcome) pairs a worker wrote, until it closed its pipe;
    a pickle cut short by the worker's death ends them."""
    with open(fd, "rb", closefd=False) as fh:
        while True:
            try:
                yield pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                return


def _exit_reason(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"killed by {signal.Signals(os.WTERMSIG(status)).name}"
    return f"exit status {os.waitstatus_to_exitcode(status)}"


def _fan_out(params: ModelParams, seed: int, checks: list, workers: int) -> tuple[list, int]:
    """Outcomes of ``checks`` run by this process and up to ``workers - 1``
    forked ones, which all pull indices from one pipe filled beforehand, and
    the number of processes that ran them.  Every worker is killed and
    reaped before this returns or raises.  With ``workers == 1`` it forks
    nothing and this process runs every check.  (A ProcessPoolExecutor
    would fail every pending check when one worker dies, naming checks that
    ran fine, and its workers would outlive a killed parent.)"""
    parent = os.getpid()
    todo, fill = os.pipe()
    os.write(fill, bytes(range(len(checks))))  # a byte per check, far below PIPE_BUF: the write never blocks
    os.close(fill)
    children: dict[int, int] = {}  # worker pid -> read end of its result pipe
    statuses: dict[int, int] = {}
    try:
        for _ in range(workers - 1):
            out_r, out_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: the ones started share the checks
                os.close(out_r)
                os.close(out_w)
                break
            if pid == 0:
                _work(params, seed, checks, todo, out_w, parent)
            os.close(out_w)
            children[pid] = out_r
        outcomes: list = [None] * len(checks)
        for i in _pull(todo, parent):
            outcomes[i] = _outcome(params, seed, checks[i])
        for pid, fd in children.items():
            for i, outcome in _received(fd):
                outcomes[i] = outcome
            statuses[pid] = os.waitpid(pid, 0)[1]
    finally:
        for pid, fd in children.items():
            os.close(fd)
            if pid not in statuses:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)
        os.close(todo)
    ended = "; ".join(f"worker {pid} {_exit_reason(status)}" for pid, status in statuses.items() if status)
    for i, outcome in enumerate(outcomes):
        if outcome is None:
            outcomes[i] = RuntimeError(f"its worker ended without returning a result ({ended or 'no worker failed'})")
    return outcomes, 1 + len(children)


def worst_offender(results: list[CheckResult]) -> CheckResult | None:
    """The failing check furthest over its tolerance; a NaN residual ranks worst."""
    failing = [r for r in results if not r.passed]
    if not failing:
        return None
    return max(failing, key=lambda r: (math.isnan(r.residual), r.residual - r.tolerance))
