"""Difference operators, gradients, divergences and the number operator.

Two families of operators live side by side.

L1 family (pathwise differences, no basis involved):

    add-one cost      D+_(t,k) F = F(digit t := k) - F(digit t := 0)
    remove-one cost   D-_(t,k) F = (F - F(digit t := 0)) 1{digit t = k}
    restriction       Dbar_t  F = F - F(digit t := 0)
    centered shift    Dtilde_(t,k) F = F(digit t := k) - F
    divergence        delta_tilde(u) = sum_{(t,k) in omega} u - integral u dnu

with the number operator L_tilde F = -delta_tilde(D+ F).

L2 family (tied to the orthogonal increment basis):

    gradient   D_(t,k) F = E[F dR_(t,k) | everything except step t] / kappa_k,

the annihilation operator of the chaotic decomposition: it maps J_n(f_n)
to n J_{n-1}(f_n(.,(t,k))) and returns the kernel of a first-order
integral.  On a singleton mark space D coincides with the add-one cost;
with several marks the two differ (the add-one cost of dR_(t,k^2)
picks up the Gram-Schmidt correction), so each identity below is stated
for the operator that actually satisfies it.  The divergence is the
exact kappa-weighted adjoint of D on the enumerated space, the number
operator L multiplies order-n coefficients by -n, and L = -delta D.

The Ornstein-Uhlenbeck semigroup acts spectrally (order-n coefficients
scaled by exp(-n tau)); its pathwise form resamples each digit
independently: keep with probability exp(-tau), otherwise redraw from
the one-step marginal.  Both routes agree exactly in distribution, which
the Monte Carlo estimator checks.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import exp, sqrt

import numpy as np

from .basis import Point, build_basis, r_step_values, z_step_values
from .chaos import chaos_order_tensor, coefficient_tensor, synthesize
from .space import ModelParams, PathFunctional, SampleSpace, UniformStream, space, step_weights, stream_key


def _step_major(params: ModelParams, alloc=np.empty) -> np.ndarray:
    """(n_configs, T, m) array stored as (T, m, n_configs): each
    ``values[:, t-1, j]`` is a contiguous rank-indexed table."""
    return alloc((params.horizon, params.n_marks, params.n_configurations)).transpose(2, 0, 1)


@dataclass
class ProcessTable:
    """Exact process u(omega, (t,k)): array of shape (n_configs, T, m).

    Predictability is checked, not declared: :meth:`is_predictable` tests
    whether each step t is F_{t-1}-measurable, and no field records it.

    Tables this module allocates are step-major in memory (see
    ``_step_major``); a table handed to the constructor is kept as is,
    never converted, since a copy of a whole table costs T * m tables of
    memory.  The one-step operators read any layout: :func:`divergence`
    stages one step of a table that is not step-major at a time.
    """

    params: ModelParams
    values: np.ndarray

    def __post_init__(self):
        expected = (self.params.n_configurations, self.params.horizon, self.params.n_marks)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != expected:
            raise ValueError(f"process table must have shape {expected}, got {self.values.shape}")

    def is_predictable(self, tol: float = 0.0) -> bool:
        sp = space(self.params)
        for t in range(1, self.params.horizon + 1):
            # axes 0 and 1 of the step view hold digits t..T; row [0, 0] has them all 0
            step = sp.step_view(self.values, t)[..., t - 1, :]
            if np.max(np.abs(step - step[:1, :1])) > tol:
                return False
        return True

    @classmethod
    def zeros(cls, params: ModelParams) -> "ProcessTable":
        return cls(params, _step_major(params, np.zeros))

    @classmethod
    def deterministic_indicator(cls, params: ModelParams, point: Point) -> "ProcessTable":
        t, k = point
        u = cls.zeros(params)
        u.values[:, t - 1, params.mark_index(k)] = 1.0
        return u


def _spread(sp: SampleSpace, plane: np.ndarray, t: int) -> np.ndarray:
    """Table that does not depend on digit t and equals ``plane`` on every
    slice of the step-t view (plane shape: the view's without axis 1)."""
    out = np.empty((sp.n,) + plane.shape[2:])
    sp.step_view(out, t)[:] = plane[:, None]
    return out


# -- L1 difference operators -------------------------------------------------------

def add_one_cost(F: PathFunctional, point: Point) -> PathFunctional:
    """D+: force a jump with mark k at t versus no jump at t."""
    sp = space(F.params)
    t, k = point
    j = F.params.mark_index(k)
    step = sp.step_view(F.table(), t)
    return PathFunctional(F.params, values=_spread(sp, step[:, j + 1] - step[:, 0], t))


def remove_one_cost(F: PathFunctional, point: Point) -> PathFunctional:
    """D-: cost of removing the jump (t,k) where it is present, else 0."""
    sp = space(F.params)
    t, k = point
    j = F.params.mark_index(k)
    step = sp.step_view(F.table(), t)
    out = np.zeros(sp.n)
    sp.step_view(out, t)[:, j + 1] = step[:, j + 1] - step[:, 0]
    return PathFunctional(F.params, values=out)


def bar_grad(F: PathFunctional, t: int) -> PathFunctional:
    sp = space(F.params)
    step = sp.step_view(F.table(), t)
    return PathFunctional(F.params, values=(step - step[:, :1]).reshape(sp.n))


def tilde_grad(F: PathFunctional, point: Point) -> PathFunctional:
    sp = space(F.params)
    t, k = point
    j = F.params.mark_index(k)
    step = sp.step_view(F.table(), t)
    return PathFunctional(F.params, values=(step[:, j + 1 : j + 2] - step).reshape(sp.n))


def iterated_difference(F: PathFunctional, support: tuple[Point, ...]) -> PathFunctional:
    """Iterated add-one cost on a support with strictly increasing times:
    the alternating sum over subsets J of [n] of F(all support digits
    zeroed, digits restored on J)."""
    params = F.params
    sp = space(params)
    times = [t for t, _ in support]
    if len(set(times)) != len(times):
        raise ValueError(f"support times must be distinct, got {support}")
    n = len(support)
    out = np.zeros(sp.n)
    for mask in range(1 << n):
        vals = F.table()
        for i, (t, k) in enumerate(support):
            digit = params.mark_index(k) + 1 if mask >> i & 1 else 0
            vals = _spread(sp, sp.step_view(vals, t)[:, digit], t)
        out += (-1.0) ** (n - bin(mask).count("1")) * vals
    return PathFunctional(params, values=out)


# -- L2 gradient family -------------------------------------------------------------

@lru_cache(maxsize=64)
def _projection(params: ModelParams) -> np.ndarray:
    """w_d r_j(d) / kappa_j, shape (base, m): contracting the step axis of
    a table with column j gives D_(t,k^j).  Cached, so read-only."""
    rstep = r_step_values(params)
    proj = step_weights(params)[:, None] * rstep / build_basis(params).kappa[None, :]
    proj.flags.writeable = False
    return proj


def _gradient_plane(params: ModelParams, table: np.ndarray, t: int) -> np.ndarray:
    """plane[a, c, ..., j] = D_(t,k^j) of the rank-indexed table on the step-t
    view's slice (a, c), every mark in one contraction; the table's trailing
    axes pass through, so one call serves a batch of functionals."""
    view = space(params).step_view(table, t)
    return view.transpose(0, 2, *range(3, view.ndim), 1) @ _projection(params)


def _gradient_planes(params: ModelParams, table: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(t, :func:`_gradient_plane`) for t = 1..T."""
    for t in range(1, params.horizon + 1):
        yield t, _gradient_plane(params, table, t)


def gradient(F: PathFunctional, point: Point) -> PathFunctional:
    """Annihilation gradient D_(t,k): projection of the step-t slice of F
    onto dR_(t,k), normalized by kappa_k.  Independent of digit t.  Column k
    of the step-t contraction of :func:`gradient_process`, bit for bit."""
    params = F.params
    sp = space(params)
    t, k = point
    plane = _gradient_plane(params, F.table(), t)[..., params.mark_index(k)]
    return PathFunctional(params, values=_spread(sp, plane, t))


def gradient_process(F: PathFunctional) -> ProcessTable:
    """D_(t,k) F for every (t, k): one contraction of the step axis per step,
    whose column k at step t is :func:`gradient` at (t, k)."""
    params = F.params
    sp = space(params)
    out = _step_major(params)
    for t, plane in _gradient_planes(params, F.table()):
        sp.step_view(out, t)[..., t - 1, :] = plane[:, None]
    return ProcessTable(params, out)


def iterated_gradient(F: PathFunctional, support: tuple[Point, ...]) -> PathFunctional:
    """D^(n) built from the annihilation gradient (operators at distinct
    times commute); its expectation is n! times the chaos kernel."""
    times = [t for t, _ in support]
    if len(set(times)) != len(times):
        raise ValueError(f"support times must be distinct, got {support}")
    out = F
    for point in support:
        out = gradient(out, point)
    return out


def gradient_via_chaos(F: PathFunctional, point: Point) -> PathFunctional:
    """Same operator computed through the coefficient tensor (cross-check)."""
    params = F.params
    t, k = point
    j = params.mark_index(k) + 1
    C = coefficient_tensor(F)
    out = np.zeros_like(C)
    sl_src = [slice(None)] * params.horizon
    sl_dst = [slice(None)] * params.horizon
    sl_src[t - 1] = j
    sl_dst[t - 1] = 0
    out[tuple(sl_dst)] = C[tuple(sl_src)]
    return synthesize(params, out)


# -- divergences ---------------------------------------------------------------------

def divergence(u: ProcessTable) -> PathFunctional:
    """Exact adjoint of the gradient: the unique functional with
    E[F delta(u)] = E[sum_(t,k) kappa_k D_(t,k)F u(.,(t,k))] for every F.

    For predictable u it reduces to sum u(.,(t,k)) dR_(t,k) (checked by
    enumeration in the tests).

    Reads u one step at a time.  On a table that is not step-major (the
    rows of ``values[:, t-1, :]`` are not adjacent floats, as in a C-order
    (n, T, m) array) each step is first copied into one reused step-major
    (n, m) buffer, so the sums run on the same layout, and give the same
    bits, as on a step-major table; the whole table is never copied.
    """
    params = u.params
    sp = space(params)
    # configuration omega sends p(omega) u(omega, (t,k^j)) w_d r_j(d) to omega with digit t := d
    spread = (sp.step_weights[:, None] * r_step_values(params)).T
    scatter = np.zeros(sp.n)
    values = u.values
    stage = None if values.strides[0] == values.itemsize else np.empty((params.n_marks, sp.n)).T
    for t in range(1, params.horizon + 1):
        step = values[:, t - 1, :]
        if stage is not None:
            np.copyto(stage, step)
            step = stage
        step_u = sp.step_view(step, t)
        step_p = sp.step_view(sp.probabilities, t)[..., None]
        # sum over digit t in digit order: the same rounding on every memory layout of u
        mass = step_p[:, 0] * step_u[:, 0]
        for d in range(1, sp.base):
            mass += step_p[:, d] * step_u[:, d]
        sp.step_view(scatter, t)[:] += (mass @ spread).swapaxes(1, 2)
    return PathFunctional(params, values=scatter / sp.probabilities)


def tilde_divergence(u: ProcessTable) -> PathFunctional:
    """delta_tilde(u) = sum over charged points of u minus integral of u dnu."""
    params = u.params
    sp = space(params)
    lq = params.jump_prob * np.asarray(params.mark_probs)
    charged = np.zeros(sp.n)
    compensator = np.zeros(sp.n)  # summed in (t, k) order: the same rounding on every memory layout of u
    for t in range(1, params.horizon + 1):
        for j in range(params.n_marks):
            # u(omega, (t, k^j)) is charged where digit t is j + 1
            sp.step_view(charged, t)[:, j + 1] += sp.step_view(u.values[:, t - 1, j], t)[:, j + 1]
            compensator += lq[j] * u.values[:, t - 1, j]
    return PathFunctional(params, values=charged - compensator)


def mecke_check(u: ProcessTable) -> tuple[float, float]:
    """Both sides of the Mecke identity: E[sum_{(t,k) in omega} u(omega,(t,k))]
    versus sum_(t,k) nu({(t,k)}) E[u(omega with (t,k) forced, (t,k))]."""
    params = u.params
    sp = space(params)
    lq = params.jump_prob * np.asarray(params.mark_probs)
    lhs = 0.0
    rhs = 0.0
    for t in range(1, params.horizon + 1):
        step = sp.step_view(u.values, t)
        for j in range(params.n_marks):
            charged = np.zeros(sp.n)
            sp.step_view(charged, t)[:, j + 1] = step[:, j + 1, :, t - 1, j]
            lhs += sp.expectation(charged)
            forced = _spread(sp, step[:, j + 1, :, t - 1, j], t)
            rhs += lq[j] * sp.expectation(forced)
    return lhs, rhs


# -- number operator and inverse -------------------------------------------------------

def number_operator(F: PathFunctional) -> PathFunctional:
    """L: multiply order-n chaos coefficients by -n (equals -delta D)."""
    params = F.params
    C = coefficient_tensor(F)
    return synthesize(params, -chaos_order_tensor(params) * C)


def l_inverse(F: PathFunctional) -> PathFunctional:
    """L^{-1}: divide order-n coefficients by -n; demands E[F] = 0."""
    params = F.params
    C = coefficient_tensor(F)
    mean = float(C.reshape(-1, order="F")[0])
    if abs(mean) > 1e-9 * max(1.0, float(np.max(np.abs(C)))):
        raise ValueError(f"center first: l_inverse needs E[F] = 0, got {mean!r}")
    order = chaos_order_tensor(params)
    scale = np.where(order > 0, -1.0 / np.maximum(order, 1), 0.0)
    return synthesize(params, C * scale)


def tilde_number_operator(F: PathFunctional) -> PathFunctional:
    """L_tilde F = -delta_tilde(D+ F), the L1-theory number operator."""
    params = F.params
    sp = space(params)
    u = ProcessTable.zeros(params)
    for t in range(1, params.horizon + 1):
        step = sp.step_view(F.table(), t)
        sp.step_view(u.values, t)[..., t - 1, :] = (step[:, 1:] - step[:, :1]).swapaxes(1, 2)[:, None]
    return PathFunctional(params, values=-tilde_divergence(u).table())


def gamma_tilde(F: PathFunctional, G: PathFunctional) -> PathFunctional:
    """Gamma_tilde(F,G) = (L_tilde(FG) - F L_tilde G - G L_tilde F) / 2."""
    FG = F * G
    out = tilde_number_operator(FG).table() - F.table() * tilde_number_operator(G).table() \
        - G.table() * tilde_number_operator(F).table()
    return PathFunctional(F.params, values=0.5 * out)


def gamma_tilde_expansion(F: PathFunctional, G: PathFunctional) -> PathFunctional:
    """Four-integral form of Gamma_tilde (product-rule expansion)."""
    params = F.params
    sp = space(params)
    lq = params.jump_prob * np.asarray(params.mark_probs)
    acc = np.zeros(sp.n)
    for t in range(1, params.horizon + 1):
        dbarF = bar_grad(F, t).table()
        dbarG = bar_grad(G, t).table()
        for k in params.marks:
            j = params.mark_index(k)
            dpF = add_one_cost(F, (t, k)).table()
            dpG = add_one_cost(G, (t, k)).table()
            dmF = remove_one_cost(F, (t, k)).table()
            dmG = remove_one_cost(G, (t, k)).table()
            acc += lq[j] * (dpF * dpG - dpF * dbarG - dpG * dbarF)
            acc += dmF * dmG  # the remove-one costs vanish off digit j + 1
    return PathFunctional(params, values=0.5 * acc)


# -- Ornstein-Uhlenbeck semigroup ------------------------------------------------------

def ou_spectral(F: PathFunctional, tau: float) -> PathFunctional:
    """P_tau F: order-n coefficients scaled by exp(-n tau)."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    params = F.params
    C = coefficient_tensor(F)
    return synthesize(params, C * np.exp(-tau * chaos_order_tensor(params)))


MEHLER_BLOCK_DRAWS = 2**18


def ou_mehler_mc(F: PathFunctional, tau: float, n_samples: int,
                 stream: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo Mehler estimate of P_tau F at every configuration.

    Each digit survives with probability exp(-tau) and is otherwise
    replaced by a fresh draw from the one-step marginal.  One uniform u
    per digit does both: the number of edges
    exp(-tau) + (1 - exp(-tau)) (w_0 + ... + w_(d-1)), d = 0..m, at or below
    u is 0 to keep the digit and d + 1 to redraw digit d.  The draws are
    :func:`UniformStream.fill_digits` counts of the counter stream
    ``stream_key(rng_seed, "mehler stream <stream>")``, read at consecutive
    positions in (configuration, sample, step) order, so the estimate does
    not depend on how configurations are split into passes of
    MEHLER_BLOCK_DRAWS digits.  Returns (means, standard errors).
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if stream < 0:
        raise ValueError(f"stream index must be non-negative, got {stream}")
    params = F.params
    sp = space(params)
    vals = F.table()
    keep_p = exp(-tau)
    edges = keep_p + (1.0 - keep_p) * np.concatenate([[0.0], np.cumsum(sp.step_weights[:-1])])
    draws = UniformStream(stream_key(params.rng_seed, f"mehler stream {stream}"))
    block = max(1, MEHLER_BLOCK_DRAWS // (n_samples * params.horizon))
    B = sp.base
    # entry p * B + d is the new digit for count p and old digit d: d if p = 0, else p - 1
    new_digit = np.concatenate([np.arange(B), np.repeat(np.arange(B), B)]).astype(np.int8)
    pick_type = np.uint8 if new_digit.size <= 256 else np.intp
    old_digits = sp.digits.view(np.uint8)  # digits are nonnegative
    means = np.empty(sp.n)
    errs = np.empty(sp.n)
    # counts reach B = m + 1, which int8 holds only below 128 marks; one buffer serves every block
    counts = np.empty((min(block, sp.n), n_samples, params.horizon), dtype=np.uint8)
    for start in range(0, sp.n, block):
        stop = min(start + block, sp.n)
        pick = draws.fill_digits(counts[: stop - start], edges).astype(pick_type, copy=False)
        pick *= B
        pick += old_digits[start:stop, None, :]
        sample = vals[new_digit.take(pick) @ sp.powers]
        means[start:stop] = sample.mean(axis=1)
        errs[start:stop] = sample.std(axis=1, ddof=1) / sqrt(n_samples)
    return means, errs


# -- Clark representation ---------------------------------------------------------------
#
# D_(t,k) acts on digit t alone, so D_(t,k) E[F | F_t] = E[D_(t,k) F | F_{t-1}]: the
# integrand at step t is the gradient of the martingale M_t = E[F | F_t], a table of
# B^t atoms, and never needs a whole-space table.  Ranks put digit 1 lowest, so
# M_t's atom of digits 1..t is entry d * B^(t-1) + c with d = digit t: viewed as
# (B, B^(t-1)), digit t is the slow axis, M_(t-1) is its step-weighted sum and
# plane t is its contraction with the projection onto dR_(t,k).

def _project_predictable(u: ProcessTable) -> ProcessTable:
    """u(.,(t,k)) := E[u(.,(t,k)) | F_{t-1}] for every (t, k), in place."""
    sp = space(u.params)
    for t in range(1, u.params.horizon + 1):
        for j in range(u.params.n_marks):
            u.values[:, t - 1, j] = sp.conditional_expectation(u.values[:, t - 1, j], t - 1)
    return u


def _clark_planes(F: PathFunctional, z: bool) -> tuple[np.ndarray, list[np.ndarray]]:
    """E[F] as a (1,) table and, for t = 1..T, the (m, B^(t-1)) plane whose
    column c holds the Clark integrand at step t on the F_{t-1} atom c: in
    R-coordinates E[D_(t,k^j) F | F_{t-1}], in Z-coordinates (``z``) its
    combination sum_{j >= i} Minv[j, i] E[D_(t,k^j) F | F_{t-1}] at k^i.
    One backward recursion from M_T = F through the shrinking prefix tables."""
    params = F.params
    contract = _projection(params).T
    if z:
        contract = build_basis(params).matrix_m_inv.T @ contract
    weights = step_weights(params)
    martingale = F.table()
    planes = []
    for _ in range(params.horizon):
        view = martingale.reshape(len(weights), -1)
        planes.append(contract @ view)
        martingale = weights @ view
    planes.reverse()
    return martingale, planes


def _clark_table(F: PathFunctional, z: bool) -> ProcessTable:
    """The Clark integrand spread over the step-major (n, T, m) table: step t
    reads digits 1..t-1 alone, so each row of plane t repeats B^(T-t+1) times."""
    params = F.params
    sp = space(params)
    values = _step_major(params)
    for t, plane in enumerate(_clark_planes(F, z)[1], 1):
        for j, row in enumerate(plane):
            sp.step_view(values[:, t - 1, j], t)[:] = row
    return ProcessTable(params, values)


def _clark_synthesis(F: PathFunctional, z: bool) -> PathFunctional:
    """E[F] + sum_(t,k) (Clark integrand) dR_(t,k), or dZ_(t,k) with ``z``:
    one forward recursion acc_t[d, c] = acc_(t-1)[c] + sum_k plane_t[k, c] x_k(d)
    on the same prefix tables, x_k(d) the dR (dZ) value of digit d, ending
    at the whole table."""
    params = F.params
    increments = z_step_values(params) if z else r_step_values(params)
    acc, planes = _clark_planes(F, z)
    for plane in planes:
        step = increments @ plane
        step += acc
        acc = step.reshape(-1)
    return PathFunctional(params, values=acc)


def clark_integrand(F: PathFunctional) -> ProcessTable:
    """Predictable integrand E[D_(t,k) F | F_{t-1}]."""
    return _clark_table(F, z=False)


def clark_reconstruct(F: PathFunctional) -> PathFunctional:
    """E[F] + sum_(t,k) E[D_(t,k)F | F_{t-1}] dR_(t,k); equals F."""
    return _clark_synthesis(F, z=False)


def clark_integrand_z(F: PathFunctional) -> ProcessTable:
    """Z-coordinates of the Clark integrand: at (t, k^i) the combination
    sum_{j >= i} Minv[j, i] E[D_(t,k^j) F | F_{t-1}]."""
    return _clark_table(F, z=True)


def clark_reconstruct_z(F: PathFunctional) -> PathFunctional:
    """E[F] + sum_(t,k) (Z-coordinate Clark integrand) dZ_(t,k); equals F."""
    return _clark_synthesis(F, z=True)
