"""Multiple stochastic integrals and chaotic decompositions.

On a finite horizon the products

    prod_i dR_(t_i, k_i),   t_1 < ... < t_n,

together with the constant 1 form an orthogonal basis of the space of
all functionals, so every F decomposes uniquely as

    F = E[F] + sum_n J_n(f_n),
    J_n(f_n) = n! * sum_{t_1<...<t_n, marks} f_n(support) prod_i dR_(t_i,k_i).

The decomposition is held as one coefficient tensor: axis t is the step,
index 0 the constant slot and index j mark j, and the entry on a
time-ordered support is n! * f_n (the symmetric kernel is determined
there).  With this normalization the kernel of the plain product
dR_(t1,k1) * dR_(t2,k2) has value 1/2! on its support, and the
coefficients are recovered as f_n = E[D^(n) F] / n! (expected iterated
gradients, module :mod:`malliavin`).  Sparse dict kernels exist only at
the edges, where they are mapped to and from tensor ranks.

Decomposition and reconstruction are carried out by a per-step tensor
transform: contracting axis t of the reshaped table with the analysis
matrix W[j, d] = w_d * r_j(d) / kappa_j (row j = 0 holds the step
probabilities) produces every projection coefficient in one pass, and the
synthesis matrix V[d, j] = r_j(d) inverts it exactly (the basis is the tensor
product of one-step bases; Privault, Probab. Surveys 5, 2008).

Reference inner product: kernels are paired by the kappa-weighted
counting measure, <f, g>_n = n! * sum_{ordered supports} f g prod kappa,
under which E[J_n(f) J_m(g)] = 1{n=m} n! <f, g>_n.
"""
from __future__ import annotations

import operator
import os
import warnings
from collections.abc import Iterator
from functools import cached_property, lru_cache
from itertools import combinations, product, repeat
from math import factorial

import numpy as np

from .basis import (
    Kernel,
    OrthogonalBasis,
    Point,
    build_basis,
    convert_coeffs_r_to_z,
    r_step_values,
    z_step_values,
)
from .space import (
    ModelParams,
    PathFunctional,
    UniformStream,
    _rank_powers,
    _refuse_oversized,
    _text17,
    step_products,
    step_weights,
)

# Coefficients at or below this fraction of the largest one are rounding
# dust from the transform; kernels read out of the tensor leave them out.
REL_TOL = 1e-13


def _kernel_tensor(params: ModelParams, kernel: Kernel, n: int) -> np.ndarray:
    """Input edge: the coefficient tensor (flat, in rank order) of an order-n
    kernel, n! * f_n on each support.  Every support must hold n (time, mark)
    points with times strictly increasing in 1..T and marks of the model."""
    if not 1 <= n <= params.horizon:
        raise ValueError(f"order {n} outside 1..{params.horizon}")
    _refuse_oversized(params)
    try:
        points = np.array(list(kernel), dtype=float).reshape(len(kernel), n, 2)
    except (TypeError, ValueError):
        raise ValueError(f"a support has the wrong size or form for order {n}") from None
    times, marks = points[..., 0], points[..., 1]
    matches = marks[..., None] == np.asarray(params.marks)
    for bad, message in (
        (~np.all((times >= 1) & (times <= params.horizon) & (times == np.floor(times)), axis=1),
         f"support times must lie in 1..{params.horizon}"),
        (np.any(np.diff(times, axis=1) <= 0, axis=1), "support times must strictly increase"),
        (~np.all(matches.any(axis=2), axis=1), f"support marks must be marks of the model {params.marks}"),
    ):
        if bad.any():
            raise ValueError(f"{message}: {list(kernel)[int(np.argmax(bad))]}")
    digits = matches.argmax(axis=2) + 1
    ranks = (digits * _rank_powers(params)[times.astype(np.int64) - 1]).sum(axis=1)
    flat = np.zeros(params.n_configurations)
    flat[ranks] = factorial(n) * np.fromiter(kernel.values(), dtype=float, count=len(kernel))
    return flat


class ChaosCoefficients:
    """Chaotic decomposition held as its coefficient tensor, built from a constant
    and per-order kernels on time-ordered supports.

    Kernels read back out leave out entries at or below ``REL_TOL`` times
    the largest coefficient.  Each order is read out on its own: the first
    read of order n selects that order's retained ranks through
    :func:`chaos_order_tensor`, sorts only them and keeps the sorted block,
    so ``kernel(1)`` never touches the other orders.  ``kernel(n)``,
    ``orders``, ``rows()`` and the CSV all read these blocks.
    """

    def __init__(self, params: ModelParams, f0: float, orders: dict[int, Kernel] | None = None):
        _refuse_oversized(params)
        flat = np.zeros(params.n_configurations)
        for n, kernel in (orders or {}).items():
            flat += _kernel_tensor(params, kernel, n)
        flat[0] = f0
        self.params = params
        self.tensor = flat.reshape((params.n_marks + 1,) * params.horizon, order="F")
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_tensor(cls, params: ModelParams, tensor: np.ndarray) -> "ChaosCoefficients":
        coeffs = cls.__new__(cls)
        coeffs.params, coeffs.tensor, coeffs._blocks = params, tensor, {}
        return coeffs

    @property
    def f0(self) -> float:
        return float(self.tensor.flat[0])

    @cached_property
    def _kept_order(self) -> np.ndarray:
        """Chaos order of every retained coefficient in rank order, 0 for
        the constant and for every coefficient left out."""
        flat = self.tensor.reshape(-1, order="F")
        tol = REL_TOL * max(1e-300, float(np.max(np.abs(flat))))
        kept = chaos_order_tensor(self.params).reshape(-1, order="F").astype(np.int8)
        kept[~(np.abs(flat) > tol)] = 0
        return kept

    def _present(self) -> list[int]:
        """Orders n >= 1 with at least one retained coefficient, ascending."""
        return (np.flatnonzero(np.bincount(self._kept_order)[1:]) + 1).tolist()

    def _block(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Output edge: (ranks, kernel values) of the retained order-n
        coefficients, sorted lexicographically by the (time, mark value)
        pairs of their supports."""
        block = self._blocks.get(n)
        if block is not None:
            return block
        params, powers = self.params, _rank_powers(self.params)
        ranks = np.flatnonzero(self._kept_order == n)
        # Two supports of one order first differ at the earliest step where
        # their digits differ; there a jump comes before no jump, and a lower
        # mark value before a higher one.  Step codes in that order, read as
        # base-(1+m) numbers with step 1 leading, sort the supports.  The key
        # is summed one step at a time, so no (k, T) int64 table is built.
        step_code = np.concatenate([[params.n_marks], np.argsort(np.argsort(params.marks))])
        key = np.zeros(ranks.shape, dtype=np.int64)
        rest = ranks
        for t in range(params.horizon):
            rest, digit = np.divmod(rest, params.n_marks + 1)
            key += (step_code * powers[params.horizon - 1 - t])[digit]
        ranks = ranks[np.argsort(key)]
        block = self._blocks[n] = (ranks, self.tensor.reshape(-1, order="F")[ranks] / float(factorial(n)))
        return block

    def kernel(self, n: int) -> Kernel:
        if not 1 <= n <= self.params.horizon:
            return {}
        params = self.params
        ranks, values = self._block(n)
        digits = ranks[:, None] // _rank_powers(params) % (params.n_marks + 1)
        rows, steps = np.nonzero(digits)
        times = steps.reshape(-1, n)
        kidx = digits[rows, steps].reshape(-1, n) - 1
        # supports share one (time, mark) tuple per point instead of building their own
        points = np.empty((params.horizon, params.n_marks), dtype=object)
        for t, j in np.ndindex(points.shape):
            points[t, j] = (t + 1, params.marks[j])
        slots = [points[times[:, i], kidx[:, i]].tolist() for i in range(n)]
        return dict(zip(zip(*slots), values.tolist()))

    @property
    def orders(self) -> dict[int, Kernel]:
        return {n: self.kernel(n) for n in self._present()}

    @cached_property
    def _label_tables(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(B^s, low, high) with s = T // 2, which label the support of rank
        r in two parts: ``low[r % B^s]`` its points on steps 1..s and
        ``high[j, r // B^s]`` those on steps s+1..T, led by the ';' that
        joins them to a non-empty low part when j = 1.  A label joins 't:k'
        points with ';', marks rendered with format 'g'."""
        params = self.params
        split = params.horizon // 2

        def labels(steps: range) -> list[str]:
            # index sum_i d_i B^i over the steps, the first one least significant
            out = [""]
            for t in steps:
                points = [f"{t}:{k:g}" for k in params.marks]
                out = out + [f"{prev};{point}" if prev else point for point in points for prev in out]
            return out

        high = labels(range(split + 1, params.horizon + 1))
        return ((params.n_marks + 1) ** split, np.array(labels(range(1, split + 1)), dtype=object),
                np.array([high, [f";{label}" if label else "" for label in high]], dtype=object))

    def _label_cells(self, n: int) -> tuple[list[str], list[str], np.ndarray]:
        """(low parts, high parts, kernel values) of the order-n rows: a
        row's support label is its low part followed by its high part."""
        ranks, values = self._block(n)
        size, low_table, high_table = self._label_tables
        high, low = np.divmod(ranks, size)
        return low_table[low].tolist(), high_table[(low > 0).astype(np.intp), high].tolist(), values

    def iter_rows(self) -> Iterator[tuple[int, str, float]]:
        """The rows of :meth:`rows` one at a time, labelled one order at a time."""
        yield 0, "", self.f0
        for n in self._present():
            lows, highs, values = self._label_cells(n)
            yield from zip(repeat(n), map(operator.add, lows, highs), values.tolist())

    def rows(self) -> list[tuple[int, str, float]]:
        """(order, support label, kernel value), the constant first."""
        return list(self.iter_rows())

    def csv_pieces(self) -> Iterator[str]:
        """The CSV text (order, support, value), values at 17 significant
        digits, as a header piece and then one piece per order."""
        yield f"order,support,value\n0,,{_text17(np.array([self.f0]))}\n"
        for n in self._present():
            lows, highs, values = self._label_cells(n)
            cells = [""] * (3 * len(lows))
            cells[::3], cells[1::3], cells[2::3] = lows, highs, _text17(values).split("\n")
            yield "".join([f"{n},%s%s,%s\n"] * len(lows)) % tuple(cells)

    def csv_text(self) -> str:
        return "".join(self.csv_pieces())

    def export_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self.csv_pieces())


# -- tensor transform ------------------------------------------------------------

@lru_cache(maxsize=64)
def _transform_matrices(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(analysis W, synthesis V) for one time step; index 0 is the constant."""
    basis = build_basis(params)
    B = params.n_marks + 1
    V = np.ones((B, B))
    V[:, 1:] = r_step_values(params)
    kap = np.concatenate([[1.0], basis.kappa])
    W = (step_weights(params)[:, None] * V / kap[None, :]).T
    V.flags.writeable = False
    W.flags.writeable = False
    return W, V


def _apply_per_step(params: ModelParams, table: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``matrix`` applied to every step axis of a rank-ordered table, the
    Kronecker product of T copies acting on it.  Each pass contracts the
    fastest axis (step 1 first) in one gemm and moves it to the slowest place
    by one transposing copy, so after T passes the table is in rank order."""
    X = np.asarray(table, dtype=float).reshape(-1, order="F")
    for _ in range(params.horizon):
        X = (X.reshape(-1, matrix.shape[1]) @ matrix.T).T.reshape(-1)
    return X.reshape((params.n_marks + 1,) * params.horizon, order="F")


def coefficient_tensor(F: PathFunctional) -> np.ndarray:
    """All orthogonal-projection coefficients of F, axis t = 0-based step,
    index 0 = constant slot, index j = mark j at that step."""
    W, _ = _transform_matrices(F.params)
    return _apply_per_step(F.params, F.table(), W)


def synthesize(params: ModelParams, coeffs: np.ndarray) -> PathFunctional:
    _, V = _transform_matrices(params)
    table = _apply_per_step(params, coeffs, V).reshape(-1, order="F")
    return PathFunctional(params, values=np.ascontiguousarray(table))


def _point_ranks(params: ModelParams) -> np.ndarray:
    """(T, m) ranks j * B^(t-1) of the one-point supports (t, k^j)."""
    return _rank_powers(params)[:, None] * np.arange(1, params.n_marks + 1)


@lru_cache(maxsize=64)
def chaos_order_tensor(params: ModelParams) -> np.ndarray:
    """Chaos order (number of non-constant slots) of every coefficient, laid
    out in rank order like the tensors the transform returns, so products
    with them keep that layout and synthesize reads them without a copy.
    Built step by step with no digit table: the ranks d * B^t + c with
    d >= 1 have order order(c) + 1."""
    _refuse_oversized(params)
    B = params.n_marks + 1
    order = np.zeros(params.n_configurations, dtype=np.int64)
    size = 1
    for _ in range(params.horizon):
        np.add(order[:size], 1, out=order[size : B * size].reshape(B - 1, size))
        size *= B
    order = order.reshape((B,) * params.horizon, order="F")
    order.flags.writeable = False
    return order


# -- multiple integrals -----------------------------------------------------------

def multiple_integral(basis: OrthogonalBasis, f_n: Kernel, n: int, family: str = "R") -> PathFunctional:
    """J_n(f_n) = n! * sum over ordered supports of f_n * prod of increments.

    family "R" integrates against the orthogonal family, "Z" against the
    raw centered indicators (the pseudo-chaotic form).  Order above the
    horizon integrates to zero (warned).  The kernel is scattered into a
    coefficient tensor and synthesized with the family's one-step values.
    """
    params = basis.params
    if n == 0:
        return PathFunctional.constant(params, f_n.get((), 0.0))
    if n > params.horizon:
        warnings.warn(f"order {n} exceeds horizon {params.horizon}; integral is zero")
        return PathFunctional.constant(params, 0.0)
    if family not in ("R", "Z"):
        raise ValueError(f"family must be 'R' or 'Z', got {family!r}")
    step = r_step_values(params) if family == "R" else z_step_values(params)
    V = np.hstack([np.ones((len(step), 1)), step])
    table = _apply_per_step(params, _kernel_tensor(params, f_n, n), V).reshape(-1, order="F")
    return PathFunctional(params, values=np.ascontiguousarray(table))


def product_kernel(params: ModelParams, support: tuple[Point, ...]) -> Kernel:
    """Kernel whose multiple integral is the plain product of dR increments
    on ``support`` (value 1/n!, the symmetrized indicator)."""
    return {tuple(support): 1.0 / factorial(len(support))}


def stroock_decompose(F: PathFunctional) -> ChaosCoefficients:
    """Chaos kernels of F: f_0 = E[F], f_n = E[D^(n) F] / n! on ordered
    supports, computed in one pass by the per-step tensor transform."""
    return ChaosCoefficients.from_tensor(F.params, coefficient_tensor(F))


def reconstruct(basis: OrthogonalBasis, coeffs: ChaosCoefficients) -> PathFunctional:
    """F = f_0 + sum_n J_n(f_n); exact inverse of stroock_decompose."""
    return synthesize(coeffs.params, coeffs.tensor)


# -- inner products ---------------------------------------------------------------

def kernel_inner(basis: OrthogonalBasis, f_n: Kernel, g_n: Kernel, n: int) -> float:
    """<f, g>_n = n! * sum over ordered supports of f * g * prod kappa."""
    params = basis.params
    kappa = dict(zip(params.marks, basis.kappa.tolist()))
    acc = 0.0
    for support, fv in f_n.items():
        gv = g_n.get(support)
        if gv is None:
            continue
        w = 1.0
        for _, k in support:
            try:
                w *= kappa[k]
            except (KeyError, TypeError):  # not a mark key: mark_index converts or raises ValueError
                w *= basis.kappa[params.mark_index(k)]
        acc += fv * gv * w
    return factorial(n) * acc


def covariance_from_coeffs(basis: OrthogonalBasis, cf: ChaosCoefficients, cg: ChaosCoefficients) -> float:
    """cov(F, G) = sum_n n! <f_n, g_n>_n, by Parseval on the coefficient tensors:
    the sum over non-constant d of C_F(d) C_G(d) prod_t kappa(d_t), kappa(0) = 1."""
    weight = step_products([np.concatenate([[1.0], basis.kappa])] * basis.params.horizon)
    weight[0] = 0.0
    return float(np.sum(cf.tensor.reshape(-1, order="F") * cg.tensor.reshape(-1, order="F") * weight))


def random_kernel(params: ModelParams, n: int, rng: np.random.Generator | UniformStream, density: float = 1.0) -> Kernel:
    """Seeded random order-n kernel on all (or a fraction of) ordered supports.

    ``rng`` is a numpy Generator, drawn one ``normal()`` per kept support, or
    the identity suite's stream, which gives every support its value in one
    ``draw`` call (density 1 only)."""
    times = range(1, params.horizon + 1)
    supports = [tuple(zip(tset, ks)) for tset in combinations(times, n) for ks in product(params.marks, repeat=n)]
    if hasattr(rng, "draw"):
        if density < 1.0:
            raise ValueError("a stream gives every support a value: density must be 1")
        return dict(zip(supports, rng.draw(len(supports)).tolist()))
    kernel: Kernel = {}
    for support in supports:
        if density < 1.0 and rng.random() > density:
            continue
        kernel[support] = float(rng.normal())
    return kernel


# -- Doleans exponentials ----------------------------------------------------------

def doleans_exponential(basis: OrthogonalBasis, h: Kernel) -> PathFunctional:
    """Exponential functional of an order-1 kernel h.

    Product form: prod_t (1 + sum_k g(t,k) (1{(t,k) in omega} - lambda Q_k))
    with g the Z-coordinates of h; equivalently the chaos series
    1 + sum_n J_n(h tensor n) / n!, which the tests check termwise.
    """
    params = basis.params
    g = _kernel_tensor(params, convert_coeffs_r_to_z(basis, h), 1)[_point_ranks(params)]
    factors = 1.0 + g @ z_step_values(params).T   # (T, 1+m): row t-1 holds step t's factor per digit
    return PathFunctional(params, values=step_products(factors))


def doleans_series(basis: OrthogonalBasis, h: Kernel) -> PathFunctional:
    """Chaos series of the exponential (for verification): in sum_n J_n(h tensor n) / n!
    the coefficient of prod dR over a support is the product of h over it, so
    the tensor is the outer product over steps of (1, h(t, k^1), ..., h(t, k^m))."""
    params = basis.params
    factors = np.ones((params.horizon, params.n_marks + 1))
    factors[:, 1:] = _kernel_tensor(params, h, 1)[_point_ranks(params)]
    tensor = factors[0]
    for row in factors[1:]:
        tensor = np.multiply.outer(tensor, row)
    return PathFunctional(params, values=synthesize(params, tensor).table())
