import tracemalloc
from math import factorial

import numpy as np
import pytest

from markedbinomial import (
    ChaosCoefficients,
    ModelParams,
    PathFunctional,
    build_basis,
    doleans_exponential,
    kernel_inner,
    multiple_integral,
    product_kernel,
    reconstruct,
    stroock_decompose,
)
from markedbinomial.basis import delta_r_table
from markedbinomial.chaos import chaos_order_tensor, covariance_from_coeffs, doleans_series, random_kernel
from markedbinomial.space import space


def test_order1_integral_is_increment(cti):
    basis = build_basis(cti)
    J = multiple_integral(basis, {((1, 1.0),): 1.0}, 1)
    assert np.array_equal(J.table(), delta_r_table(basis, 1, 1.0))


def test_product_kernel_reproduces_increment_product(cti):
    basis = build_basis(cti)
    support = ((1, 1.0), (2, 1.0))
    J = multiple_integral(basis, product_kernel(cti, support), 2)
    expected = delta_r_table(basis, 1, 1.0) * delta_r_table(basis, 2, 1.0)
    assert np.max(np.abs(J.table() - expected)) <= 1e-15


def test_order1_second_moment(cti):
    basis = build_basis(cti)
    sp = space(cti)
    J = multiple_integral(basis, {((1, 1.0),): 1.0}, 1)
    assert sp.expectation(J.table() ** 2) == pytest.approx(0.1875, abs=1e-14)


def test_order_above_horizon_warns(cti):
    basis = build_basis(cti)
    kernel = {((1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)): 1.0}
    with pytest.warns(UserWarning, match="exceeds horizon"):
        J = multiple_integral(basis, kernel, 4)
    assert np.all(J.table() == 0.0)


def test_unordered_support_rejected(cti):
    basis = build_basis(cti)
    with pytest.raises(ValueError, match="strictly increase"):
        multiple_integral(basis, {((2, 1.0), (1, 1.0)): 1.0}, 2)
    with pytest.raises(ValueError, match="1..3"):
        multiple_integral(basis, {((4, 1.0),): 1.0}, 1)
    with pytest.raises(ValueError, match="wrong size"):
        multiple_integral(basis, {((1, 1.0),): 1.0}, 2)


def test_stroock_constant(cti):
    coeffs = stroock_decompose(PathFunctional.constant(cti, 4.0))
    assert coeffs.f0 == pytest.approx(4.0)
    assert all(abs(v) <= 1e-15 for kern in coeffs.orders.values() for v in kern.values())


def test_stroock_product_kernel_value(cti):
    basis = build_basis(cti)
    F = PathFunctional(
        cti, values=delta_r_table(basis, 1, 1.0) * delta_r_table(basis, 2, 1.0)
    )
    coeffs = stroock_decompose(F)
    support = ((1, 1.0), (2, 1.0))
    assert coeffs.kernel(2)[support] == pytest.approx(0.5, abs=1e-14)
    others = {s: v for s, v in coeffs.kernel(2).items() if s != support}
    assert all(abs(v) <= 1e-14 for v in others.values())
    assert abs(coeffs.f0) <= 1e-15


def test_stroock_jump_count_roundtrip(cti):
    basis = build_basis(cti)
    sp = space(cti)
    F = PathFunctional(cti, values=sp.jump_count())
    coeffs = stroock_decompose(F)
    assert coeffs.f0 == pytest.approx(1.5, abs=1e-12)
    back = reconstruct(basis, coeffs)
    assert np.max(np.abs(back.table() - F.table())) <= 1e-12


@pytest.mark.parametrize("instance", ["cti", "inst2"])
def test_roundtrip_random(request, instance, rng):
    params = request.getfixturevalue(instance)
    basis = build_basis(params)
    for _ in range(5):
        F = PathFunctional(params, values=rng.normal(size=params.n_configurations))
        back = reconstruct(basis, stroock_decompose(F))
        assert np.max(np.abs(back.table() - F.table())) <= 1e-9


@pytest.mark.parametrize("density", [1.0, 0.4])
def test_random_kernel_draws_a_generator_once_per_support_in_order(inst2, density):
    """One random() per support below density 1, then one normal() per kept
    support, in time-then-mark order."""
    kernel = random_kernel(inst2, 2, np.random.default_rng(5), density=density)
    rng = np.random.default_rng(5)
    want = {}
    for t1 in range(1, 6):
        for t2 in range(t1 + 1, 6):
            for k1 in inst2.marks:
                for k2 in inst2.marks:
                    if density < 1.0 and rng.random() > density:
                        continue
                    want[((t1, k1), (t2, k2))] = rng.normal()
    assert list(kernel.items()) == list(want.items())


def test_uniqueness_on_coefficients(cti, rng):
    basis = build_basis(cti)
    kernel = random_kernel(cti, 2, rng, density=0.4)
    coeffs = ChaosCoefficients(cti, 0.7, {2: kernel})
    again = stroock_decompose(reconstruct(basis, coeffs))
    assert again.f0 == pytest.approx(0.7, abs=1e-13)
    for support, value in kernel.items():
        assert again.kernel(2).get(support, 0.0) == pytest.approx(value, abs=1e-12)
    assert all(abs(v) <= 1e-12 for v in again.kernel(1).values())


def test_isometry_random_kernels(inst2, rng):
    basis = build_basis(inst2)
    sp = space(inst2)
    kernels = {n: random_kernel(inst2, n, rng) for n in (1, 2, 3)}
    others = {n: random_kernel(inst2, n, rng) for n in (1, 2, 3)}
    for n, f in kernels.items():
        Jf = multiple_integral(basis, f, n).table()
        for m, g in others.items():
            Jg = multiple_integral(basis, g, m).table()
            lhs = sp.expectation(Jf * Jg)
            rhs = factorial(n) * kernel_inner(basis, f, g, n) if n == m else 0.0
            assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("mark_type", [float, int, np.float64])
def test_kernel_inner_matches_the_per_point_mark_index_reference(inst2, rng, mark_type):
    """Marks written as ints (1 for 1.0) or numpy floats pair with the same
    kappa as the model's float marks."""
    basis = build_basis(inst2)
    f, g = random_kernel(inst2, 2, rng), random_kernel(inst2, 2, rng)
    acc = 0.0
    for support, fv in f.items():
        w = 1.0
        for _, k in support:
            w *= basis.kappa[inst2.mark_index(k)]
        acc += fv * g[support] * w

    def recast(kernel):
        return {tuple((t, mark_type(k)) for t, k in s): v for s, v in kernel.items()}

    assert kernel_inner(basis, recast(f), g, 2) == factorial(2) * acc
    assert kernel_inner(basis, recast(f), recast(g), 2) == factorial(2) * acc


def test_kernel_inner_skips_a_support_of_one_kernel_only(cti):
    basis = build_basis(cti)
    f = {((1, 1.0),): 2.0, ((2, 1.0),): 5.0}
    g = {((1, 1.0),): 3.0, ((3, -1.0),): 7.0}
    assert kernel_inner(basis, f, g, 1) == kernel_inner(basis, g, f, 1) == 2.0 * 3.0 * basis.kappa[0]


def test_order0_integral_is_the_constant_of_its_kernel(cti):
    basis = build_basis(cti)
    np.testing.assert_array_equal(multiple_integral(basis, {(): 2.5}, 0).table(), np.full(27, 2.5))
    np.testing.assert_array_equal(multiple_integral(basis, {}, 0).table(), np.zeros(27))


def test_kernel_outside_the_orders_is_empty(cti, rng):
    coeffs = stroock_decompose(PathFunctional(cti, values=rng.normal(size=27)))
    assert coeffs.kernel(1) and coeffs.kernel(3)
    assert coeffs.kernel(0) == {} and coeffs.kernel(4) == {}


def test_kernel_inner_rejects_a_mark_outside_the_model(inst2):
    basis = build_basis(inst2)
    kernel = {((1, 1.0), (2, 5.0)): 1.0}
    with pytest.raises(ValueError, match="not a mark"):
        kernel_inner(basis, kernel, kernel, 2)


def test_chaos_order_tensor_is_cached_and_read_only(inst2):
    orders = chaos_order_tensor(inst2)
    assert orders is chaos_order_tensor(inst2) and not orders.flags.writeable
    np.testing.assert_array_equal(orders.reshape(-1, order="F"), np.count_nonzero(space(inst2).digits, axis=1))
    # laid out like the transform's tensors, with the dtype of the np.indices count
    assert orders.flags.f_contiguous
    assert orders.dtype == (np.indices((4,) * 5) > 0).sum(axis=0).dtype


@pytest.mark.parametrize("horizon", range(1, 8))
@pytest.mark.parametrize("n_marks", range(1, 5))
def test_chaos_order_tensor_counts_the_nonzero_digits(n_marks, horizon):
    """The step recursion gives the digit-count reference entry for entry, in
    the transform's F order, as a read-only int64 table."""
    params = ModelParams(horizon, tuple(range(1, n_marks + 1)), 0.3, (1.0 / n_marks,) * n_marks, rng_seed=919)
    orders = chaos_order_tensor(params)
    want = (space(params).digits > 0).sum(axis=1)
    assert orders.shape == (n_marks + 1,) * horizon and orders.dtype == np.int64 and not orders.flags.writeable
    assert np.array_equal(orders.reshape(-1, order="F"), want)


def test_conditional_truncation(cti, rng):
    basis = build_basis(cti)
    sp = space(cti)
    kernel = random_kernel(cti, 2, rng)
    J = multiple_integral(basis, kernel, 2)
    for t in range(4):
        truncated = {s: v for s, v in kernel.items() if all(tt <= t for tt, _ in s)}
        lhs = sp.conditional_expectation(J.table(), t)
        rhs = multiple_integral(basis, truncated, 2).table()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_covariance_formula(cti, rng):
    basis = build_basis(cti)
    sp = space(cti)
    F = PathFunctional(cti, values=rng.normal(size=27))
    G = PathFunctional(cti, values=rng.normal(size=27))
    lhs = sp.expectation(F.table() * G.table()) - sp.expectation(F.table()) * sp.expectation(G.table())
    rhs = covariance_from_coeffs(basis, stroock_decompose(F), stroock_decompose(G))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_coefficients_validation(cti):
    with pytest.raises(ValueError, match="strictly increase"):
        ChaosCoefficients(cti, 0.0, {2: {((2, 1.0), (1, 1.0)): 1.0}})
    with pytest.raises(ValueError, match="wrong size"):
        ChaosCoefficients(cti, 0.0, {2: {((1, 1.0),): 1.0}})
    with pytest.raises(ValueError, match="order"):
        ChaosCoefficients(cti, 0.0, {5: {((1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0)): 1.0}})
    with pytest.raises(ValueError, match="1..3"):
        ChaosCoefficients(cti, 0.0, {1: {((0, 1.0),): 1.0}})
    with pytest.raises(ValueError, match="1..3"):
        ChaosCoefficients(cti, 0.0, {1: {((4, 1.0),): 1.0}})
    with pytest.raises(ValueError, match="mark"):
        ChaosCoefficients(cti, 0.0, {1: {((1, 2.0),): 1.0}})


def test_coefficients_csv_export(tmp_path, cti):
    sp = space(cti)
    coeffs = stroock_decompose(PathFunctional(cti, values=sp.jump_count()))
    path = tmp_path / "coeffs.csv"
    coeffs.export_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "order,support,value"
    assert lines[1].startswith("0,,1.5")


def test_doleans_zero_kernel(cti):
    basis = build_basis(cti)
    xi = doleans_exponential(basis, {})
    assert np.allclose(xi.table(), 1.0)


def test_doleans_single_point(cti):
    basis = build_basis(cti)
    xi = doleans_exponential(basis, {((1, 1.0),): 1.0})
    expected = 1.0 + delta_r_table(basis, 1, 1.0)
    assert np.max(np.abs(xi.table() - expected)) <= 1e-14


def test_doleans_mean_one_and_series(cti, rng):
    basis = build_basis(cti)
    sp = space(cti)
    h = {s: 0.5 * v for s, v in random_kernel(cti, 1, rng).items()}
    xi = doleans_exponential(basis, h)
    assert sp.expectation(xi.table()) == pytest.approx(1.0, abs=1e-12)
    series = doleans_series(basis, h)
    assert np.max(np.abs(series.table() - xi.table())) <= 1e-12


def test_multiple_integral_rejects_unknown_family(cti):
    basis = build_basis(cti)
    with pytest.raises(ValueError, match="family"):
        multiple_integral(basis, {((1, 1.0),): 1.0}, 1, family="Q")


def test_rows_sort_by_order_then_time_mark_pairs(rng):
    """Rows come by order and then by the (time, mark value) pairs of the
    support, compared as Python tuples, also when the marks are given
    unsorted and some are negative."""
    params = ModelParams(4, (2.0, -0.5, 1.0, -3.0), 0.35, (0.1, 0.2, 0.3, 0.4))
    coeffs = stroock_decompose(PathFunctional(params, values=rng.normal(size=params.n_configurations)))
    rows = coeffs.rows()[1:]
    marks = {f"{k:g}": k for k in params.marks}

    def key(row):
        n, label, _ = row
        points = [point.split(":") for point in label.split(";")]
        return n, tuple((int(t), marks[k]) for t, k in points)

    assert len(rows) == params.n_configurations - 1
    assert rows == sorted(rows, key=key)


def test_order_blocks_allocate_no_n_by_t_int64_table():
    """At T=11 each order's sort key is built from its kept ranks one step
    at a time: reading out every order stays below one (n, T) int64 table."""
    params = ModelParams(11, (1.0, -1.0), 0.4, (0.5, 0.5))
    sp = space(params)
    coeffs = stroock_decompose(PathFunctional(params, values=np.random.default_rng(3).normal(size=sp.n)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sizes = [coeffs._block(n)[0].size for n in range(1, params.horizon + 1)]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert sum(sizes) == sp.n - 1
    assert peak < sp.n * params.horizon * np.dtype(np.int64).itemsize


def test_doleans_exponential_and_parseval_weight_peak_below_two_and_a_half_tables():
    """At T=11 with 2 marks the product tables are built by step-order outer
    products: no (n, T) float gather is formed, and each call peaks below 2.5
    tables of n floats in traced memory, its result included."""
    params = ModelParams(11, (1.0, -1.0), 0.4, (0.5, 0.5))
    basis, n = build_basis(params), params.n_configurations
    h = random_kernel(params, 1, np.random.default_rng(5))
    coeffs = stroock_decompose(PathFunctional(params, values=np.random.default_rng(6).normal(size=n)))
    for call in (lambda: doleans_exponential(basis, h), lambda: covariance_from_coeffs(basis, coeffs, coeffs)):
        call()  # the shared caches are filled before tracing starts
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * np.dtype(float).itemsize


def _reference_csv(coeffs) -> str:
    """Every value formatted on its own, as a row-per-row f-string."""
    return "order,support,value\n" + "".join(f"{n},{label},{v:.17g}\n" for n, label, v in coeffs.rows())


@pytest.mark.parametrize("f0, fill", [
    (-0.0, lambda n: np.where(np.arange(n) % 2, 0.5, -0.5)),
    (0.0, lambda n: np.full(n, 0.25)),
    (5e-324, lambda n: np.linspace(-3.0, 7.0, n)),
    (float("nan"), lambda n: np.ones(n)),
    (float("inf"), lambda n: np.ones(n)),
    (-float("inf"), lambda n: np.ones(n)),
    (1.7976931348623157e308, lambda n: np.full(n, -1.7976931348623157e308)),
])
def test_csv_text_matches_the_per_element_rendering(f0, fill):
    """The CSV formats each distinct value once and still writes the bytes
    of formatting every value on its own: signed zeros, non-finite
    constants, the smallest and largest doubles, all-equal and
    all-distinct values."""
    params = ModelParams(4, (2.0, -0.5, 1.0), 0.3, (0.2, 0.5, 0.3))
    flat = fill(params.n_configurations)
    flat[0] = f0
    coeffs = ChaosCoefficients.from_tensor(params, flat.reshape((4,) * 4, order="F"))
    assert coeffs.csv_text() == _reference_csv(coeffs)



def _sorted_rows(params, tensor):
    """Sort-everything reference read-out: (order, support, kernel value)
    of every retained non-constant coefficient, supports built point by
    point from the digits and every row sorted by (order, support)."""
    sp = space(params)
    flat = tensor.reshape(-1, order="F")
    tol = 1e-13 * max(1e-300, float(np.max(np.abs(flat))))
    rows = []
    for rank in range(1, sp.n):
        if abs(flat[rank]) > tol:
            support = tuple((t + 1, params.marks[d - 1]) for t, d in enumerate(sp.digits[rank].tolist()) if d)
            rows.append((len(support), support, float(flat[rank]) / factorial(len(support))))
    return sorted(rows, key=lambda row: row[:2])


def _label(support) -> str:
    return ";".join(f"{t}:{k:g}" for t, k in support)


_READOUT_LAWS = [
    ((-2.5, 0.5, 1e-7), (0.2, 0.5, 0.3), 0.35),
    ((1e-7, -2.5, 3.0, 0.5), (0.1, 0.2, 0.3, 0.4), 0.45),
]


def _dense_tensor(params, seed):
    """Random coefficients, some of them dust below the read-out threshold."""
    flat = np.random.default_rng(seed).normal(size=params.n_configurations)
    flat[3::7] *= 1e-15
    return flat.reshape((params.n_marks + 1,) * params.horizon, order="F")


@pytest.mark.parametrize("law", range(len(_READOUT_LAWS)))
@pytest.mark.parametrize("horizon", [1, 2, 3, 5])
def test_kernel_of_fresh_coefficients_matches_a_sort_everything_reference(law, horizon):
    """Each order read first on fresh coefficients (so no other order's
    block exists yet) gives the reference's items in the reference's order."""
    marks, Q, lam = _READOUT_LAWS[law]
    params = ModelParams(horizon, marks, lam, Q)
    tensor = _dense_tensor(params, 10 * law + horizon)
    reference = _sorted_rows(params, tensor)
    for n in range(1, horizon + 1):
        kernel = ChaosCoefficients.from_tensor(params, tensor).kernel(n)
        assert list(kernel.items()) == [(support, v) for order, support, v in reference if order == n]
    orders = ChaosCoefficients.from_tensor(params, tensor).orders
    assert list(orders) == sorted({order for order, _, _ in reference})


@pytest.mark.parametrize("law", range(len(_READOUT_LAWS)))
@pytest.mark.parametrize("horizon", [1, 2, 3, 5])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_and_decompose_match_the_per_element_rendering(law, horizon, fmt, monkeypatch, capsys):
    """`rows()` and `mbp decompose` on a dense random functional equal the
    reference rows with each label joined and each value formatted on its
    own, for negative, non-integer and tiny marks; at T=1 the low label
    table holds only the empty label."""
    from markedbinomial import cli
    from markedbinomial.cli import dumps17, main

    marks, Q, lam = _READOUT_LAWS[law]
    params = ModelParams(horizon, marks, lam, Q)
    F = PathFunctional(params, values=np.random.default_rng(10 * law + horizon).normal(size=params.n_configurations))
    coeffs = stroock_decompose(F)
    rows = [(0, "", coeffs.f0)] + [(n, _label(support), v) for n, support, v in _sorted_rows(params, coeffs.tensor)]
    assert coeffs.rows() == rows
    monkeypatch.setattr(cli, "_named_functional", lambda p, name: F)
    argv = ["decompose", "--T", str(horizon), "--marks=" + ",".join(map(repr, marks)), "--lambda", repr(lam),
            "--Q", ",".join(map(repr, Q)), "--functional", "dense", "--format", fmt, "--no-timestamp"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        assert out == "order,support,value\n" + "".join(f"{n},{label},{v:.17g}\n" for n, label, v in rows)
    else:
        payload = {"functional": "dense", "mean": coeffs.f0,
                   "coefficients": [{"order": n, "support": label, "value": v} for n, label, v in rows[1:]],
                   "seed": 0}
        assert out == dumps17(payload) + "\n"


def _tensordot_per_step(params, table, matrix):
    """Axis-by-axis reference transform: contract step axis t of the
    (base,)*T tensor with ``matrix`` by tensordot and move the new axis back."""
    G = np.asarray(table, dtype=float).reshape((space(params).base,) * params.horizon, order="F")
    for ax in range(params.horizon):
        G = np.moveaxis(np.tensordot(matrix, G, axes=([1], [ax])), 0, ax)
    return G


_TRANSFORM_LAWS = {
    1: ((1.5,), (1.0,), 0.3),
    2: ((1.0, -1.0), (0.5, 0.5), 0.4),
    3: ((-2.0, 1.0, 3.0), (0.3, 0.3, 0.4), 0.45),
    4: ((1.0, 2.0, 3.0, 4.0), (0.1, 0.2, 0.3, 0.4), 0.5),
}


@pytest.mark.parametrize("n_marks, horizon",
                         [(m, T) for m in (1, 2, 3, 4) for T in range(1, 8)] + [(2, 11)])
def test_per_step_transform_is_bitwise_the_tensordot_loop(n_marks, horizon):
    """The Kronecker-shuffle transform contracts step 1 first, as the
    axis-by-axis tensordot loop does, and gives the same bits: analysis,
    synthesis and multiple integrals against both increment families."""
    from markedbinomial.basis import r_step_values, z_step_values
    from markedbinomial.chaos import _kernel_tensor, _transform_matrices, coefficient_tensor, synthesize

    marks, Q, lam = _TRANSFORM_LAWS[n_marks]
    params = ModelParams(horizon, marks, lam, Q)
    rng = np.random.default_rng(100 * n_marks + horizon)
    W, V = _transform_matrices(params)
    F = PathFunctional(params, values=rng.normal(size=params.n_configurations))
    C = coefficient_tensor(F)
    assert np.array_equal(C, _tensordot_per_step(params, F.table(), W))
    assert np.array_equal(synthesize(params, C).table(),
                          _tensordot_per_step(params, C, V).reshape(-1, order="F"))
    basis = build_basis(params)
    for n in sorted({1, min(3, horizon)}):
        kernel = random_kernel(params, n, rng)
        for family, step in (("R", r_step_values(params)), ("Z", z_step_values(params))):
            expected = _tensordot_per_step(params, _kernel_tensor(params, kernel, n),
                                           np.hstack([np.ones((params.n_marks + 1, 1)), step]))
            assert np.array_equal(multiple_integral(basis, kernel, n, family).table(),
                                  expected.reshape(-1, order="F"))
