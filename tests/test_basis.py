import numpy as np
import pytest

from markedbinomial import (
    Configuration,
    ModelParams,
    OrthogonalBasis,
    build_basis,
    convert_coeffs_r_to_z,
    convert_order1_z_to_r,
    delta_r,
    delta_r_table,
    delta_z,
    delta_z_table,
)
from markedbinomial.chaos import multiple_integral, random_kernel
from markedbinomial.space import space


def test_delta_z_values(cti):
    jump_first = Configuration((1, 0, 0), cti)
    assert delta_z(cti, jump_first, (1, 1.0)) == pytest.approx(0.75)
    assert delta_z(cti, jump_first, (1, -1.0)) == pytest.approx(-0.25)


def test_delta_z_centered(cti):
    sp = space(cti)
    for t in (1, 2, 3):
        for k in cti.marks:
            assert abs(sp.expectation(delta_z_table(cti, t, k))) <= 1e-15


def test_gram_schmidt_cti_values(cti):
    basis = build_basis(cti)
    assert basis.matrix_m[1, 0] == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert basis.kappa[0] == pytest.approx(0.1875, abs=1e-15)
    assert basis.kappa[1] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_matrix_structure(inst2):
    basis = build_basis(inst2)
    m = inst2.n_marks
    assert np.allclose(np.triu(basis.matrix_m, 1), 0.0)
    assert np.allclose(np.diag(basis.matrix_m), 1.0)
    assert np.max(np.abs(basis.matrix_m @ basis.matrix_m_inv - np.eye(m))) <= 1e-12
    assert np.all(basis.kappa > 0)


def test_degenerate_mark_rejected():
    params = ModelParams(2, (1.0, -1.0), 0.5, (1.0 - 1e-15, 1e-15))
    with pytest.raises(ValueError, match="degenerate mark"):
        build_basis(params)


def test_first_mark_untouched(cti):
    basis = build_basis(cti)
    for t in (1, 2, 3):
        assert np.array_equal(delta_r_table(basis, t, 1.0), delta_z_table(cti, t, 1.0))


def test_second_mark_combination(cti):
    basis = build_basis(cti)
    for t in (1, 2, 3):
        expected = delta_z_table(cti, t, -1.0) + delta_z_table(cti, t, 1.0) / 3.0
        assert np.max(np.abs(delta_r_table(basis, t, -1.0) - expected)) <= 1e-15


def test_orthogonality_by_enumeration(cti):
    basis = build_basis(cti)
    sp = space(cti)
    r1 = delta_r_table(basis, 1, 1.0)
    r2 = delta_r_table(basis, 1, -1.0)
    assert abs(sp.expectation(r1 * r2)) <= 1e-15


def test_dz_vector_equals_m_dr_vector(inst2):
    basis = build_basis(inst2)
    sp = space(inst2)
    for t in (1, 3, 5):
        z = np.stack([delta_z_table(inst2, t, k) for k in inst2.marks])
        r = np.stack([delta_r_table(basis, t, k) for k in inst2.marks])
        assert np.max(np.abs(z - basis.matrix_m @ r)) <= 1e-14


def test_delta_r_scalar_matches_table(cti):
    basis = build_basis(cti)
    config = Configuration((2, 0, 1), cti)
    table = delta_r_table(basis, 1, -1.0)
    assert delta_r(basis, config, (1, -1.0)) == pytest.approx(table[config.rank])


def test_convert_r_to_z_order1_singleton():
    params = ModelParams(2, (1.0,), 0.4, (1.0,))
    basis = build_basis(params)
    f = {((1, 1.0),): 2.0, ((2, 1.0),): -1.0}
    assert convert_coeffs_r_to_z(basis, f) == f


def test_convert_r_to_z_order1_cti(cti):
    basis = build_basis(cti)
    g = convert_coeffs_r_to_z(basis, {((1, -1.0),): 1.0})
    assert g[((1, -1.0),)] == pytest.approx(1.0)
    assert g[((1, 1.0),)] == pytest.approx(1.0 / 3.0)


def test_convert_r_to_z_skips_a_zero_support_but_checks_it(cti):
    basis = build_basis(cti)
    g = convert_coeffs_r_to_z(basis, {((1, -1.0), (2, -1.0)): 0.0, ((2, 1.0),): 1.5})
    assert g == {((2, 1.0),): 1.5}
    with pytest.raises(ValueError, match="strictly increasing"):
        convert_coeffs_r_to_z(basis, {((2, 1.0), (1, 1.0)): 0.0})


def test_orthogonal_basis_refuses_an_inconsistent_change_of_basis(cti):
    basis = build_basis(cti)
    M, Minv, kappa = (np.array(a) for a in (basis.matrix_m, basis.matrix_m_inv, basis.kappa))
    upper = M.copy()
    upper[0, 1] = 0.5
    off = Minv.copy()
    off[1, 0] += 1e-9
    for args, message in [
        ((np.eye(3), Minv, kappa), "m x m"),
        ((M, np.eye(3), kappa), "m x m"),
        ((upper, Minv, kappa), "lower triangular"),
        ((2.0 * M, Minv, kappa), "unit diagonal"),
        ((M, off, kappa), "identity"),
        ((M, Minv, np.array([kappa[0], 0.0])), "positive"),
        ((M, Minv, -kappa), "positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            OrthogonalBasis(cti, *args)
    OrthogonalBasis(cti, M, Minv, kappa)  # the arrays themselves are consistent


def test_convert_roundtrip_order1(cti, rng):
    basis = build_basis(cti)
    g = {((t, k),): float(rng.normal()) for t in (1, 2, 3) for k in cti.marks}
    h = convert_order1_z_to_r(basis, g)
    back = convert_coeffs_r_to_z(basis, h)
    for support, value in g.items():
        assert back[support] == pytest.approx(value, abs=1e-14)


@pytest.mark.parametrize("order", [1, 2])
def test_convert_preserves_integral_pointwise(cti, rng, order):
    basis = build_basis(cti)
    f = random_kernel(cti, order, rng)
    g = convert_coeffs_r_to_z(basis, f)
    jr = multiple_integral(basis, f, order, family="R").table()
    jz = multiple_integral(basis, g, order, family="Z").table()
    assert np.max(np.abs(jr - jz)) <= 1e-12


@pytest.mark.parametrize("marks, Q", [
    ((1.5,), (1.0,)),
    ((1.0, -1.0), (0.5, 0.5)),
    ((-2.0, 1.0, 3.0), (0.3, 0.3, 0.4)),
    ((1.0, 2.0, 3.0, 4.0), (0.1, 0.2, 0.3, 0.4)),
])
def test_step_tables_equal_the_digit_gather(marks, Q, digit_table):
    """dR and dZ tables written through the step view equal the one-step
    column gathered through the reference digit table, bit for bit, at every step."""
    from markedbinomial.basis import r_step_values, z_step_values

    params = ModelParams(5, marks, 0.35, Q)
    basis = build_basis(params)
    for t in range(1, params.horizon + 1):
        digit = digit_table(params)[:, t - 1]
        for j, k in enumerate(marks):
            assert np.array_equal(delta_r_table(basis, t, k), r_step_values(params)[:, j][digit])
            assert np.array_equal(delta_z_table(params, t, k), z_step_values(params)[:, j][digit])
