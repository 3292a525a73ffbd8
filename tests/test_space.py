import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from markedbinomial import (
    Configuration,
    ModelParams,
    PathFunctional,
    compound_value,
    conditional_expectation,
    config_probability,
    enumerate_configurations,
    expectation,
    sample_path,
    space,
)
from markedbinomial.basis import build_basis, delta_r_table
from markedbinomial.space import (
    PROBABILITY_BLOCK,
    _distinct,
    digits_of_rank,
    export_table_csv,
    mc_expectation,
    probability_table,
    rank_of_digits,
    sample_digits,
    step_weights,
)


def test_enumeration_counts(cti, inst2):
    assert len(enumerate_configurations(cti)) == 27
    single = ModelParams(horizon=1, marks=(1.0,), jump_prob=0.5, mark_probs=(1.0,))
    assert len(enumerate_configurations(single)) == 2
    assert len(enumerate_configurations(inst2)) == 4**5 == 1024


def test_enumeration_in_rank_order(cti):
    configs = enumerate_configurations(cti)
    assert [c.rank for c in configs] == list(range(27))


@pytest.mark.parametrize("horizon, marks", [(9, (1.0, -1.0)), (5, (1.0, 2.0, 3.0))])
def test_digit_table_is_the_mixed_radix_expansion(horizon, marks):
    params = ModelParams(horizon, marks, 0.3, tuple([1.0 / len(marks)] * len(marks)))
    sp = space(params)
    ranks = np.arange(sp.n, dtype=np.int64)
    assert sp.digits.dtype == np.int8 and not sp.digits.flags.writeable
    np.testing.assert_array_equal(sp.digits, (ranks[:, None] // sp.powers) % sp.base)


@pytest.mark.parametrize("horizon, marks, probs", [
    (10, (1.0, -1.0), (0.5, 0.5)),
    (17, (2.5,), (1.0,)),
    (8, (3.0, -1.0, 0.5), (0.2, 0.5, 0.3)),
])
def test_probabilities_are_summed_block_by_block_without_changing_a_bit(horizon, marks, probs):
    """Row blocks of the log-weight sum give the bits of the one-pass sum
    over the whole (n, T) gather, also on the rows past the first block."""
    sp = space(ModelParams(horizon, marks, 0.37, probs))
    assert not sp.probabilities.flags.writeable
    whole = np.exp(sp.log_step_weights[sp.digits].sum(axis=1))
    assert sp.probabilities.tobytes() == whole.tobytes()
    assert sp.n > PROBABILITY_BLOCK


def _gathered_probabilities(params: ModelParams) -> np.ndarray:
    """Reference: the digit table, gathered into log step weights and summed
    in row blocks of PROBABILITY_BLOCK, as the sample space once did."""
    count, T, B = params.n_configurations, params.horizon, params.n_marks + 1
    digits = np.empty((count, T), dtype=np.int8)
    for t in range(T):
        digits.reshape(count // B ** (t + 1), B, B**t, T)[..., t] = np.arange(B, dtype=np.int8)[:, None]
    log_weights = np.log(step_weights(params))
    probabilities = np.empty(count)
    for s in range(0, count, PROBABILITY_BLOCK):
        np.exp(log_weights[digits[s:s + PROBABILITY_BLOCK]].sum(axis=1), out=probabilities[s:s + PROBABILITY_BLOCK])
    return probabilities


@pytest.mark.parametrize("n_marks, horizon", [(m, T) for m in range(1, 7) for T in range(1, 14)
                                              if (m + 1) ** T <= 3_000_000])
def test_probability_table_has_the_bits_of_the_digit_gather(n_marks, horizon):
    """Up to 3^13 configurations, several blocks of B^k rows wherever
    B^T > PROBABILITY_BLOCK; the sample space holds the same shared table."""
    q = np.arange(1.0, n_marks + 1.0)
    params = ModelParams(horizon, tuple(np.linspace(-1.0, 2.0, n_marks)), 0.37, tuple(q / q.sum()))
    try:
        table = probability_table(params)
        assert not table.flags.writeable
        assert table.tobytes() == _gathered_probabilities(params).tobytes()
        assert space(params).probabilities is table
    finally:  # the larger models would otherwise stay in the shared caches for the session
        space.cache_clear()
        probability_table.cache_clear()


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("MBP_ENUM_CAP", "100")
    params = ModelParams(horizon=8, marks=(1.0, -1.0), jump_prob=0.5, mark_probs=(0.5, 0.5))
    with pytest.raises(ValueError, match="enumeration too large: 6561"):
        space.__wrapped__(params)  # bypass the cache so the cap is re-read


def test_params_validation():
    with pytest.raises(ValueError, match="jump_prob"):
        ModelParams(3, (1.0,), 0.0, (1.0,))
    with pytest.raises(ValueError, match="jump_prob"):
        ModelParams(3, (1.0,), 1.0, (1.0,))
    with pytest.raises(ValueError, match="distinct"):
        ModelParams(3, (1.0, 1.0), 0.5, (0.5, 0.5))
    with pytest.raises(ValueError, match="sum to 1"):
        ModelParams(3, (1.0, -1.0), 0.5, (0.5, 0.4))
    with pytest.raises(ValueError, match="positive"):
        ModelParams(3, (1.0, -1.0), 0.5, (1.0, 0.0))
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be a positive integer"):
            ModelParams(horizon, (1.0, -1.0), 0.5, (0.5, 0.5))


@pytest.mark.parametrize("marks", [(math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf)])
def test_params_refuse_non_finite_marks(marks):
    with pytest.raises(ValueError, match="marks must be finite"):
        ModelParams(3, marks, 0.5, (0.5, 0.5))


@pytest.mark.parametrize("mark_probs", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)])
def test_params_refuse_nan_mark_probabilities(mark_probs):
    """NaN <= 0 and |NaN - 1| > tol are both False: only a check written as q > 0 refuses NaN."""
    with pytest.raises(ValueError, match="positive"):
        ModelParams(3, (1.0, -1.0), 0.5, mark_probs)


def test_params_from_file(tmp_path, cti):
    path = tmp_path / "model.cfg"
    path.write_text("# canonical instance\nT = 3\nmarks = 1,-1\nlambda = 0.5\nQ = 0.5,0.5\nseed = 7\n")
    params = ModelParams.from_file(path)
    assert params.horizon == cti.horizon
    assert params.marks == cti.marks
    assert params.jump_prob == cti.jump_prob
    assert params.rng_seed == 7


@pytest.mark.parametrize("body, message", [
    ("T = 2\nmarks = 1\nlambda = 0.5\nQ = 1\nT = 3\n", "'T' given twice"),
    ("T = 2\nmarks = 1\nlambda = 0.5\nQ = 1\nbogus = 7\n", "unknown config key 'bogus'"),
], ids=["duplicate", "unknown"])
def test_params_from_file_is_strict(tmp_path, body, message):
    path = tmp_path / "model.cfg"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        ModelParams.from_file(path)


@pytest.mark.parametrize("name", ["cti", "inst2"])
def test_step_view_matches_rank_map(name, request):
    """Entry [a, d, c] of the step-t view is the row that ranks_with_digit
    maps row (a, d', c) to for every d', with trailing axes carried along."""
    params = request.getfixturevalue(name)
    sp = space(params)
    table = np.arange(sp.n * 6, dtype=float).reshape(sp.n, 2, 3)
    for t in range(1, params.horizon + 1):
        view = sp.step_view(table, t)
        assert view.base is not None  # a view, not a copy
        for digit in range(sp.base):
            forced = table[sp.ranks_with_digit(t, digit)]
            spread = np.broadcast_to(view[:, digit : digit + 1], view.shape).reshape(table.shape)
            assert np.array_equal(spread, forced)
            assert np.array_equal(view[:, digit].reshape(-1, 2, 3), table[sp.digits[:, t - 1] == digit])
    for t in (0, params.horizon + 1):
        with pytest.raises(ValueError, match="out of range"):
            sp.step_view(table, t)


def test_step_view_writes_through_step_major_table(inst2):
    from markedbinomial import ProcessTable

    sp = space(inst2)
    u = ProcessTable.zeros(inst2)
    for t in range(1, inst2.horizon + 1):
        view = sp.step_view(u.values, t)
        assert np.shares_memory(view, u.values)
        view[:, t % sp.base, :, t - 1, t % inst2.n_marks] = float(t)
    for t in range(1, inst2.horizon + 1):
        expected = np.where(sp.digits[:, t - 1] == t % sp.base, float(t), 0.0)
        assert np.array_equal(u.values[:, t - 1, t % inst2.n_marks], expected)
    assert np.count_nonzero(u.values) == sum(
        np.count_nonzero(sp.digits[:, t - 1] == t % sp.base) for t in range(1, inst2.horizon + 1))


def test_step_view_refuses_a_copy(cti):
    """A table that can only be reshaped by a copy would lose every write."""
    sp = space(cti)
    table = np.zeros((sp.n, 2))
    with pytest.raises(ValueError, match="without a copy"):
        sp.step_view(table.tolist(), 2)


def test_config_probability(cti):
    all_zero = Configuration((0, 0, 0), cti)
    assert config_probability(cti, all_zero) == pytest.approx(0.125, abs=1e-15)
    jump_first = Configuration((1, 0, 0), cti)  # mark 1 at t=1 only
    assert config_probability(cti, jump_first) == pytest.approx(0.0625, abs=1e-15)
    total = sum(config_probability(cti, c) for c in enumerate_configurations(cti))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model", ["cti", "inst2"])
def test_config_probability_builds_no_sample_space(model, request):
    """One configuration's probability has the bits of the sample space's
    own log-weight gather, and the call leaves no space in the cache."""
    params = request.getfixturevalue(model)
    sp = space(params)
    expected = [float(np.exp(sp.log_step_weights[row].sum())) for row in sp.digits.astype(np.intp)]
    space.cache_clear()
    got = [config_probability(params, Configuration(row, params)) for row in sp.digits.tolist()]
    assert space.cache_info().currsize == 0
    assert np.array_equal(np.array(got).view(np.int64), np.array(expected).view(np.int64))
    np.testing.assert_array_equal(got, sp.probabilities)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=9))
def test_rank_roundtrip(digits):
    rank = rank_of_digits(digits, 3)
    assert digits_of_rank(rank, len(digits), 3) == tuple(digits)
    assert 0 <= rank < 4 ** len(digits)


def test_sample_path_deterministic(cti):
    a = sample_path(cti, stream=5)
    b = sample_path(cti, stream=5)
    assert a.digits == b.digits
    c = sample_path(cti, stream=6)
    # different stream almost surely differs over many draws
    draws_a = sample_digits(cti, 50, stream=5)
    draws_c = sample_digits(cti, 50, stream=6)
    assert not np.array_equal(draws_a, draws_c)


def test_sampled_mean_matches_intensity(cti):
    n = 10**5
    digs = sample_digits(cti, n, stream=0)
    counts = (digs > 0).sum(axis=1)
    se = counts.std(ddof=1) / np.sqrt(n)
    assert abs(counts.mean() - 1.5) <= 4 * se


def test_compound_value(cti):
    zero = Configuration((0, 0, 0), cti)
    assert compound_value(cti, zero, 3) == (0, 0.0, 0.0)
    all_jumps = Configuration((1, 2, 1), cti)  # marks (1, -1, 1)
    n, y, _ = compound_value(cti, all_jumps, 3)
    assert n == 3 and y == pytest.approx(1.0)
    with pytest.raises(ValueError, match="out of range"):
        compound_value(cti, zero, 4)


def test_compensated_compound_is_centered(cti):
    sp = space(cti)
    ybar = np.array([compound_value(cti, c, 3)[2] for c in enumerate_configurations(cti)])
    assert abs(np.dot(sp.probabilities, ybar)) <= 1e-12


def test_expectation(cti):
    assert expectation(PathFunctional.constant(cti, 2.5)) == pytest.approx(2.5)
    sp = space(cti)
    n3 = PathFunctional(cti, values=sp.jump_count())
    assert expectation(n3) == pytest.approx(1.5, abs=1e-12)
    indicator = np.zeros(27)
    indicator[0] = 1.0
    assert expectation(PathFunctional(cti, values=indicator)) == pytest.approx(0.125, abs=1e-14)


def test_expectation_requires_exact_mode(cti):
    F = PathFunctional.from_callable(cti, lambda digits: float((digits > 0).sum()))
    with pytest.raises(ValueError, match="exact mode required"):
        expectation(F)


def test_conditional_expectation_endpoints(cti, rng):
    F = PathFunctional(cti, values=rng.normal(size=27))
    at0 = conditional_expectation(F, 0)
    assert np.allclose(at0.table(), expectation(F))
    atT = conditional_expectation(F, 3)
    assert np.array_equal(atT.table(), F.table())


def test_conditional_expectation_of_future_increment(cti):
    basis = build_basis(cti)
    dr = PathFunctional(cti, values=delta_r_table(basis, 3, 1.0))
    cond = conditional_expectation(dr, 2)
    assert np.max(np.abs(cond.table())) <= 1e-12


@pytest.mark.parametrize("functional", ["uniform", "jump_count"])
def test_conditional_expectation_is_accurate_on_every_atom_at_t11(functional, rng):
    """E[F | F_t] at T=11 on all 3^t atoms, t = 0..11, within 2e-15 of the
    exactly rounded atom sums (math.fsum) of the same products p F.  A sum
    that adds the 3^(11-t) terms of an atom one by one is off by up to 1e-12."""
    params = ModelParams(11, (-1.0, 1.0), 0.4, (0.5, 0.5))
    sp = space(params)
    values = rng.random(sp.n) if functional == "uniform" else sp.jump_count()
    for t in range(12):
        atoms = 3**t
        terms = (values * sp.probabilities).reshape(-1, atoms).T.tolist()
        weights = sp.probabilities.reshape(-1, atoms).T.tolist()
        want = np.array([math.fsum(a) / math.fsum(w) for a, w in zip(terms, weights)])
        got = sp.conditional_expectation(values, t)
        assert got.shape == (sp.n,)
        np.testing.assert_array_equal(got, np.tile(got[:atoms], sp.n // atoms))
        error = np.max(np.abs(got[:atoms] - want) / np.maximum(1.0, np.abs(want)))
        assert error <= 2e-15, f"t={t}: {error:.2e}"


def test_atom_masses_are_kept_per_space_and_die_with_it(cti, rng):
    """The per-step atom masses live on the instance: a second call reuses
    them bit for bit, and they hold no space alive past its last reference."""
    sp = space.__wrapped__(cti)  # a private instance, outside the shared cache
    values = rng.normal(size=sp.n)
    first = [sp.conditional_expectation(values, t) for t in range(4)]
    for t in range(4):
        np.testing.assert_array_equal(sp.conditional_expectation(values, t), first[t])
    assert sorted(sp._atom_mass) == [0, 1, 2, 3]
    assert not any(mass.flags.writeable for mass in sp._atom_mass.values())
    ref = weakref.ref(sp)
    del sp
    gc.collect()
    assert ref() is None


def test_tower_property_random(cti, rng):
    for _ in range(10):
        F = PathFunctional(cti, values=rng.normal(size=27))
        for t in range(4):
            assert abs(expectation(conditional_expectation(F, t)) - expectation(F)) <= 1e-12


def test_mc_expectation_callable(cti):
    F = PathFunctional.from_callable(cti, lambda digits: float((digits > 0).sum()))
    mean, se = mc_expectation(F, 20000, stream=1)
    assert abs(mean - 1.5) <= 4 * se


def test_mc_expectation_batched_error_propagates(cti):
    """Only a batched result of the wrong shape falls back to per-row calls;
    an error raised on the batch is the caller's to see."""
    F = PathFunctional.from_callable(cti, lambda digits: 1.0 / (digits.ndim - 2) + digits.sum(axis=-1))
    with pytest.raises(ZeroDivisionError):
        mc_expectation(F, 100, stream=1)


def test_export_table_csv(tmp_path, cti):
    sp = space(cti)
    F = PathFunctional(cti, values=sp.jump_count())
    path = tmp_path / "table.csv"
    export_table_csv(F, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,probability,value"
    assert len(lines) == 28
    rank, prob, value = lines[1].split(",")
    assert rank == "0" and float(prob) == pytest.approx(0.125) and float(value) == 0.0


@pytest.mark.parametrize("values", [
    np.array([]),
    np.array([3, 1, 3, 2, 1]),
    np.array([0.5, -0.0, 0.0, 0.5, -2.0]),
    np.array([7.0]),
])
def test_distinct_equals_np_unique(values):
    got = _distinct(values)
    assert got.dtype == values.dtype
    assert np.array_equal(got, np.unique(values))
