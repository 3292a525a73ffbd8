import gc
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction

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
    _distinct,
    compound_sum,
    digit_rows,
    digits_of_rank,
    jump_count,
    mc_expectation,
    probability_table,
    rank_of_digits,
    rng_stream,
    sample_digits,
    step_products,
    step_sums,
    step_weights,
)

space_mod = importlib.import_module("markedbinomial.space")  # the package root's `space` is the function


def test_enumeration_counts(cti, inst2):
    assert len(enumerate_configurations(cti)) == 27
    single = ModelParams(horizon=1, marks=(1.0,), jump_prob=0.5, mark_probs=(1.0,))
    assert len(enumerate_configurations(single)) == 2
    assert len(enumerate_configurations(inst2)) == 4**5 == 1024


def test_enumeration_in_rank_order(cti):
    configs = enumerate_configurations(cti)
    assert [c.rank for c in configs] == list(range(27))


@pytest.mark.parametrize("horizon, marks", [(9, (1.0, -1.0)), (5, (1.0, 2.0, 3.0))])
def test_digit_table_is_the_mixed_radix_expansion(horizon, marks, digit_table):
    """The whole space's digit rows are the reference table, as a fresh int8
    table; the sample space keeps no digit table of its own."""
    params = ModelParams(horizon, marks, 0.3, tuple([1.0 / len(marks)] * len(marks)))
    rows = digit_rows(params)
    assert rows.dtype == np.int8 and rows.flags.writeable
    np.testing.assert_array_equal(rows, digit_table(params))
    assert not hasattr(space(params), "digits")


def _gathered_probabilities(params: ModelParams) -> np.ndarray:
    """Reference: the digit table gathered into step weights, the columns
    multiplied in step order, acc = w[digits[:, t]] * acc."""
    count, T, B = params.n_configurations, params.horizon, params.n_marks + 1
    digits = np.empty((count, T), dtype=np.int8)
    for t in range(T):
        digits.reshape(count // B ** (t + 1), B, B**t, T)[..., t] = np.arange(B, dtype=np.int8)[:, None]
    weights, acc = step_weights(params), np.ones(count)
    for t in range(T):
        acc = weights[digits[:, t]] * acc
    return acc


@pytest.mark.parametrize("n_marks, horizon", [(m, T) for m in range(1, 7) for T in range(1, 14)
                                              if (m + 1) ** T <= 3_000_000])
def test_probability_table_has_the_bits_of_the_digit_gather(n_marks, horizon):
    """Up to 3^13 configurations; the sample space holds the same shared table."""
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


@pytest.mark.parametrize("jump_prob", [0.3, 0.9])
@pytest.mark.parametrize("n_marks", range(1, 5))
def test_probability_table_is_within_t_minus_1_roundings_of_the_exact_products(n_marks, jump_prob):
    """Each probability is T - 1 rounded products of float step weights, so it
    lies within (T-1) 2^-53 relative of the exact product of those weights
    (Rump, Bünger & Jeannerod, BIT Numer. Math. 56, 2016); the exact
    products are Fractions, T <= 10 up to 3^10 configurations."""
    q = np.arange(1.0, n_marks + 1.0)
    for horizon in range(1, 11):
        params = ModelParams(horizon, tuple(np.linspace(-1.0, 2.0, n_marks)), jump_prob, tuple(q / q.sum()))
        if params.n_configurations > 3**10:
            break
        weights = np.array([Fraction(w) for w in step_weights(params).tolist()], dtype=object)
        exact = np.ones(1, dtype=object)
        for _ in range(horizon):
            exact = np.multiply.outer(weights, exact).ravel()
        worst = max(abs(Fraction(p) - e) / e for p, e in zip(probability_table(params).tolist(), exact))
        assert worst <= Fraction(horizon - 1, 2**53), (horizon, float(worst * 2**53))


@pytest.mark.parametrize("n_marks, horizon", [(1, 9), (2, 7), (4, 5)])
def test_step_products_multiply_the_digit_gather_column_by_column(n_marks, horizon):
    """Distinct signed rows per step: entry r is rows[t-1][digit t of r]
    multiplied in step order, acc = row[digits[:, t]] * acc, bit for bit."""
    base = n_marks + 1
    rows = np.random.default_rng(horizon).normal(size=(horizon, base))
    digits = (np.arange(base**horizon)[:, None] // base ** np.arange(horizon)) % base
    acc = np.ones(base**horizon)
    for t in range(horizon):
        acc = rows[t][digits[:, t]] * acc
    assert step_products(rows).tobytes() == acc.tobytes()


def test_step_products_fill_one_table():
    """Each level is built in the tail of the output itself, so the product
    never holds the last level beside the full table (1.33 tables at base 3);
    nor does step_sums, which walks the same buffer."""
    for step_table, row in ((step_products, [0.5, 0.25, 0.25]), (step_sums, [0, 1, 1])):
        rows = [np.array(row)] * 11
        tracemalloc.start()
        try:
            table = step_table(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.size == 3**11 and peak <= 1.05 * table.nbytes


@pytest.mark.parametrize("integer", [True, False])
@pytest.mark.parametrize("n_marks, horizon", [(m, T) for m in range(1, 4) for T in range(1, 7)])
def test_step_sums_add_the_rows_in_step_order(n_marks, horizon, integer):
    """Entry r is the sum over steps of rows[t-1][digit t of r], added in step
    order from 0 per rank in Python: bit for bit, int64 for integer rows and
    float64 for float rows."""
    base = n_marks + 1
    gen = np.random.default_rng(10 * n_marks + horizon)
    rows = gen.integers(-9, 10, size=(horizon, base)) if integer else gen.normal(size=(horizon, base))
    want = []
    for rank in range(base**horizon):
        acc = 0 if integer else 0.0
        for t, d in enumerate(digits_of_rank(rank, horizon, n_marks)):
            acc = acc + rows[t][d].item()
        want.append(acc)
    got = step_sums(list(rows))
    assert got.dtype == (np.int64 if integer else np.float64)
    assert got.tobytes() == np.array(want, dtype=got.dtype).tobytes()


@pytest.mark.parametrize("marks", [(1.0, -1.0), (1.0, 2.0, 3.0), (-2.0, 5.0)])
def test_jump_count_and_compound_sum_equal_the_digit_gather_at_every_t(marks, digit_table):
    """N_t and Y_t for t = 0..T are the reference digit table's counts and
    gathered mark sums over steps 1..t, bit for bit (integer marks sum
    exactly in any order); no sample space is built, and t outside 0..T is
    refused."""
    params = ModelParams(6, marks, 0.3, (1.0 / len(marks),) * len(marks))
    digits = digit_table(params)
    mark_of_digit = np.concatenate([[0.0], marks])
    space.cache_clear()
    for t in range(params.horizon + 1):
        count, total = jump_count(params, t), compound_sum(params, t)
        assert count.dtype == total.dtype == np.float64
        assert count.tobytes() == (digits[:, :t] > 0).sum(axis=1).astype(float).tobytes()
        assert total.tobytes() == mark_of_digit[digits[:, :t]].sum(axis=1).tobytes()
    assert jump_count(params).tobytes() == jump_count(params, params.horizon).tobytes()
    assert compound_sum(params).tobytes() == compound_sum(params, params.horizon).tobytes()
    assert space.cache_info().currsize == 0
    for t in (-1, params.horizon + 1):
        with pytest.raises(ValueError, match="out of range"):
            compound_sum(params, t)


@pytest.mark.parametrize("horizon, marks", [(1, (1.0,)), (4, (1.0, -1.0)), (3, (1.0, 2.0, 3.0)), (7, (2.0,))])
def test_digit_rows_of_a_slice_are_the_digits_of_its_ranks(horizon, marks):
    """Every slice start..stop-1, empty ones and ones past the count included,
    holds the digits of its ranks in order, as digits_of_rank gives them."""
    params = ModelParams(horizon, marks, 0.4, (1.0 / len(marks),) * len(marks))
    count = params.n_configurations
    for start in range(count + 1):
        for stop in (start, start + 1, start + 5, count, count + 3):
            rows = digit_rows(params, start, stop)
            assert rows.dtype == np.int8 and rows.shape == (max(0, min(stop, count) - start), horizon)
            assert rows.tolist() == [list(digits_of_rank(r, horizon, len(marks))) for r in range(start, min(stop, count))]


def test_models_past_127_marks_are_refused():
    """Digit rows are int8: 127 marks still give exact tables, while at
    128 the top digit would wrap to -128 and be read as mark 1."""
    params = ModelParams(horizon=1, marks=tuple(range(1, 128)), jump_prob=0.5, mark_probs=(1 / 127,) * 127)
    sp = space(params)
    assert digit_rows(params).max() == 127
    assert sp.expectation(compound_sum(params)) == pytest.approx(32.0, abs=1e-12)
    with pytest.raises(ValueError, match="at most 127 marks"):
        ModelParams(horizon=1, marks=tuple(range(1, 129)), jump_prob=0.5, mark_probs=(1 / 128,) * 128)


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
def test_step_view_matches_rank_map(name, request, digit_table):
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
            assert np.array_equal(view[:, digit].reshape(-1, 2, 3), table[digit_table(params)[:, t - 1] == digit])
    for t in (0, params.horizon + 1):
        with pytest.raises(ValueError, match="out of range"):
            sp.step_view(table, t)


def test_step_view_writes_through_step_major_table(inst2, digit_table):
    from markedbinomial import ProcessTable

    sp = space(inst2)
    u = ProcessTable.zeros(inst2)
    for t in range(1, inst2.horizon + 1):
        view = sp.step_view(u.values, t)
        assert np.shares_memory(view, u.values)
        view[:, t % sp.base, :, t - 1, t % inst2.n_marks] = float(t)
    for t in range(1, inst2.horizon + 1):
        expected = np.where(digit_table(inst2)[:, t - 1] == t % sp.base, float(t), 0.0)
        assert np.array_equal(u.values[:, t - 1, t % inst2.n_marks], expected)
    assert np.count_nonzero(u.values) == sum(
        np.count_nonzero(digit_table(inst2)[:, t - 1] == t % sp.base) for t in range(1, inst2.horizon + 1))


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
def test_config_probability_builds_no_sample_space(model, request, digit_table):
    """One configuration's probability has the bits of its step weights
    multiplied in step order, and the call leaves no space in the cache."""
    params = request.getfixturevalue(model)
    sp = space(params)
    expected = np.ones(sp.n)
    digits = digit_table(params)
    for column in digits.T.astype(np.intp):
        expected = sp.step_weights[column] * expected
    space.cache_clear()
    got = [config_probability(params, Configuration(row, params)) for row in digits.tolist()]
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


@pytest.mark.parametrize("mark_probs", [(1.0,), (0.7, 0.3), (0.5, 0.3, 0.2)], ids=["1mark", "2marks", "3marks"])
def test_sampled_digit_frequencies_match_the_step_law(mark_probs):
    params = ModelParams(horizon=4, marks=tuple(range(1, len(mark_probs) + 1)), jump_prob=0.35,
                         mark_probs=mark_probs)
    digits = sample_digits(params, 250_000, stream=3).ravel()
    weights = step_weights(params)
    frequencies = np.bincount(digits, minlength=weights.size) / digits.size
    assert frequencies.size == weights.size
    assert np.all(np.abs(frequencies - weights) <= 5 * np.sqrt(weights * (1 - weights) / digits.size))


def test_the_first_paths_of_a_longer_run_are_the_shorter_run(cti):
    """Path i is draws i*T .. i*T+T-1, so a run extends every shorter one and
    a stream drawn in pieces gives the paths it gives in one call."""
    whole = sample_digits(cti, 1000, stream=4)
    assert np.array_equal(sample_digits(cti, 37, stream=4), whole[:37])
    stream = rng_stream(cti, 4)
    pieces = [sample_digits(cti, count, stream) for count in (1, 36, 0, 963)]
    assert np.array_equal(np.concatenate(pieces), whole)
    assert stream.position == whole.size


def test_paths_do_not_depend_on_the_draw_block(monkeypatch, cti):
    runs = []
    for block in (1, 7, space_mod.DRAW_BLOCK):
        monkeypatch.setattr(space_mod, "DRAW_BLOCK", block)
        runs.append(sample_digits(cti, 3000, stream=2))  # 9,000 draws: past one default block
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])


def test_sampling_refuses_negative_counts(cti):
    with pytest.raises(ValueError, match="number of paths must be non-negative"):
        sample_digits(cti, -1)
    with pytest.raises(ValueError, match="stream index must be non-negative"):
        sample_digits(cti, 5, stream=-1)


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
    n3 = PathFunctional(cti, values=jump_count(cti))
    assert expectation(n3) == pytest.approx(1.5, abs=1e-12)
    indicator = np.zeros(27)
    indicator[0] = 1.0
    assert expectation(PathFunctional(cti, values=indicator)) == pytest.approx(0.125, abs=1e-14)


def test_functional_at_a_configuration_reads_its_rank(cti, rng):
    F = PathFunctional(cti, values=rng.normal(size=27))
    assert sorted(vars(F)) == ["params", "values"]
    for config in enumerate_configurations(cti):
        assert F(config) == F.table()[config.rank]


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
    values = rng.random(sp.n) if functional == "uniform" else jump_count(params)
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


def test_sample_space_keeps_no_state(cti, rng, monkeypatch):
    """Conditional expectations at every t, and the identity suite on the
    shared space, leave a space's attributes as they were: the same names
    bound to the same read-only arrays.  A space dies with its last
    reference."""
    from markedbinomial import diagnostics

    monkeypatch.setattr(diagnostics, "suite_workers", lambda params: 1)  # the checks run in this process
    sp = space.__wrapped__(cti)  # a private instance, outside the shared cache
    spaces = (sp, space(cti))
    before = [dict(vars(s)) for s in spaces]
    values = rng.normal(size=sp.n)
    for t in range(cti.horizon + 1):
        sp.conditional_expectation(values, t)
    assert all(r.passed for r in diagnostics.run_identity_suite(cti, seed=1))
    for s, was in zip(spaces, before):
        now = vars(s)
        assert now.keys() == was.keys()
        assert all(now[name] is was[name] for name in was)
        assert not any(v.flags.writeable for v in now.values() if isinstance(v, np.ndarray))
    ref = weakref.ref(sp)
    del sp, spaces
    gc.collect()
    assert ref() is None


def test_tower_property_random(cti, rng):
    for _ in range(10):
        F = PathFunctional(cti, values=rng.normal(size=27))
        for t in range(4):
            assert abs(expectation(conditional_expectation(F, t)) - expectation(F)) <= 1e-12


def test_mc_expectation_callable(cti):
    mean, se = mc_expectation(cti, lambda digits: (digits > 0).sum(axis=1), 20000, stream=1)
    assert abs(mean - 1.5) <= 4 * se


def test_mc_expectation_calls_its_function_once_on_the_sampled_batch(cti):
    batches = []

    def first_digit(digits):
        batches.append(digits)
        return digits[:, 0]

    mean, _ = mc_expectation(cti, first_digit, 100, stream=1)
    assert len(batches) == 1
    np.testing.assert_array_equal(batches[0], sample_digits(cti, 100, stream=1))
    assert mean == batches[0][:, 0].mean()


@pytest.mark.parametrize("fn", [
    lambda digits: float((digits > 0).sum()),
    lambda digits: (digits > 0).sum(axis=0),
    lambda digits: (digits > 0)[:, :, None].sum(axis=1),
], ids=["scalar", "per_step", "column"])
def test_mc_expectation_refuses_a_function_without_one_value_per_path(cti, fn):
    with pytest.raises(ValueError, match=r"one value per path, shape \(100,\)"):
        mc_expectation(cti, fn, 100, stream=1)


def test_mc_expectation_batched_error_propagates(cti):
    """An error raised on the batch is the caller's to see."""
    with pytest.raises(ZeroDivisionError):
        mc_expectation(cti, lambda digits: 1.0 / (digits.ndim - 2) + digits.sum(axis=-1), 100, stream=1)


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


# -- %.17g text ------------------------------------------------------------------

def _format_reference(x: np.ndarray) -> list[str]:
    return [format(v, ".17g") for v in x.tolist()]


def _text17_chunks(x: np.ndarray) -> list[str]:
    return [t for start in range(0, x.size, 1 << 15) for t in space_mod._text17(x[start:start + (1 << 15)]).split("\n")]


def _halfway_cases() -> list[float]:
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5: their 17-digit rounding is a tie, broken to even."""
    from decimal import Decimal

    cases = []
    for digits in range(1, 17):
        step = 2.0 ** -(18 - digits)
        for odd in range(1, 400, 2):
            for base in (10.0 ** (digits - 1), 9 * 10.0 ** (digits - 1)):
                x = base + odd * step
                if len(Decimal(x).as_tuple().digits) == 18:
                    cases.append(x)
    return cases


def _edge_floats() -> np.ndarray:
    """Signed zeros, NaN, infinities, the subnormal/normal boundary, every
    power of ten with both neighbours, values whose 17 digits carry into
    the next power, 17-digit ties, and both sides of %g's switch points."""
    powers = [float(f"1e{q}") for q in range(-323, 309)]
    carries = [float(f"9.99999999999999995e{q}") for q in range(-320, 308)]
    carries += [float(f"9.999999999999999949e{q}") for q in range(-320, 308)]
    base = np.array([0.0, np.nan, np.inf, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                     1e-4, 1e-5, 9.9999999999999995e-05, 1e16, 1e17, 99999999999999984.0, 123456789012345680.0,
                     *powers, *carries, *_halfway_cases()])
    around = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, 0.0)])
    return np.concatenate([around, -around])


def test_text17_equals_format_on_a_million_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    x = bits.view(np.float64)
    assert _text17_chunks(x) == _format_reference(x)


def test_text17_of_an_empty_array_is_empty():
    assert space_mod._text17(np.array([])) == ""
    assert space_mod._text17(np.array([]), ", ", null="null") == ""


def test_text17_equals_format_on_the_edge_set():
    x = _edge_floats()
    assert _text17_chunks(x) == _format_reference(x)
    assert space_mod._text17(x[:9], ", ", null="null").split(", ") == [
        "0", "null", "null", "4.9406564584124654e-324", "2.2250738585072009e-308", "2.2250738585072014e-308",
        "0.0001", "1.0000000000000001e-05", "9.9999999999999991e-05"]


def _host_has_avx512f() -> bool:
    from numpy._core._multiarray_umath import __cpu_features__

    return bool(__cpu_features__.get("AVX512F"))


@pytest.mark.skipif(not _host_has_avx512f(), reason="the host has no AVX-512 loops to disable")
def test_text17_equals_format_on_the_edge_set_without_avx512_loops():
    """np.log10, whose guess of the decimal exponent is corrected exactly,
    runs another loop without AVX-512: the text stays the same."""
    code = ("import sys, numpy as np\n"
            "from markedbinomial.space import _text17\n"
            "x = np.frombuffer(sys.stdin.buffer.read())\n"
            "sys.stdout.write(_text17(x))\n")
    x = _edge_floats()
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    proc = subprocess.run([sys.executable, "-c", code], input=x.tobytes(), capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode("ascii").split("\n") == _format_reference(x)
