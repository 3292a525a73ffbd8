"""The identity suite's input streams and the Girsanov block's relative measure."""
import dataclasses
import importlib
from fractions import Fraction

import numpy as np
import pytest

from markedbinomial import ModelParams, PathFunctional, diagnostics, girsanov, malliavin
from markedbinomial.chaos import random_kernel
from markedbinomial.cli import main

REF3 = ModelParams(horizon=3, marks=(1.0, -1.0), jump_prob=0.5, mark_probs=(0.5, 0.5))
REF5 = ModelParams(horizon=5, marks=(1.0, 2.0, 3.0), jump_prob=0.3, mark_probs=(0.5, 0.3, 0.2))
ONE_MARK = ModelParams(horizon=5, marks=(1.0,), jump_prob=0.3, mark_probs=(1.0,))
MASK = (1 << 64) - 1
space_mod = importlib.import_module("markedbinomial.space")  # the package root's `space` is the function


def splitmix64(key, i):
    """Output i of SplitMix64 from state ``key``, in plain Python integers."""
    z = (key + (i + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_splitmix64_reference_gives_the_published_outputs():
    assert [splitmix64(1234567, i) for i in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_stream_maps_each_output_to_its_top_53_bits_on_minus_one_one():
    """Draw i is the signed top 53 bits of output i times 2^-52, also past a
    first draw that leaves the stream mid-block."""
    stream = diagnostics.UniformStream(1234567)
    head = stream.draw(5)
    tail = stream.draw((3, 100))
    want = []
    for i in range(305):
        z = splitmix64(1234567, i)
        want.append(((z - (1 << 64) if z >> 63 else z) >> 11) * 2.0 ** -52)
    assert np.concatenate([head, tail.ravel()]).tolist() == want
    assert stream.position == 305


def test_draws_have_the_same_bits_for_every_block_size(monkeypatch):
    n = 2 * space_mod.DRAW_BLOCK + 5
    draws = []
    for block in (1, 7, space_mod.DRAW_BLOCK):
        monkeypatch.setattr(space_mod, "DRAW_BLOCK", block)
        stream = diagnostics.UniformStream(diagnostics.stream_key(7, "isometry"))
        draws.append(stream.fill(np.empty(n)).view(np.uint64))
    assert np.array_equal(draws[0], draws[1]) and np.array_equal(draws[0], draws[2])
    values = draws[0].view(float)
    assert -1.0 <= values.min() and values.max() < 1.0


@pytest.mark.parametrize("out", [np.empty((4, 3)).T, np.empty(12, dtype=np.float32)], ids=["transposed", "float32"])
def test_stream_fills_only_c_contiguous_float64_arrays(out):
    with pytest.raises(ValueError, match="C-contiguous float64"):
        diagnostics.UniformStream(1).fill(out)


def test_stream_keys_differ_by_seed_and_by_name_and_refuse_negative_seeds():
    keys = {diagnostics.stream_key(seed, name) for seed in (0, 1, 7) for name, _, _ in diagnostics.CHECKS}
    assert len(keys) == 3 * len(diagnostics.CHECKS)
    with pytest.raises(ValueError, match="non-negative"):
        diagnostics.stream_key(-1, "poincare")


def test_sample_stream_keys_differ_from_every_check_key():
    """Monte Carlo streams are named so that no identity check shares their
    key, and the Mehler estimator's streams share none with path sampling."""
    samples = {space_mod.rng_stream(dataclasses.replace(REF3, rng_seed=seed), index).key
               for seed in (0, 1, 7) for index in range(10)}
    mehler = {diagnostics.stream_key(seed, f"mehler stream {index}") for seed in (0, 1, 7) for index in range(10)}
    checks = {diagnostics.stream_key(seed, name) for seed in (0, 1, 7) for name, _, _ in diagnostics.CHECKS}
    assert len(samples) == 30 and not samples & checks
    assert len(mehler) == 30 and not mehler & (samples | checks)


def test_digits_count_the_edges_at_or_below_each_draw_exactly():
    """Digit i counts the edges e with u_i * 2^-53 >= e, u_i the top 53 bits of
    output i: a draw equal to an edge counts it, the next float up does not."""
    tops = [splitmix64(99, i) >> 11 for i in range(300)]
    hit = tops[5] * 2.0**-53
    edges = [0.2, hit, float(np.nextafter(hit, 1.0)), 0.55, 0.9]
    assert sorted(edges) == edges and tops[5] > 0.2 * 2**53
    digits = diagnostics.UniformStream(99).fill_digits(np.empty((3, 100), dtype=np.int8), np.array(edges))
    want = [sum(Fraction(u, 2**53) >= Fraction(e) for e in edges) for u in tops]
    assert digits.ravel().tolist() == want and want[5] == 2


def _raw_outputs(key, start, count):
    """Outputs start .. start + count - 1 of SplitMix64 from ``key``, in wrapping uint64 arithmetic."""
    z = np.uint64(key) + np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@pytest.mark.parametrize("dtype", [np.int8, np.uint8])
@pytest.mark.parametrize("size", ["below", "at", "above"])
def test_digits_count_as_the_top_53_bits_against_the_scaled_edges(dtype, size):
    """Counting on the raw output against thresholds shifted left by 11 bits
    gives, bit for bit, the sum over edges of (output >> 11) >= ceil(e * 2^53),
    for edges 0 (counts every draw), 1 and the float above 1 (count none) and
    an edge equal to a draw whose low 11 bits are 0 (its output equals the
    shifted threshold), in one pass, exactly one and more than one, from a
    stream already 3 draws in.  The edges come first in one order and last in
    the other, as the first comparison is made apart from the others."""
    count = {"below": 1000, "at": space_mod.DIGIT_BLOCK, "above": 2 * space_mod.DIGIT_BLOCK + 5}[size]
    key = diagnostics.stream_key(3, "edges")
    raw = _raw_outputs(key, 3, count)
    assert raw[:4].tolist() == [splitmix64(key, i) for i in range(3, 7)]
    assert raw[790] & np.uint64(2047) == 0
    edges = np.array([float(raw[790] >> np.uint64(11)) * 2.0**-53, 0.0, 0.3, 1.0, np.nextafter(1.0, 2.0)])
    want = sum(((raw >> np.uint64(11)) >= np.uint64(c)).astype(int) for c in np.ceil(edges * 2.0**53))
    assert want.min() == 1 and want.max() == 3 and want[790] == 3
    for ordered in (edges, edges[::-1]):
        stream = diagnostics.UniformStream(key)
        stream.fill_digits(np.empty(3, dtype=dtype), ordered)
        digits = stream.fill_digits(np.empty(count, dtype=dtype), ordered)
        assert digits.dtype == dtype and np.array_equal(digits, want) and stream.position == count + 3


def test_random_process_fills_the_step_major_table_in_memory_order():
    ctx = diagnostics._Context(REF3, 5, "mecke")
    u = ctx.random_process()
    stream = diagnostics.UniformStream(diagnostics.stream_key(5, "mecke"))
    flat = stream.draw(REF3.horizon * REF3.n_marks * REF3.n_configurations)
    assert np.array_equal(u.values.transpose(1, 2, 0).ravel(), flat)


@pytest.mark.parametrize("name", ["cti", "inst2"])
def test_predictable_random_process_is_predictable(name, request):
    """The checks that need a predictable u draw one and project each step t onto F_{t-1}."""
    params = request.getfixturevalue(name)
    drawn = diagnostics._Context(params, 0, "ipp_l1").random_process()
    assert not drawn.is_predictable(1e-12)
    assert malliavin._project_predictable(drawn).is_predictable(1e-12)


def test_random_kernel_reads_a_stream_in_support_order():
    stream = diagnostics.UniformStream(3)
    kernel = random_kernel(REF3, 2, stream)
    assert list(kernel.values()) == diagnostics.UniformStream(3).draw(len(kernel)).tolist()
    assert len(kernel) == 3 * 2 ** 2 and stream.position == len(kernel)
    with pytest.raises(ValueError, match="density"):
        random_kernel(REF3, 2, stream, density=0.5)


@pytest.mark.parametrize("params", [REF3, REF5], ids=["T3", "T5"])
def test_each_check_in_the_suite_reads_only_its_own_stream(params):
    """A check's residual in the suite is the residual it gives alone on a
    fresh context for its name."""
    suite = diagnostics.run_identity_suite(params, seed=2)
    alone = [float(fn(diagnostics._Context(params, 2, name))) for name, _, fn in diagnostics.CHECKS]
    assert [r.residual for r in suite] == alone


def test_the_suite_passes_on_a_one_mark_model():
    """With one mark the gradient is the add-one cost and the two number
    operators agree: the singleton checks run their bodies, and all pass."""
    suite = diagnostics.run_identity_suite(ONE_MARK, seed=3)
    assert len(suite) == len(diagnostics.CHECKS)
    assert [r.name for r in suite if not r.passed] == []


@pytest.mark.parametrize("name, operator", [
    ("gradient_add_one_singleton", "add_one_cost"),
    ("singleton_l_operators", "tilde_number_operator"),
])
def test_singleton_checks_fail_on_an_operator_off_by_1e_9(name, operator, monkeypatch):
    tolerance, fn = {n: (tol, fn) for n, tol, fn in diagnostics.CHECKS}[name]
    assert fn(diagnostics._Context(ONE_MARK, 0, name)) <= tolerance
    exact = getattr(malliavin, operator)

    def perturbed(*args):
        return PathFunctional(ONE_MARK, values=exact(*args).table() * (1 + 1e-9))

    monkeypatch.setattr(malliavin, operator, perturbed)
    assert fn(diagnostics._Context(ONE_MARK, 0, name)) > tolerance


def test_check_order_changes_no_residual(monkeypatch):
    forward = {r.name: r.residual for r in diagnostics.run_identity_suite(REF5, seed=1)}
    monkeypatch.setattr(diagnostics, "CHECKS", diagnostics.CHECKS[::-1])
    backward = {r.name: r.residual for r in diagnostics.run_identity_suite(REF5, seed=1)}
    assert backward == forward


@pytest.mark.parametrize("T, lam", [(4, 0.05), (6, 0.05), (6, 0.9)])
def test_girsanov_block_passes_where_densities_grow_like_a_power_of_the_horizon(T, lam, capsys):
    """The density reaches 6^T at lambda 0.05 and 3^T at 0.9, and rounding
    gaps of a few eps times the largest once read as absolute violations."""
    args = ["verify", "--T", str(T), "--marks=1,-1", "--lambda", str(lam), "--Q", "0.5,0.5", "--no-timestamp"]
    assert main(args) == 0, capsys.readouterr().err


@pytest.mark.parametrize("where", ["every_atom", "smallest_density_atom"])
@pytest.mark.parametrize("route", ["girsanov_density", "girsanov_density_doleans", "girsanov_density_varphi"])
@pytest.mark.parametrize("T", [3, 6])
def test_girsanov_block_fails_on_a_density_route_off_by_1e_9(route, where, T, monkeypatch):
    """At lambda 0.05 the density spans 0.76^T to 6^T, so an error of 1e-9 at
    the smallest-density atom is 4e-15 of the largest density at T=6: the
    check must still see it."""
    params = ModelParams(horizon=T, marks=(1.0, -1.0), jump_prob=0.05, mark_probs=(0.5, 0.5))
    tolerance = {name: tol for name, tol, _ in diagnostics.CHECKS}["girsanov_block"]
    assert diagnostics._girsanov_block(diagnostics._Context(params, 0, "girsanov_block")) <= tolerance
    exact = getattr(girsanov, route)

    def perturbed(p, target, *rest):
        values = exact(p, target, *rest).table().copy()
        values[slice(None) if where == "every_atom" else np.argmin(values)] *= 1 + 1e-9
        return PathFunctional(p, values=values)

    monkeypatch.setattr(girsanov, route, perturbed)
    assert diagnostics._girsanov_block(diagnostics._Context(params, 0, "girsanov_block")) > tolerance
