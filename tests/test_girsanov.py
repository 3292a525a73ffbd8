import math

import numpy as np
import pytest

from markedbinomial import (
    ModelParams,
    PathFunctional,
    TargetMeasure,
    expectation,
    girsanov_density,
    girsanov_drift,
    girsanov_varphi,
    reweighted_expectation,
)
from markedbinomial.girsanov import girsanov_density_doleans, girsanov_density_varphi
from markedbinomial.space import space


@pytest.fixture(scope="module")
def tilted() -> TargetMeasure:
    return TargetMeasure(0.5, (0.75, 0.25))


def test_identity_change(cti):
    same = TargetMeasure(cti.jump_prob, cti.mark_probs)
    drift = girsanov_drift(cti, same)
    assert all(abs(v) <= 1e-15 for v in drift.values())
    assert np.allclose(girsanov_density(cti, same).table(), 1.0)
    varphi = girsanov_varphi(cti, same)
    assert all(abs(v) <= 1e-15 for v in varphi.values())


def test_target_validation(cti):
    with pytest.raises(ValueError, match="jump_prob"):
        TargetMeasure(0.0, (0.5, 0.5))
    with pytest.raises(ValueError, match="positive"):
        TargetMeasure(0.5, (1.0, 0.0))
    for mark_probs in ((math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match="positive"):
            TargetMeasure(0.5, mark_probs)
    with pytest.raises(ValueError, match="one probability per mark"):
        girsanov_drift(cti, TargetMeasure(0.5, (1.0,)))


def test_drift_values(cti, tilted):
    drift = girsanov_drift(cti, tilted)
    for t in (1, 2, 3):
        assert drift[((t, 1.0),)] == pytest.approx(0.5, abs=1e-14)
        assert drift[((t, -1.0),)] == pytest.approx(-0.5, abs=1e-14)


def test_varphi_values(cti, tilted):
    varphi = girsanov_varphi(cti, tilted)
    assert varphi[1.0] == pytest.approx(0.5, abs=1e-14)
    assert varphi[-1.0] == pytest.approx(-0.5, abs=1e-14)


def test_density_mean_one(cti, tilted):
    dens = girsanov_density(cti, tilted)
    assert expectation(dens) == pytest.approx(1.0, abs=1e-12)


def test_density_factorization(cti, tilted):
    sp = space(cti)
    dens = girsanov_density(cti, tilted).table()
    target_probs = space(tilted.as_params(cti)).probabilities
    rel = np.abs(dens * sp.probabilities - target_probs) / target_probs
    assert np.max(rel) <= 1e-14


def test_density_martingale(cti, tilted):
    sp = space(cti)
    prev = np.ones(sp.n)
    for t in (1, 2, 3):
        cur = girsanov_density(cti, tilted, t).table()
        cond = sp.conditional_expectation(cur, t - 1)
        assert np.max(np.abs(cond - prev)) <= 1e-13
        prev = cur


def test_density_positive(cti, tilted):
    assert np.all(girsanov_density(cti, tilted).table() > 0.0)


def test_doleans_route_matches(cti, tilted):
    direct = girsanov_density(cti, tilted).table()
    via_exp = girsanov_density_doleans(cti, tilted).table()
    assert np.max(np.abs(via_exp - direct)) <= 1e-12


def test_varphi_route_matches(cti, tilted, inst2):
    direct = girsanov_density(cti, tilted).table()
    via_phi = girsanov_density_varphi(cti, tilted).table()
    assert np.max(np.abs(via_phi - direct)) <= 1e-12
    other = TargetMeasure(0.4, (0.3, 0.3, 0.4))
    a = girsanov_density(inst2, other).table()
    b = girsanov_density_varphi(inst2, other).table()
    assert np.max(np.abs(a - b)) <= 1e-12


def test_reweighted_expectation_examples(cti, tilted):
    sp = space(cti)
    n3 = PathFunctional(cti, values=sp.jump_count())
    assert reweighted_expectation(n3, TargetMeasure(0.3, (0.5, 0.5))) == pytest.approx(0.9, abs=1e-12)
    const = PathFunctional.constant(cti, 3.25)
    assert reweighted_expectation(const, tilted) == pytest.approx(3.25, abs=1e-12)
    y3 = PathFunctional(cti, values=sp.compound_sum())
    assert reweighted_expectation(y3, tilted) == pytest.approx(0.75, abs=1e-12)


def test_reweighted_matches_direct_target_expectation(cti, tilted, rng):
    F = PathFunctional(cti, values=rng.normal(size=27))
    direct = float(np.dot(space(tilted.as_params(cti)).probabilities, F.table()))
    assert reweighted_expectation(F, tilted) == pytest.approx(direct, abs=1e-13)


def test_log_space_long_horizon():
    """T = 20 on a single-mark space: the density, a product of 20 ratios,
    stays accurate against the target's probabilities."""
    params = ModelParams(horizon=20, marks=(1.0,), jump_prob=0.3, mark_probs=(1.0,))
    target = TargetMeasure(0.6, (1.0,))
    sp = space(params)
    dens = girsanov_density(params, target).table()
    assert expectation(PathFunctional(params, values=dens)) == pytest.approx(1.0, abs=1e-11)
    target_probs = space(target.as_params(params)).probabilities
    rel = np.abs(dens * sp.probabilities - target_probs) / target_probs
    assert np.max(rel) <= 1e-12


def test_density_at_time_zero_is_one_and_other_times_are_checked(cti, tilted):
    """L_0 = 1 on the trivial F_0; times outside 0..T are refused."""
    assert np.array_equal(girsanov_density(cti, tilted, 0).table(), np.ones(cti.n_configurations))
    for t in (-1, cti.horizon + 1):
        with pytest.raises(ValueError, match=r"out of range 0\.\.3"):
            girsanov_density(cti, tilted, t)


_TARGETS = [
    TargetMeasure(0.5, (0.75, 0.25)),
    TargetMeasure(0.4, (0.5, 0.5)),
    TargetMeasure(0.05, (0.01, 0.99)),
    TargetMeasure(0.95, (0.6, 0.4)),
    TargetMeasure(1.0 / 3.0, (2.0 / 3.0, 1.0 / 3.0)),
]


def test_density_builds_no_target_space_and_keeps_its_bits(monkeypatch):
    """The density reads the two laws' one-step weights without building a
    sample space, and equals, bit for bit, the product over steps 1..t of the
    weight ratios at each configuration's digits, multiplied in step order."""
    from markedbinomial.space import SampleSpace, digits_of_rank, step_weights

    # a seed no other test uses, so no space of this model is cached
    params = ModelParams(horizon=6, marks=(1.0, -1.0), jump_prob=0.4, mark_probs=(0.5, 0.5), rng_seed=916)
    built = []
    init = SampleSpace.__init__

    def spy(self, p):
        built.append(p)
        init(self, p)

    monkeypatch.setattr(SampleSpace, "__init__", spy)
    weights = step_weights(params).tolist()
    for target in _TARGETS:
        densities = [girsanov_density(params, target, t).table() for t in range(params.horizon + 1)]
        assert built == []
        ratio = [w_tgt / w for w_tgt, w in zip(step_weights(target.as_params(params)).tolist(), weights)]
        for t, dens in enumerate(densities):
            want = []
            for rank in range(params.n_configurations):
                acc = 1.0
                for d in digits_of_rank(rank, params.horizon, params.n_marks)[:t]:
                    acc = ratio[d] * acc
                want.append(acc)
            assert dens.tobytes() == np.array(want).tobytes()


def test_density_past_the_cap_is_refused_before_any_allocation(monkeypatch):
    """Past MBP_ENUM_CAP the density raises the enumeration refusal before it
    allocates a table and without building a sample space."""
    import tracemalloc

    from markedbinomial.space import SampleSpace

    def refuse(self, p):
        raise AssertionError("a sample space was built")

    monkeypatch.setattr(SampleSpace, "__init__", refuse)
    monkeypatch.setenv("MBP_ENUM_CAP", "100")
    params = ModelParams(horizon=9, marks=(1.0, -1.0), jump_prob=0.4, mark_probs=(0.5, 0.5), rng_seed=917)
    target = TargetMeasure(0.5, (0.75, 0.25))
    tracemalloc.start()
    try:
        for t in (None, 0, 4):
            with pytest.raises(ValueError, match="enumeration too large: 19683 configurations exceeds cap 100"):
                girsanov_density(params, target, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.n_configurations * 8
