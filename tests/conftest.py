import hypothesis
import numpy as np
import pytest

from markedbinomial import ModelParams

hypothesis.settings.register_profile(
    "suite", max_examples=50, derandomize=True, deadline=None
)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def cti() -> ModelParams:
    """Canonical test instance: T=3, marks {1,-1}, lambda=1/2, uniform Q."""
    return ModelParams(horizon=3, marks=(1.0, -1.0), jump_prob=0.5, mark_probs=(0.5, 0.5))


@pytest.fixture(scope="session")
def inst2() -> ModelParams:
    """Second exact instance: T=5, marks {1,2,3}, lambda=0.3, Q=(.5,.3,.2)."""
    return ModelParams(horizon=5, marks=(1.0, 2.0, 3.0), jump_prob=0.3, mark_probs=(0.5, 0.3, 0.2))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20231115)


def _reference_digits(params: ModelParams) -> np.ndarray:
    """(n, T) int8 digit table in rank order, read off np.indices of the
    (B,)*T grid: in C order its last axis varies fastest, so reversed, the
    axes give digits 1..T.  It shares no code with the package's digit rows."""
    T, B = params.horizon, params.n_marks + 1
    return np.ascontiguousarray(np.indices((B,) * T, dtype=np.int8).reshape(T, -1)[::-1].T)


@pytest.fixture(scope="session")
def digit_table():
    """The reference digit table of a model, as a function of its params."""
    return _reference_digits
