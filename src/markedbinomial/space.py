"""Finite sample space of a marked binomial process.

A model with horizon T, mark set E = {k^1, ..., k^m}, jump probability
lambda and mark law Q generates (1+m)^T equally structured scenarios: at
each time step the process either stays put (digit 0, probability
1 - lambda) or jumps with mark k^j (digit j, probability lambda * Q_j),
independently across steps.

Every scenario is encoded by its digit vector (d_1, ..., d_T) and by the
mixed-radix rank

    rank = sum_t d_t * (1+m)^(t-1),

with t = 1 the least significant digit.  The rank order is the canonical
order of all exact tables in this package; it is fixed so that exported
files are byte-stable.

Exact computations (expectations, conditional expectations, operators)
act on dense tables indexed by rank.  Beyond the enumeration cap only
Monte Carlo sampling is available.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

DEFAULT_ENUM_CAP = 10**7
ENUM_CAP_ENV = "MBP_ENUM_CAP"

# Most rows per block when the configuration probabilities are summed from
# the log step weights, so no float table spans all n rows of the (n, T) table.
PROBABILITY_BLOCK = 1 << 15


def enumeration_cap() -> int:
    """Active cap on exact-table sizes (env MBP_ENUM_CAP overrides)."""
    raw = os.environ.get(ENUM_CAP_ENV)
    return int(raw) if raw else DEFAULT_ENUM_CAP


@dataclass(frozen=True)
class ModelParams:
    """Static description of a marked binomial model.

    horizon     -- number of time steps T >= 1
    marks       -- ordered, pairwise distinct real marks (the set E)
    jump_prob   -- per-step jump probability lambda in (0, 1)
    mark_probs  -- mark law Q, strictly positive, summing to 1
    rng_seed    -- base seed for all Monte Carlo streams
    """

    horizon: int
    marks: tuple[float, ...]
    jump_prob: float
    mark_probs: tuple[float, ...]
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(float(k) for k in self.marks))
        object.__setattr__(self, "mark_probs", tuple(float(q) for q in self.mark_probs))
        # the comparisons first: int() raises its own errors on inf and NaN
        if not (1 <= self.horizon < math.inf and int(self.horizon) == self.horizon):
            raise ValueError(f"horizon must be a positive integer, got {self.horizon}")
        object.__setattr__(self, "horizon", int(self.horizon))
        if not 0.0 < self.jump_prob < 1.0:
            raise ValueError(f"jump_prob must lie in (0, 1), got {self.jump_prob}")
        if len(self.marks) == 0:
            raise ValueError("at least one mark is required")
        if not all(math.isfinite(k) for k in self.marks):
            raise ValueError(f"marks must be finite, got {self.marks}")
        if len(set(self.marks)) != len(self.marks):
            raise ValueError(f"marks must be pairwise distinct, got {self.marks}")
        if len(self.mark_probs) != len(self.marks):
            raise ValueError("mark_probs must have one entry per mark")
        if not all(q > 0.0 for q in self.mark_probs):  # also refuses NaN, for which q <= 0.0 is False
            raise ValueError(f"every mark probability must be positive, got {self.mark_probs}")
        if abs(sum(self.mark_probs) - 1.0) > 1e-12:
            raise ValueError(f"mark probabilities must sum to 1, got sum {sum(self.mark_probs)!r}")

    @property
    def n_marks(self) -> int:
        return len(self.marks)

    @property
    def n_configurations(self) -> int:
        return (1 + self.n_marks) ** self.horizon

    @property
    def mean_mark(self) -> float:
        return float(sum(k * q for k, q in zip(self.marks, self.mark_probs)))

    def mark_index(self, k: float) -> int:
        """0-based index of mark value k in the user-supplied order."""
        for i, mk in enumerate(self.marks):
            if mk == float(k):
                return i
        raise ValueError(f"{k} is not a mark of this model (marks: {self.marks})")

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "ModelParams":
        """Read params from a flat ``key = value`` file.

        Keys: T, marks, lambda, Q, seed, each at most once.  Lists are
        comma separated and ``#`` starts a comment.
        """
        known = ("T", "marks", "lambda", "Q", "seed")
        entries: dict[str, str] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"malformed config line (expected key = value): {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise ValueError(f"unknown config key {key!r} (keys: {', '.join(known)})")
                if key in entries:
                    raise ValueError(f"config key {key!r} given twice")
                entries[key] = value
        missing = {"T", "marks", "lambda", "Q"} - set(entries)
        if missing:
            raise ValueError(f"config file misses keys: {sorted(missing)}")
        return cls(
            horizon=int(entries["T"]),
            marks=tuple(float(x) for x in entries["marks"].split(",")),
            jump_prob=float(entries["lambda"]),
            mark_probs=tuple(float(x) for x in entries["Q"].split(",")),
            rng_seed=int(entries.get("seed", "0")),
        )


@dataclass(frozen=True)
class Configuration:
    """One realized path: digit 0 = no jump, digit j = jump with mark k^j."""

    digits: tuple[int, ...]
    params: ModelParams

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))
        if len(self.digits) != self.params.horizon:
            raise ValueError(
                f"configuration has {len(self.digits)} digits, horizon is {self.params.horizon}"
            )
        if any(d < 0 or d > self.params.n_marks for d in self.digits):
            raise ValueError(f"digits must lie in 0..{self.params.n_marks}, got {self.digits}")

    @property
    def rank(self) -> int:
        return rank_of_digits(self.digits, self.params.n_marks)


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values: a sort and a neighbour mask, because np.unique
    imports numpy.ma, which costs the CLI about 15 ms per process."""
    ordered = np.sort(values)
    keep = np.ones(ordered.shape, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _text17(values: np.ndarray) -> list[str]:
    """``%.17g`` text of every entry of a 1-D float array, each distinct
    64-bit pattern formatted once.  Patterns, not float values, are compared,
    since -0.0 == 0.0 prints differently; NaN and infinities print as
    ``%.17g`` prints them.  The sort replaces np.unique for the reason
    given at :func:`_distinct`."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    perm = np.argsort(bits)
    ordered = bits[perm]
    new = np.ones(ordered.shape, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(perm.shape, dtype=np.intp)
    inverse[perm] = np.cumsum(new) - 1
    firsts = ordered[new].view(np.float64).tolist()
    texts = np.array(("\n".join(["%.17g"] * len(firsts)) % tuple(firsts)).split("\n"), dtype=object)
    return texts[inverse].tolist()


def step_weights(params: ModelParams) -> np.ndarray:
    """One-step law (1 - lambda, lambda Q_1, ..., lambda Q_m) of digits 0..m.
    The one expression every table of step weights comes from, so a law's
    weights have the same bits whether or not its sample space is built."""
    return np.concatenate([[1.0 - params.jump_prob], params.jump_prob * np.asarray(params.mark_probs)])


def _refuse_oversized(params: ModelParams) -> None:
    """Refuse a model past the enumeration cap before any table is allocated."""
    count, cap = params.n_configurations, enumeration_cap()
    if count > cap:
        raise ValueError(
            f"enumeration too large: {count} configurations exceeds cap {cap} "
            f"(T={params.horizon}, {params.n_marks} marks); "
            "only Monte Carlo mode is available"
        )


@lru_cache(maxsize=64)
def probability_table(params: ModelParams) -> np.ndarray:
    """Probabilities of all configurations in rank order, shared and read-only.

    Rows are summed in blocks of B^k <= PROBABILITY_BLOCK ranks (B = 1+m):
    one (B^k, T) table of log step weights serves every block, its first k
    columns, the low digits, written once, and its other columns, the
    digits of the block index, set to one constant each per block.  Each
    row equals the row of the gather ``log(step_weights)[digits]``, so its
    sum and exp have the same bits, and no digit table is built.
    """
    _refuse_oversized(params)
    T, B, count = params.horizon, params.n_marks + 1, params.n_configurations
    log_weights = np.log(step_weights(params))
    k = T
    while B**k > PROBABILITY_BLOCK:
        k -= 1
    rows = B**k
    logs = np.empty((rows, T))
    for t in range(k):  # column t holds the log weight of digit t + 1, as the digit table does
        logs.reshape(rows // B ** (t + 1), B, B**t, T)[..., t] = log_weights[:, None]
    probabilities = np.empty(count)
    for block, start in enumerate(range(0, count, rows)):
        logs[:, k:] = log_weights[list(digits_of_rank(block, T - k, params.n_marks))]
        np.exp(logs.sum(axis=1), out=probabilities[start:start + rows])
    probabilities.flags.writeable = False
    return probabilities


def rank_of_digits(digits: Sequence[int], n_marks: int) -> int:
    base = 1 + n_marks
    rank = 0
    for t in range(len(digits) - 1, -1, -1):
        rank = rank * base + int(digits[t])
    return rank


def digits_of_rank(rank: int, horizon: int, n_marks: int) -> tuple[int, ...]:
    base = 1 + n_marks
    digits = []
    for _ in range(horizon):
        digits.append(rank % base)
        rank //= base
    return tuple(digits)


class SampleSpace:
    """Dense enumeration engine for one ModelParams instance.

    All arrays are immutable after construction (the per-step atom masses
    of :meth:`conditional_expectation` are summed on first use and then
    kept read-only); the instance is shared through :func:`space` and safe
    for concurrent reads.
    """

    def __init__(self, params: ModelParams):
        _refuse_oversized(params)  # a cached probability table skips the builder's own check
        self.params = params
        self.base = params.n_marks + 1
        self.n = count = params.n_configurations
        T, B = params.horizon, self.base
        self.powers = B ** np.arange(T, dtype=np.int64)
        self.digits = np.empty((count, T), dtype=np.int8)
        for t in range(T):  # digit t + 1 of rank (a * B + d) * B^t + c is d
            self.digits.reshape(count // B ** (t + 1), B, B**t, T)[..., t] = np.arange(B, dtype=np.int8)[:, None]
        self.step_weights = step_weights(params)
        self.log_step_weights = np.log(self.step_weights)
        self.probabilities = probability_table(params)
        for arr in (self.powers, self.digits, self.step_weights):
            arr.flags.writeable = False
        self._atom_mass: dict[int, np.ndarray] = {}

    # -- digit surgery ------------------------------------------------------
    def step_view(self, values: np.ndarray, t: int) -> np.ndarray:
        """Rank-indexed table with step t (1-based) as its own axis: entry
        [a, d, c] is row (a * base + d) * base^(t-1) + c, so d is digit t and
        c, a encode the digits before and after t.  Trailing axes pass
        through.  The result is always a view, writable when ``values`` is;
        an input that could only be reshaped by a copy (where writes would
        be lost) raises ValueError."""
        if not 1 <= t <= self.params.horizon:
            self.check_time(t)
        low = self.base ** (t - 1)
        view = np.reshape(values, (self.n // (low * self.base), self.base, low) + np.shape(values)[1:])
        # a reshape either returns a view or a fresh copy, and a copy never
        # overlaps its source: the bounds test is exact here
        if not np.may_share_memory(view, values):
            raise ValueError("step view needs a table it can reshape without a copy")
        return view

    def ranks_with_digit(self, t: int, digit: int) -> np.ndarray:
        """Rank map omega -> omega with digit t (1-based) forced to ``digit``
        (index-arithmetic reference that :meth:`step_view` is checked against)."""
        self.check_time(t)
        cur = self.digits[:, t - 1].astype(np.int64)
        return np.arange(self.n, dtype=np.int64) + (digit - cur) * self.powers[t - 1]

    def check_time(self, t: int):
        if not 1 <= t <= self.params.horizon:
            raise ValueError(f"time {t} out of range 1..{self.params.horizon}")

    # -- measure ------------------------------------------------------------
    def expectation(self, values: np.ndarray) -> float:
        return float(np.dot(self.probabilities, values))

    def conditional_expectation(self, values: np.ndarray, t: int) -> np.ndarray:
        """E[F | F_t] as a dense table (constant on each F_t atom).

        F_t atoms share digits 1..t, i.e. the rank residue mod base^t.
        """
        if not 0 <= t <= self.params.horizon:
            raise ValueError(f"time {t} out of range 0..{self.params.horizon}")
        bt = int(self.base**t)
        probs = self.probabilities.reshape((-1, bt)).T
        vals = np.asarray(values, dtype=float).reshape((-1, bt)).T
        # one contiguous row per atom, which numpy sums pairwise, not term by term
        mass = self._atom_mass.get(t)
        if mass is None:  # P(atom) depends on t alone: sum it once per space
            mass = np.ascontiguousarray(probs).sum(axis=1)
            mass.flags.writeable = False
            self._atom_mass[t] = mass
        atom_mean = np.multiply(vals, probs, order="C").sum(axis=1) / mass
        return np.tile(atom_mean, self.n // bt)

    def atom_ids(self, t: int) -> np.ndarray:
        """Atom label of F_t containing each configuration (0..base^t - 1)."""
        return (np.arange(self.n, dtype=np.int64) % (self.base**t)).astype(np.int64)

    # -- counting / compound processes --------------------------------------
    def jump_count(self, t: int | None = None) -> np.ndarray:
        t = self.params.horizon if t is None else t
        return (self.digits[:, :t] > 0).sum(axis=1).astype(float)

    def compound_sum(self, t: int | None = None) -> np.ndarray:
        t = self.params.horizon if t is None else t
        mark_of_digit = np.concatenate([[0.0], np.asarray(self.params.marks)])
        return mark_of_digit[self.digits[:, :t]].sum(axis=1)


@lru_cache(maxsize=64)
def space(params: ModelParams) -> SampleSpace:
    """Shared, cached enumeration engine for ``params``."""
    return SampleSpace(params)


class PathFunctional:
    """A real functional of configurations.

    Exact mode stores a dense table indexed by rank; Monte Carlo mode
    stores a callable on digit vectors.  Exact tables are immutable.
    """

    def __init__(self, params: ModelParams, values: np.ndarray | None = None,
                 fn: Callable[[np.ndarray], np.ndarray] | None = None):
        if (values is None) == (fn is None):
            raise ValueError("provide exactly one of values / fn")
        self.params = params
        self.fn = fn
        if values is not None:
            values = np.asarray(values, dtype=float)
            if values.shape != (params.n_configurations,):
                raise ValueError(
                    f"exact table must have length {params.n_configurations}, got {values.shape}"
                )
            values = values.copy()
            values.flags.writeable = False
        self.values = values

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_callable(cls, params: ModelParams, fn: Callable[[np.ndarray], np.ndarray]) -> "PathFunctional":
        return cls(params, fn=fn)

    @classmethod
    def constant(cls, params: ModelParams, c: float) -> "PathFunctional":
        return cls(params, values=np.full(params.n_configurations, float(c)))

    # -- mode handling -------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        return self.values is not None

    def table(self) -> np.ndarray:
        if self.values is None:
            raise ValueError("exact mode required")
        return self.values

    def __call__(self, config: Configuration) -> float:
        if self.values is not None:
            return float(self.values[config.rank])
        return float(np.asarray(self.fn(np.asarray(config.digits, dtype=np.int8))))

    # -- arithmetic (exact mode) ----------------------------------------------
    def _binary(self, other, op) -> "PathFunctional":
        if isinstance(other, PathFunctional):
            other = other.table()
        return PathFunctional(self.params, values=op(self.table(), other))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return PathFunctional(self.params, values=np.subtract(other, self.table()))

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return PathFunctional(self.params, values=-self.table())


# -- spec-level operations ----------------------------------------------------

def enumerate_configurations(params: ModelParams) -> list[Configuration]:
    """All configurations in rank order; count = (1+m)^T (cap enforced)."""
    sp = space(params)
    return [Configuration(tuple(row), params) for row in sp.digits.tolist()]


def config_probability(params: ModelParams, config: Configuration) -> float:
    """Product over steps of (1 - lambda) or lambda * Q(mark), with the bits
    of its entry in ``probability_table``; no sample space is built."""
    if config.params != params:
        raise ValueError("configuration belongs to different params")
    return float(np.exp(np.log(step_weights(params))[np.asarray(config.digits)].sum()))


def rng_stream(params: ModelParams, stream_index: int = 0) -> np.random.Generator:
    """Independent seeded stream; assignment by worker index keeps runs
    reproducible regardless of scheduling."""
    return np.random.default_rng(np.random.SeedSequence(params.rng_seed, spawn_key=(stream_index,)))


def sample_digits(params: ModelParams, n_paths: int, stream: int | np.random.Generator = 0) -> np.ndarray:
    """Draw n_paths digit vectors (shape (n_paths, T)) from the model."""
    rng = stream if isinstance(stream, np.random.Generator) else rng_stream(params, stream)
    return rng.choice(params.n_marks + 1, size=(n_paths, params.horizon), p=step_weights(params)).astype(np.int8)


def sample_path(params: ModelParams, stream: int | np.random.Generator = 0) -> Configuration:
    return Configuration(tuple(sample_digits(params, 1, stream)[0].tolist()), params)


def compound_value(params: ModelParams, config: Configuration, t: int) -> tuple[int, float, float]:
    """(N_t, Y_t, compensated Y_t) for one configuration.

    The compensation subtracts lambda * t * E[V]; with this centering the
    compensated process is a martingale (checked by enumeration).
    """
    if not 1 <= t <= params.horizon:
        raise ValueError(f"time {t} out of range 1..{params.horizon}")
    digs = np.asarray(config.digits[:t])
    n_t = int((digs > 0).sum())
    mark_of_digit = np.concatenate([[0.0], np.asarray(params.marks)])
    y_t = float(mark_of_digit[digs].sum())
    y_bar = y_t - params.jump_prob * t * params.mean_mark
    return n_t, y_t, y_bar


def expectation(F: PathFunctional) -> float:
    """Exact weighted sum over the enumeration."""
    return space(F.params).expectation(F.table())


def conditional_expectation(F: PathFunctional, t: int) -> PathFunctional:
    """E[F | F_t] as an exact table, constant on each F_t atom."""
    sp = space(F.params)
    return PathFunctional(F.params, values=sp.conditional_expectation(F.table(), t))


def mc_expectation(F: PathFunctional, n_samples: int, stream: int | np.random.Generator = 0) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a callable-mode functional."""
    digs = sample_digits(F.params, n_samples, stream)
    if F.values is not None:
        sp = space(F.params)
        ranks = (digs.astype(np.int64) * sp.powers[None, :]).sum(axis=1)
        vals = F.values[ranks]
    else:
        vals = np.asarray(F.fn(digs), dtype=float)   # batched evaluation
        if vals.shape != (n_samples,):  # a per-path callable: call it row by row
            vals = np.asarray([float(F.fn(row)) for row in digs])
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))


def export_table_csv(F: PathFunctional, path: str | os.PathLike) -> None:
    """Dump an exact table as CSV rows (rank, probability, value)."""
    sp = space(F.params)
    vals = F.table()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "probability", "value"])
        for rank in range(sp.n):
            writer.writerow([rank, repr(float(sp.probabilities[rank])), repr(float(vals[rank]))])
