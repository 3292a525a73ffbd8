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
act on dense tables indexed by rank; a functional is its table
(``PathFunctional``).  Beyond the enumeration cap only Monte Carlo
sampling is available: ``sample_digits`` draws batches of digit rows and
``mc_expectation`` averages a function of such a batch.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_ENUM_CAP = 10**7
ENUM_CAP_ENV = "MBP_ENUM_CAP"

# Digit tables are int8, so digits 0..m must fit below 128.
MAX_MARKS = 127


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
        if len(self.marks) > MAX_MARKS:
            raise ValueError(
                f"at most {MAX_MARKS} marks are supported (digits are stored as int8), got {len(self.marks)}"
            )
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


# -- %.17g text in numpy ----------------------------------------------------------
#
# Every float an exact table prints goes through _text17.  An entry x != 0 is
# |x| = N 10**(k-16) rounded, with k = floor(log10 |x|) and N the 17-digit integer
# nearest |x| 10**(16-k); "%.17g" prints N's digits, trailing zeros stripped, in
# fixed notation for -4 <= k < 17 and in exponent form otherwise.  N comes from a
# double-double product (Dekker) with an exact error bound, and any entry whose
# rounding that bound leaves open, or that is zero, subnormal, non-finite or
# outside 10**TEXT_K_MIN <= |x| < 10**TEXT_K_MAX, is printed by Python itself.

TEXT_K_MIN, TEXT_K_MAX = -99, 99  # decimal exponents formatted in numpy
_SPLITTER = 134217729.0             # 2**27 + 1, Veltkamp's splitter for binary64
# |computed - exact| fractional part of |x| 10**(16-k) is below 2**-46 (see
# _round17); parts this close to 1/2 are rounded by Python
_HALF_BAND = 2.0**-40

# Byte columns of one entry's row, in 8-byte words.  Word 0 holds the sign
# and "0.000" before digit 1 in its last byte, words 1-2 digits 2-17, word 3
# the point in its last byte, words 4-5 digits 2-17 again, for the fraction
# after the point, word 6 the exponent "e+dd"; the separator follows, unless
# _row_bases moves it up to the end of a 17-digit text.
_LEAD, _POINT, _FRAC, _EXP, _SEP = 7, 31, 32, 48, 56
_WORD3 = 24  # where a separator of at most 8 bytes follows a 17-digit text with k < 0
_LAYOUTS = 22  # k = -4 .. 16 in fixed notation, then the exponent form


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into two halves of 26 and 27 bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


@lru_cache(maxsize=1)
def _power_table() -> np.ndarray:
    """Rows (H, H_hi, H_lo, L) over q = 16 - k, k from TEXT_K_MAX down to
    TEXT_K_MIN: H + L is 10**q to about 2**-106 relative, H = H_hi + H_lo its
    split.  H and L are correctly rounded from Python ints (int / int is)."""
    hi, lo = [], []
    for q in range(16 - TEXT_K_MAX, 16 - TEXT_K_MIN + 1):
        if q >= 0:
            h = float(10**q)
            lo.append(float(10**q - int(h)))
        else:
            d = 10**-q
            h = 1 / d
            a, b = h.as_integer_ratio()
            lo.append((b - a * d) / (b * d))
        hi.append(h)
    hi = np.array(hi)
    return np.stack([hi, *_split(hi), np.array(lo)])


@lru_cache(maxsize=1)
def _text_tables() -> tuple[np.ndarray, ...]:
    """(4-digit groups as 4-byte words, word 0 per first digit, exponent word
    per k (all FF in fixed notation, where a separator may take its place),
    layout offset per k, digit-count offset per 16-bit mask of nonzero
    digits 2-17), indexed as _text17 uses them."""
    quads = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    leads = np.full((10, 8), 0xFF)
    leads[:, 7] = np.arange(10) + ord("0")
    ks = range(TEXT_K_MIN - 1, TEXT_K_MAX + 2)
    exps = b"".join([b"\xff" * 8 if -4 <= k <= 16 else ("e%+03d" % k).ljust(8, "\0").encode() for k in ks])
    layout = np.array([(k + 4 if -4 <= k <= 16 else _LAYOUTS - 1) * 34 for k in ks])
    # twice the mask's bit length, the digit count's offset in the row index
    count = np.repeat(np.arange(0, 34, 2, dtype=np.uint8), [1] + [1 << b for b in range(16)])
    return (quads.astype(np.uint8, order="C").view(np.uint32).ravel(), leads.astype(np.uint8).view(np.uint64).ravel(),
            np.frombuffer(exps, np.uint64), layout, count)


@lru_cache(maxsize=1)
def _row_bases() -> tuple[np.ndarray, np.ndarray]:
    """(rows, separator column of each row): one row per (layout, digit count
    s, sign), then a fallback row, holding the fixed bytes where kept, FF
    where a digit or exponent byte is kept and 0 where dropped.  The fallback
    row holds a 1 in place of the text.  A separator goes right after the
    text where the text ends at a word the digits leave free, as a 17-digit
    text does in fixed notation, so the row's bytes stay one run."""
    rows = np.zeros((_LAYOUTS * 17 * 2 + 1, _SEP), dtype=np.uint8)
    sep_at = np.full(len(rows), _SEP)
    rows[-1, 0] = 1
    for layout in range(_LAYOUTS):
        k = layout - 4
        for s in range(1, 18):
            i = (layout * 17 + s - 1) * 2
            r = rows[i]
            first = _LEAD
            if layout == _LAYOUTS - 1:
                r[_LEAD] = 0xFF
                if s > 1:
                    r[_POINT] = ord(".")
                    r[_FRAC:_FRAC + s - 1] = 0xFF
                r[_EXP:_SEP] = 0xFF
            elif k < 0:
                first = _LEAD + k - 1
                r[first:_LEAD] = np.frombuffer(b"0.000"[:1 - k], np.uint8)
                r[_LEAD:_LEAD + s] = 0xFF
                if s == 17:
                    sep_at[i:i + 2] = _WORD3
            else:
                r[_LEAD:_LEAD + k + 1] = 0xFF
                if s > k + 1:
                    r[_POINT] = ord(".")
                    r[_FRAC + k:_FRAC + s - 1] = 0xFF
                    if s == 17:
                        sep_at[i:i + 2] = _EXP  # the exponent word holds FF in fixed notation
            rows[i + 1] = r
            rows[i + 1, first - 1] = ord("-")
    return rows, sep_at


@lru_cache(maxsize=16)
def _row_templates(sep: str) -> np.ndarray:
    """The rows of _row_bases with sep in place, each as one void scalar."""
    bases, sep_at = _row_bases()
    width = -(-(_SEP + len(sep)) // 8) * 8
    rows = np.zeros((len(bases), width), dtype=np.uint8)
    rows[:, :_SEP] = bases
    sep_at = np.where((sep_at == _WORD3) & (len(sep) > 8), _SEP, sep_at)
    rows[np.arange(len(rows))[:, None], sep_at[:, None] + np.arange(len(sep))] = np.frombuffer(sep.encode(), np.uint8)
    return rows.view("V%d" % width).ravel()


def _round17(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """(N, low, high, unsure) for y = ax 10**(16-k): N = y rounded to an
    integer, low where y < 10**16 and high where N >= 10**17 (k one too large
    or too small, or a carry into 10**17), unsure where the computed
    fractional part of y lies within _HALF_BAND of 1/2.

    p + e = ax H exactly (Dekker's product), so y = p + lo + err with lo the
    computed e + ax L.  Since p < 2**57, |e| <= 8 and |ax L| <= 16, each of the
    three roundings behind lo + 1/2 errs by at most 2**-48, and the tail of
    10**q beyond H + L adds at most 2**57 2**-106 = 2**-49: |err| < 2**-46.
    Only +, -, * and floor are used, which are correctly rounded on every host."""
    h, h_hi, h_lo, low_part = _power_table().take(TEXT_K_MAX - k, axis=1, mode="clip")
    a_hi, a_lo = _split(ax)
    p = ax * h
    lo = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo + ax * low_part
    v = lo + 0.5
    n = np.floor(v)
    unsure = np.abs(v - n - 0.5) >= 0.5 - _HALF_BAND
    return p.astype(np.int64) + n.astype(np.int64), lo < 1e16 - p, v >= 1e17 - p, unsure


def _text17(values: np.ndarray, sep: str = "\n", null: str | None = None) -> str:
    """``%.17g`` text of every entry of a 1-D float array, joined by ``sep``;
    non-finite entries print as ``null`` when it is given.  Equal byte for
    byte to ``sep.join(format(v, ".17g") for v in values)`` on every host:
    the guess of k from np.log10, whose last bit varies with the SIMD level,
    is checked exactly and corrected, and no text is formed per entry."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    n = x.size
    if not n:
        return ""
    quads, leads, exps, layout_of, count_of = _text_tables()
    rows = _row_templates(sep)
    ax = np.abs(x)
    fast = (ax >= 10.0**TEXT_K_MIN) & (ax < 10.0**TEXT_K_MAX)  # False for 0, NaN, inf, subnormals
    ax[~fast] = 1.0
    k = np.floor(np.log10(ax)).astype(np.intp)
    N, low, high, unsure = _round17(ax, k)
    wrong = np.flatnonzero(low | high)
    if wrong.size:
        k[wrong] += high[wrong].astype(np.intp) - low[wrong]
        N[wrong], low, high, unsure[wrong] = _round17(ax[wrong], k[wrong])
        unsure[wrong] |= low | high
    fast &= ~unsure
    # digits 2-17 as four 4-digit groups, from N's two 8-digit halves
    halves = np.empty((n, 2), dtype=np.int64)
    np.floor_divide(N, 10**8, out=halves[:, 0])
    np.subtract(N, halves[:, 0] * 10**8, out=halves[:, 1])
    first = halves[:, 0] // 10**8
    halves[:, 0] -= first * 10**8
    groups = halves // 10**4
    digits = quads.take(np.stack([groups, halves - groups * 10**4], axis=2), mode="clip").reshape(n, 4)
    nonzero = np.packbits(digits.view(np.uint8).ravel() != ord("0"), bitorder="little").view(np.uint16)
    case = layout_of.take(k - (TEXT_K_MIN - 1), mode="clip") + count_of.take(nonzero) + np.signbit(x)
    case[~fast] = len(rows) - 1
    text = rows.take(case).view(np.uint8).reshape(n, -1)
    cells, pairs = text.view(np.uint64), digits.view(np.uint64)
    cells[:, 0] &= leads.take(first, mode="clip")
    for j in range(2):
        cells[:, 1 + j] &= pairs[:, j]
        cells[:, _FRAC // 8 + j] &= pairs[:, j]
    cells[:, _EXP // 8] &= exps.take(k - (TEXT_K_MIN - 1), mode="clip")
    flat = text.ravel()
    kept = flat[flat != 0]
    joined = kept[:kept.size - len(sep)].tobytes().decode("ascii")  # no separator after the last
    if fast.all():
        return joined
    parts = joined.split("\1")
    pieces = [parts[0]]
    for v, part in zip(x[~fast].tolist(), parts[1:]):
        pieces += [null if null is not None and not math.isfinite(v) else "%.17g" % v, part]
    return "".join(pieces)


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


def step_products(rows: Iterable[np.ndarray]) -> np.ndarray:
    """Rank-ordered table of prod_t rows[t-1][digit t], one row of factors per
    step: T outer products in step order, so every entry is formed as
    w_T * (... * (w_1 * 1.0)).  Only elementwise IEEE multiplies touch it, and
    its bits are the same on every host and SIMD level.

    One buffer of B^T entries holds every level: the table of steps 1..t
    lies in its last B^t entries, and step t + 1 writes the blocks of digits
    0..B-2 in front of it before it scales the table itself as the block of
    digit B-1."""
    rows = [np.asarray(row, dtype=np.float64) for row in rows]
    base = len(rows[0]) if rows else 1
    table = np.empty(base ** len(rows))
    table[-1:] = 1.0
    size = 1
    for row in rows:
        level = table[table.size - size * base :].reshape(base, size)
        for digit in range(base - 1):
            np.multiply(row[digit], level[-1], out=level[digit])
        level[-1] *= row[-1]
        size *= base
    return table


@lru_cache(maxsize=64)
def probability_table(params: ModelParams) -> np.ndarray:
    """Probabilities of all configurations in rank order, shared and read-only:
    the step-order products of the step weights, built without a digit table."""
    _refuse_oversized(params)
    probabilities = step_products([step_weights(params)] * params.horizon)
    probabilities.flags.writeable = False
    return probabilities


def _rank_powers(params: ModelParams) -> np.ndarray:
    """Place values B^(t-1) of digits t = 1..T in the rank, as int64."""
    return (params.n_marks + 1) ** np.arange(params.horizon, dtype=np.int64)


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

    All arrays are immutable after construction and no state is kept
    besides them; the instance is shared through :func:`space` and safe for
    concurrent reads.
    """

    def __init__(self, params: ModelParams):
        _refuse_oversized(params)  # a cached probability table skips the builder's own check
        self.params = params
        self.base = params.n_marks + 1
        self.n = count = params.n_configurations
        T, B = params.horizon, self.base
        self.powers = _rank_powers(params)
        self.digits = np.empty((count, T), dtype=np.int8)
        for t in range(T):  # digit t + 1 of rank (a * B + d) * B^t + c is d
            self.digits.reshape(count // B ** (t + 1), B, B**t, T)[..., t] = np.arange(B, dtype=np.int8)[:, None]
        self.step_weights = step_weights(params)
        self.probabilities = probability_table(params)
        for arr in (self.powers, self.digits, self.step_weights):
            arr.flags.writeable = False

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

        F_t atoms share digits 1..t, i.e. the rank residue mod base^t.  The
        steps are independent, so given F_t the digits t+1..T follow their
        own product law: each atom's value is the mean of F over them.
        """
        if not 0 <= t <= self.params.horizon:
            raise ValueError(f"time {t} out of range 0..{self.params.horizon}")
        tail = step_products([self.step_weights] * (self.params.horizon - t))
        grid = np.asarray(values, dtype=float).reshape(len(tail), -1)
        # one contiguous row per atom, which numpy sums pairwise, not term by term
        atom_mean = np.multiply(grid.T, tail, order="C").sum(axis=1)
        return np.tile(atom_mean, len(tail))

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
    """A real functional of configurations: its exact table, one read-only
    value per configuration in rank order."""

    def __init__(self, params: ModelParams, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (params.n_configurations,):
            raise ValueError(
                f"exact table must have length {params.n_configurations}, got {values.shape}"
            )
        values = values.copy()
        values.flags.writeable = False
        self.params = params
        self.values = values

    @classmethod
    def constant(cls, params: ModelParams, c: float) -> "PathFunctional":
        return cls(params, values=np.full(params.n_configurations, float(c)))

    def table(self) -> np.ndarray:
        return self.values

    def __call__(self, config: Configuration) -> float:
        return float(self.values[config.rank])

    def __mul__(self, other):
        if isinstance(other, PathFunctional):
            other = other.values
        return PathFunctional(self.params, values=self.values * other)

    __rmul__ = __mul__


# -- spec-level operations ----------------------------------------------------

def enumerate_configurations(params: ModelParams) -> list[Configuration]:
    """All configurations in rank order; count = (1+m)^T (cap enforced)."""
    sp = space(params)
    return [Configuration(tuple(row), params) for row in sp.digits.tolist()]


def config_probability(params: ModelParams, config: Configuration) -> float:
    """Product over steps of (1 - lambda) or lambda * Q(mark), multiplied in
    step order as ``probability_table`` is, so it has the bits of its entry
    there; no sample space is built."""
    if config.params != params:
        raise ValueError("configuration belongs to different params")
    weights, prob = step_weights(params).tolist(), 1.0
    for d in config.digits:
        prob = weights[d] * prob
    return prob


# -- Monte Carlo: SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) as a counter-based
# stream (Salmon et al., SC 2011) ------------------------------------------------------

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the counter step: odd, 2^64 over the golden ratio
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

# Draws formed per pass: a fill's integer temporaries are a few blocks.
DRAW_BLOCK = 1 << 13
# Draws counted per pass of fill_digits, whose temporaries are 25 bytes a draw:
# longer passes than a fill's, since each pass costs a dozen numpy calls.
DIGIT_BLOCK = 1 << 16


def _mix64(z: int) -> int:
    """SplitMix64's finalizer of one 64-bit word."""
    z = ((z ^ (z >> 30)) * _MIX[0]) & _MASK
    z = ((z ^ (z >> 27)) * _MIX[1]) & _MASK
    return z ^ (z >> 31)


def stream_key(seed: int, name: str) -> int:
    """Key of the stream named ``name`` under ``seed``: the seed (mod 2^64),
    then each UTF-8 byte of the name, folded through the finalizer."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    key = _mix64((seed + _GAMMA) & _MASK)
    for byte in name.encode():
        key = _mix64((key + (byte + 1) * _GAMMA) & _MASK)
    return key


class UniformStream:
    """Draw i is SplitMix64's i-th output from ``key``,
    z_i = mix64(key + (i + 1) * gamma mod 2^64), read through its top 53
    bits: as a signed integer s they give the float s * 2^-52, uniform on
    [-1, 1) (:meth:`fill`); as an unsigned integer u, the point u * 2^-53,
    uniform on [0, 1) (:meth:`fill_digits`).  Integer arithmetic and exact
    conversions only, so the bits are the same on every host, and a block of
    draws is formed without the draws before it."""

    def __init__(self, key: int):
        self.key = key
        self.position = 0  # index of the next draw

    def _outputs(self, z: np.ndarray, scratch: np.ndarray, steps: np.ndarray, start: int) -> np.ndarray:
        """Write outputs position + start, ... of the stream into the uint64
        array z, with ``scratch`` (uint64, as long as z) for the shifts;
        ``steps`` holds (i + 1) * gamma mod 2^64 for i = 0, 1, ..."""
        np.add(steps[: len(z)], np.uint64((self.key + (self.position + start) * _GAMMA) & _MASK), out=z)
        for shift, factor in zip((30, 27), _MIX):
            np.right_shift(z, shift, out=scratch)
            z ^= scratch
            z *= np.uint64(factor)
        np.right_shift(z, 31, out=scratch)
        z ^= scratch
        return z

    @staticmethod
    def _steps(size: int) -> np.ndarray:
        steps = np.arange(1, size + 1, dtype=np.uint64)
        steps *= np.uint64(_GAMMA)
        return steps

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write the next ``out.size`` draws on [-1, 1) into ``out`` in its
        memory order, ``DRAW_BLOCK`` at a time."""
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("a stream fills a C-contiguous float64 array")
        flat = out.reshape(-1)
        steps = self._steps(min(DRAW_BLOCK, flat.size))
        z = np.empty_like(steps)
        for start in range(0, flat.size, DRAW_BLOCK):
            dest = flat[start : start + DRAW_BLOCK]
            # the destination is the shift scratch
            top = self._outputs(z[: len(dest)], dest.view(np.uint64), steps, start).view(np.int64)
            np.right_shift(top, 11, out=top)  # arithmetic shift: the top 53 bits, signed
            np.copyto(dest, top)  # exact below 2^53, and with no cast buffer
            dest *= 2.0 ** -52
        self.position += flat.size
        return out

    def draw(self, shape: int | tuple[int, ...]) -> np.ndarray:
        return self.fill(np.empty(shape))

    def fill_digits(self, out: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Write into the int8 or uint8 array ``out``, in its memory order, the
        number of ``edges`` at or below each of the next ``out.size`` draws on
        [0, 1), ``DIGIT_BLOCK`` at a time.  u * 2^-53 >= e exactly when
        u >= c = ceil(e * 2^53), whose scaling and ceiling are exact, and the
        raw output z = u * 2^11 + (its low 11 bits) reaches c * 2^11 exactly
        then; an edge at or above 1 (c >= 2^53) counts no draw.  So each count
        is exact, and no float and no shifted word is formed per draw."""
        if out.dtype not in (np.int8, np.uint8) or not out.flags.c_contiguous:
            raise ValueError("digits fill a C-contiguous int8 or uint8 array")
        scaled = np.ceil(np.asarray(edges, dtype=np.float64) * 2.0**53)
        thresholds = scaled[scaled < 2.0**53].astype(np.uint64) << np.uint64(11)
        flat = out.reshape(-1)
        if not thresholds.size:
            flat.fill(0)
        else:
            steps = self._steps(min(DIGIT_BLOCK, flat.size))
            z, scratch, hit = np.empty_like(steps), np.empty_like(steps), np.empty(steps.shape, dtype=bool)
            for start in range(0, flat.size, DIGIT_BLOCK):
                dest = flat[start : start + DIGIT_BLOCK]
                count = len(dest)
                top = self._outputs(z[:count], scratch[:count], steps, start)
                # a flag is one byte, 0 or 1: written through a bool view, added as out's type
                np.greater_equal(top, thresholds[0], out=dest.view(bool))
                for threshold in thresholds[1:]:
                    dest += np.greater_equal(top, threshold, out=hit[:count]).view(out.dtype)
        self.position += flat.size
        return out


def rng_stream(params: ModelParams, stream_index: int = 0) -> UniformStream:
    """Monte Carlo stream ``stream_index`` of ``params``: a counter stream
    keyed by (rng_seed, stream index) under a name that no identity check
    carries, so runs are reproducible on every host and regardless of
    scheduling."""
    if stream_index < 0:
        raise ValueError(f"stream index must be non-negative, got {stream_index}")
    return UniformStream(stream_key(params.rng_seed, f"sample stream {stream_index}"))


def _digit_edges(params: ModelParams) -> np.ndarray:
    """The edges a draw is counted against to give its digit (see ``sample_digits``)."""
    return np.cumsum(step_weights(params))[:-1]


def sample_digits(params: ModelParams, n_paths: int, stream: int | UniformStream = 0) -> np.ndarray:
    """Draw n_paths digit vectors (shape (n_paths, T)) from the model: digit
    d of a step is the number of step-weight CDF edges w_0, w_0 + w_1, ...,
    w_0 + ... + w_(m-1) at or below its draw.  Path i takes draws
    i*T, ..., i*T + T - 1 of the stream (counted from its position), so the
    first k of n paths are the k paths of the same stream, and a stream
    passed in again continues where it stopped."""
    if n_paths < 0:
        raise ValueError(f"number of paths must be non-negative, got {n_paths}")
    if not isinstance(stream, UniformStream):
        stream = rng_stream(params, stream)
    return stream.fill_digits(np.empty((n_paths, params.horizon), dtype=np.int8), _digit_edges(params))


def sample_path(params: ModelParams, stream: int | UniformStream = 0) -> Configuration:
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


def mc_expectation(params: ModelParams, fn: Callable[[np.ndarray], np.ndarray], n_samples: int,
                   stream: int | UniformStream = 0) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a functional given as ``fn``, a
    function of a batch of digit rows: it is called once, on the
    (n_samples, T) int8 batch of ``sample_digits``, and must return one value
    per path."""
    vals = np.asarray(fn(sample_digits(params, n_samples, stream)), dtype=float)
    if vals.shape != (n_samples,):
        raise ValueError(f"fn must return one value per path, shape ({n_samples},), got {vals.shape}")
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
