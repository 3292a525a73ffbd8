"""Operation lists of the benchmark workloads, their seeded inputs and output checks.

Every operation is either one `mbp` call (``argv``) or the calculus library
session (``session``).  The workload seed decides every random input: the
`verify --seed` values, the indicator ranks and the session's functional
values.  The program only ever sees the generated arguments.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

# Model sizes of the full benchmark.  No single operation takes more than
# ~7 s, so a run of ``--seconds`` repeats each one several times and its
# median is steady on a shared host.  Tests pass TINY to run the same
# operation lists on models small enough for a unit test.
FULL = {
    "verify_T": 8,       # 6,561 configurations, ~3 s suite; T=9 takes ~18 s, T=10 ~135 s
    "calculus_T": 11,    # 177,147 configurations; one ProcessTable 31 MB
    "integral_T": 10,    # multiple_integral of order 3 on 960 supports
    "mehler_T": 9,
    "mehler_samples": 50,
    "hedge_T": (7, 11),  # the LS oracle runs only at T <= 8
    "cli_repeats": 1,
    "indicator_jumps_per_mark": 2,  # 4 jumps out of 11 steps; ~1.5 s of decompose
}
TINY = {
    "verify_T": 3,
    "calculus_T": 4,
    "integral_T": 4,
    "mehler_T": 3,
    "mehler_samples": 5,
    "hedge_T": (3, 4),
    "cli_repeats": 1,
    "indicator_jumps_per_mark": 1,
}

WORKLOADS = {
    "verify": "the identity suite on both reference instances and on T=8: diagnostics, chaos and malliavin dominate",
    "calculus": "a T=11 library session plus an indicator decompose: chaos analysis and synthesis dominate, hedging idle",
    "hedge": "hedging at T=7 with the least-squares oracle and at T=11 with a 4.8 MB JSON emit",
    "cli": "short calls on small models, so interpreter start and import dominate and the Stein layer runs",
}

BINARY = {"marks": (1.0, -1.0), "lambda": 0.4, "Q": (0.5, 0.5)}
REF3 = {"T": 3, "marks": (1.0, -1.0), "lambda": 0.5, "Q": (0.5, 0.5)}
REF5 = {"T": 5, "marks": (1.0, 2.0, 3.0), "lambda": 0.3, "Q": (0.5, 0.3, 0.2)}
MARKET = {"a": -0.1, "b": 0.2, "r": 0.025, "lambda": 0.5, "p": 0.5, "x": 1.0}
HEADRUN = {"n": 10, "m": 2, "p": 0.5}
DNA = {"n": 50, "h": 5, "alpha": 0.2, "mu": 0.02}


@dataclass
class Op:
    """One operation: an `mbp` call or the library session."""

    name: str
    configurations: int
    argv: list[str] | None = None
    check: Callable[[str], None] | None = None  # raises CheckError on wrong output
    session: dict = field(default_factory=dict)


class CheckError(Exception):
    """An operation's output is wrong."""


def configurations(model: dict) -> int:
    return (len(model["marks"]) + 1) ** model["T"]


def model_flags(model: dict) -> list[str]:
    return ["--T", str(model["T"]), "--marks", ",".join(f"{k:g}" for k in model["marks"]),
            "--lambda", repr(model["lambda"]), "--Q", ",".join(repr(q) for q in model["Q"])]


def market_flags(T: int) -> list[str]:
    m = MARKET
    return ["--a", repr(m["a"]), "--b", repr(m["b"]), "--r", repr(m["r"]), "--lambda", repr(m["lambda"]),
            "--p", repr(m["p"]), "--T", str(T), "--x", repr(m["x"])]


def config_probability(model: dict, rank: int) -> float:
    """Exact probability of the configuration with this rank (digit 0 = no jump)."""
    weights = [1.0 - model["lambda"]] + [model["lambda"] * q for q in model["Q"]]
    base = len(weights)
    prob = 1.0
    for _ in range(model["T"]):
        rank, digit = divmod(rank, base)
        prob *= weights[digit]
    return prob


def indicator_rank(rng: random.Random, model: dict, jumps_per_mark: int) -> int:
    """Rank of a configuration with ``jumps_per_mark`` jumps of each mark, at times drawn from ``rng``.

    The cost and output size of decomposing an indicator depend on how many
    jumps of each mark its configuration has, but not on when they happen, so
    every seed decomposes the same amount of work.
    """
    m = len(model["marks"])
    digits = [d for d in range(1, m + 1) for _ in range(jumps_per_mark)]
    digits += [0] * (model["T"] - len(digits))
    rng.shuffle(digits)
    return sum(d * (m + 1) ** t for t, d in enumerate(digits))


def _payload(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_verify(stdout: str) -> None:
    payload = _payload(stdout)
    failing = [name for name, c in payload["checks"].items() if not c["passed"]]
    _require(payload["all_passed"] and not failing, f"identities violated: {failing}")


def check_hedge(T: int) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        payload = _payload(stdout)
        sfr = payload["self_financing_residual"]
        _require(sfr <= 1e-12, f"self_financing_residual {sfr:.3e} > 1e-12")
        if T <= 8:
            gap = payload.get("residual_gap")
            _require(gap is not None and gap <= 1e-9, f"residual_gap {gap} > 1e-9")
    return check


def check_indicator_decompose(model: dict, rank: int) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        lines = stdout.splitlines()
        _require(len(lines) >= 2 and lines[0] == "order,support,value", "bad CSV header")
        order, support, value = lines[1].split(",")
        _require(order == "0" and support == "", f"first row is not order 0: {lines[1]!r}")
        exact = config_probability(model, rank)
        _require(_close(float(value), exact, 1e-12), f"order-0 value {value} != P(rank {rank}) = {exact!r}")
    return check


def check_stein(lam0: float) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        payload = _payload(stdout)
        tv = payload["exact_tv"]
        _require(tv is not None and 0.0 <= tv <= 1.0, f"exact_tv {tv} outside [0, 1]")
        _require(_close(payload["lambda0"], lam0, 1e-12), f"lambda0 {payload['lambda0']!r} != {lam0!r}")
    return check


def check_girsanov(stdout: str) -> None:
    payload = _payload(stdout)
    _require(abs(payload["density_mean"] - 1.0) <= 1e-12, f"density_mean {payload['density_mean']!r} != 1")
    _require(payload["factorization_rel_residual"] <= 1e-12, "factorization residual > 1e-12")


def check_simulate(model: dict, paths: int) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        lines = stdout.splitlines()
        _require(lines[0] == "path,digits" and len(lines) == paths + 1, "bad simulate CSV shape")
        digits = set("0123456789"[: len(model["marks"]) + 1])
        for i, line in enumerate(lines[1:]):
            idx, path = line.split(",")
            _require(int(idx) == i and len(path) == model["T"] and set(path) <= digits, f"bad row {line!r}")
    return check


def check_version(stdout: str) -> None:
    _require(stdout.startswith("mbp "), f"unexpected version line {stdout!r}")


def operations(workload: str, seed: int, sizes: dict = FULL) -> list[Op]:
    """The fixed operation list of one workload, with inputs drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")

    def draw_seed() -> str:
        return str(rng.randrange(2**31))

    if workload == "verify":
        big = dict(BINARY, T=sizes["verify_T"])
        return [Op(f"verify T={m['T']}", configurations(m),
                   ["verify", *model_flags(m), "--seed", draw_seed()], check_verify)
                for m in (REF3, REF5, big)]
    if workload == "calculus":
        model = dict(BINARY, T=sizes["calculus_T"])
        session = {
            "seed": rng.randrange(2**31),
            "T": sizes["calculus_T"],
            "integral_T": sizes["integral_T"],
            "mehler_T": sizes["mehler_T"],
            "mehler_samples": sizes["mehler_samples"],
        }
        rank = indicator_rank(rng, model, sizes["indicator_jumps_per_mark"])
        return [
            Op(f"session T={model['T']}", configurations(model), session=session),
            Op(f"decompose T={model['T']}", configurations(model),
               ["decompose", *model_flags(model), "--functional", f"indicator={rank}", "--format", "csv",
                "--seed", draw_seed()],
               check_indicator_decompose(model, rank)),
        ]
    if workload == "hedge":
        return [Op(f"hedge T={T}", 3**T,
                   ["hedge", *market_flags(T), "--claim", "call:K=1.05", "--seed", draw_seed()], check_hedge(T))
                for T in sizes["hedge_T"]]
    if workload == "cli":
        ops = []
        for _ in range(sizes["cli_repeats"]):
            rank = indicator_rank(rng, REF3, 1)
            hr, dna = HEADRUN, DNA
            ops += [
                Op("stein headrun", 2 ** (hr["n"] + hr["m"] - 1),
                   ["stein", "headrun", "--n", str(hr["n"]), "--m", str(hr["m"]), "--p", repr(hr["p"]),
                    "--seed", draw_seed()],
                   check_stein(hr["p"] ** hr["m"] * ((hr["n"] - 1) * (1.0 - hr["p"]) + 1.0))),
                Op("stein dna", 0,
                   ["stein", "dna", "--n", str(dna["n"]), "--h", str(dna["h"]), "--alpha", repr(dna["alpha"]),
                    "--mu", repr(dna["mu"]), "--seed", draw_seed()],
                   check_stein((dna["n"] - dna["h"] + 1) * (1.0 - dna["alpha"]) * dna["mu"])),
                Op("girsanov T=3", configurations(REF3),
                   ["girsanov", *model_flags(REF3), "--lambda-target", "0.5", "--Q-target", "0.75,0.25",
                    "--seed", draw_seed()],
                   check_girsanov),
                Op("simulate T=3", configurations(REF3),
                   ["simulate", *model_flags(REF3), "--paths", "100", "--format", "csv", "--seed", draw_seed()],
                   check_simulate(REF3, 100)),
                Op("decompose T=3", configurations(REF3),
                   ["decompose", *model_flags(REF3), "--functional", f"indicator={rank}", "--format", "csv",
                    "--seed", draw_seed()],
                   check_indicator_decompose(REF3, rank)),
                Op("hedge T=3", 27,
                   ["hedge", *market_flags(3), "--claim", "call:K=1.05", "--seed", draw_seed()], check_hedge(3)),
                Op("version", 0, ["--version"], check_version),
            ]
        return ops
    raise ValueError(f"unknown workload {workload!r} (use one of {', '.join(WORKLOADS)})")


def setup_model(workload: str, sizes: dict = FULL) -> dict:
    """The workload's largest model, whose tables set-up builds."""
    if workload == "hedge":
        return {"market": dict(MARKET, T=max(sizes["hedge_T"]))}
    if workload == "cli":
        hr = HEADRUN
        return {"model": {"T": hr["n"] + hr["m"] - 1, "marks": (1.0,), "lambda": hr["p"], "Q": (1.0,)}}
    T = sizes["verify_T"] if workload == "verify" else sizes["calculus_T"]
    return {"model": dict(BINARY, T=T)}


def expected_calls(op: Op) -> int:
    """Checked calls an operation stands for (the session makes several)."""
    if op.argv is not None:
        return 1
    from session import CALLS

    return len(CALLS)


def check_output(op: Op, stdout: str) -> str | None:
    """None when the output passes the operation's check, else the reason."""
    try:
        op.check(stdout)
    except CheckError as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None

