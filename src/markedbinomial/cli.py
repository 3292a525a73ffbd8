"""Command-line front door: simulate / decompose / stein / hedge / girsanov / verify.

JSON is the machine interface (floats rendered with 17 significant
digits, seed echoed back, timestamps suppressible for byte-stable
comparisons); CSV is used for tables only.  Exit codes: 0 success,
1 verify found a violated identity, 2 any other failure (bad input,
unreadable or unwritable file, resource limit), reported as one
``error:`` line on stderr.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
import warnings
from collections.abc import Iterable, Iterator

from . import __version__

# numpy and the engine modules are imported by the functions that use them,
# so `--version`, `--help` and usage errors are answered before numpy loads.


def _float17(v) -> str:
    return format(float(v), ".17g") if math.isfinite(v) else "null"


# Floats formatted per call when a float array is rendered: the output is
# written piece by piece, so emitting a large payload never holds more than
# one such piece (and its formatting temporaries) besides the payload itself.
FLOAT_CHUNK = 2048


def _floats17(values: np.ndarray, pad: str) -> Iterator[str]:
    """The elements of a flat float array (see ``_json17``), one piece per
    chunk; non-finite entries render null."""
    from .space import _text17

    sep = f",\n{pad}"
    for start in range(0, values.size, FLOAT_CHUNK):
        if start:
            yield sep
        yield _text17(values[start:start + FLOAT_CHUNK], sep, null="null")


# Integers formatted per piece when integer rows are rendered.
INT_CHUNK = 1 << 16


class IntRows:
    """A list of integer rows of one length, given as consecutive 2-D blocks
    of rows, or, for rows too long to hold whole, as one iterable of
    consecutive 1-D pieces per row.  It renders its own elements (see
    ``_json17``) as the same list of lists, one ``%`` template per block or
    piece with a ``%d`` per entry, so the rows are never held together."""

    def __init__(self, blocks: Iterable[np.ndarray]):
        self.blocks = blocks

    def __call__(self, pad: str) -> Iterator[str]:
        import numpy as np

        sep, entry = f",\n{pad}", f"\n{pad}  %d"
        lead = ""
        for block in self.blocks:
            if not isinstance(block, np.ndarray):  # one row, piece by piece
                yield lead + "["
                for i, piece in enumerate(block):
                    yield ("," if i else "") + ",".join([entry] * len(piece)) % tuple(piece.tolist())
                yield f"\n{pad}]"
                lead = sep
            elif len(block):
                row = "[" + ",".join([entry] * block.shape[1]) + f"\n{pad}]"
                yield lead + sep.join([row] * len(block)) % tuple(block.ravel().tolist())
                lead = sep


def _json17(obj, indent: int = 0) -> Iterator[str]:
    """The pieces of ``dumps17(obj, indent)``, in order.  A callable is a list
    that renders its own elements: given their indent, it yields their text
    joined by ``",\\n"`` and that indent, in pieces (none if it is empty)."""
    import numpy as np

    pad = "  " * indent
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        obj = functools.partial(_floats17, obj)
    if callable(obj):
        opener = f"[\n{pad}  "
        for piece in obj(f"{pad}  "):
            yield opener + piece
            opener = ""
        yield "[]" if opener else f"\n{pad}]"
        return
    if isinstance(obj, dict):
        opener = "{\n"
        for k, v in obj.items():
            yield f"{opener}{pad}  {json.dumps(str(k))}: "
            yield from _json17(v, indent + 1)
            opener = ",\n"
        yield "{}" if opener == "{\n" else f"\n{pad}}}"
        return
    if isinstance(obj, (list, tuple, np.ndarray)):
        opener = "[\n"
        for v in obj:
            yield f"{opener}{pad}  "
            yield from _json17(v, indent + 1)
            opener = ",\n"
        yield "[]" if opener == "[\n" else f"\n{pad}]"
        return
    if isinstance(obj, bool) or obj is None:
        yield json.dumps(obj)
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield _float17(obj)
    else:
        yield json.dumps(obj)


def dumps17(obj, indent: int = 0) -> str:
    """JSON text with all floats at 17 significant digits."""
    return "".join(_json17(obj, indent))


def _write(args, pieces: Iterable[str]) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit(args, payload: dict) -> None:
    payload = dict(payload)
    payload["seed"] = args.seed
    if not args.no_timestamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    _write(args, itertools.chain(_json17(payload), ["\n"]))


def _model_params(args) -> ModelParams:
    from .space import ModelParams

    given = [flag for flag, val in (("--T", args.T), ("--marks", args.marks),
                                    ("--lambda", args.lam), ("--Q", args.Q)) if val is not None]
    if getattr(args, "config", None):
        if given:
            raise ValueError(f"{', '.join(given)} cannot be combined with --config, which sets the model")
        params = ModelParams.from_file(args.config)
        if args.seed is not None:
            params = ModelParams(params.horizon, params.marks, params.jump_prob,
                                 params.mark_probs, args.seed)
        else:
            args.seed = params.rng_seed
        return params
    missing = [flag for flag in ("--T", "--marks", "--lambda", "--Q") if flag not in given]
    if missing:
        raise ValueError(f"missing required flags: {', '.join(missing)} (or use --config)")
    if args.seed is None:
        args.seed = 0
    return ModelParams(
        horizon=args.T,
        marks=tuple(float(x) for x in args.marks.split(",")),
        jump_prob=args.lam,
        mark_probs=tuple(float(x) for x in args.Q.split(",")),
        rng_seed=args.seed,
    )


def _add_model_flags(sub) -> None:
    sub.add_argument("--T", type=int, help="horizon")
    sub.add_argument("--marks", type=str, help="comma separated mark values")
    sub.add_argument("--lambda", dest="lam", type=float, help="jump probability")
    sub.add_argument("--Q", type=str, help="comma separated mark probabilities")
    sub.add_argument("--config", type=str, help="key=value parameter file")


def _add_common_flags(sub) -> None:
    sub.add_argument("--seed", type=int, default=None, help="seed echoed into the output")
    sub.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    sub.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")


def _csv_paths(blocks: Iterable[np.ndarray], n_marks: int) -> Iterator[str]:
    """``simulate``'s CSV rows ``path,digits``, a block of paths per piece.
    Below 10 marks each digit is one character, written by a byte template;
    from 10 marks on a digit can take two or three, so they are joined by
    spaces.  A row given as pieces (see ``IntRows``) is written piece by
    piece."""
    import numpy as np

    first = 0
    for digits in blocks:
        if not isinstance(digits, np.ndarray):  # one row, piece by piece
            yield f"{first},"
            for i, piece in enumerate(digits):
                if n_marks < 10:
                    yield (piece + ord("0")).tobytes().decode("ascii")
                else:
                    yield (" " if i else "") + " ".join(map(str, piece.tolist()))
            yield "\n"
            first += 1
            continue
        if n_marks < 10:
            text = np.empty((len(digits), digits.shape[1] + 1), dtype=np.uint8)
            text[:, -1] = ord("\n")
            text[:, :-1] = digits
            text[:, :-1] += ord("0")
            rows = text.tobytes().decode("ascii").splitlines()
        else:
            template = " ".join(["%d"] * digits.shape[1]) + "\n"
            rows = (template * len(digits) % tuple(digits.ravel().tolist())).splitlines()
        yield "".join([f"{i},{row}\n" for i, row in enumerate(rows, start=first)])
        first += len(rows)


def cmd_simulate(args) -> int:
    import numpy as np

    from .space import _digit_edges, rng_stream, sample_digits

    params = _model_params(args)
    if args.paths < 0:
        raise ValueError(f"--paths must be non-negative, got {args.paths}")
    stream = rng_stream(params, args.stream)
    # path i is draws i*T .. i*T+T-1 of the stream, so drawing in blocks, or a
    # row in pieces of INT_CHUNK digits, gives the same paths
    T = params.horizon
    if T > INT_CHUNK:
        edges = _digit_edges(params)
        blocks = ((stream.fill_digits(np.empty(min(INT_CHUNK, T - start), dtype=np.int8), edges)
                   for start in range(0, T, INT_CHUNK)) for _ in range(args.paths))
    else:
        per_block = INT_CHUNK // T
        blocks = (sample_digits(params, min(per_block, args.paths - start), stream)
                  for start in range(0, args.paths, per_block))
    if args.format == "csv":
        _write(args, itertools.chain(["path,digits\n"], _csv_paths(blocks, params.n_marks)))
        return 0
    _emit(args, {
        "params": {"T": params.horizon, "marks": list(params.marks),
                   "lambda": params.jump_prob, "Q": list(params.mark_probs)},
        "stream": args.stream,
        "paths": IntRows(blocks),
    })
    return 0


def _named_functional(params: ModelParams, name: str) -> PathFunctional:
    import numpy as np

    from .space import PathFunctional, _refuse_oversized, compound_sum, jump_count

    _refuse_oversized(params)  # no functional builds a sample space, which would refuse
    if name in ("count", "compound"):
        return PathFunctional(params, values=(jump_count if name == "count" else compound_sum)(params))
    if name.startswith("indicator="):
        rank, count = int(name.split("=", 1)[1]), params.n_configurations
        if not 0 <= rank < count:
            raise ValueError(f"indicator rank {rank} outside 0..{count - 1}")
        vals = np.zeros(count)
        vals[rank] = 1.0
        return PathFunctional(params, values=vals)
    raise ValueError(f"unknown functional {name!r} (use count, compound or indicator=<rank>)")


def cmd_decompose(args) -> int:
    from .chaos import stroock_decompose

    params = _model_params(args)
    F = _named_functional(params, args.functional)
    coeffs = stroock_decompose(F)
    if args.format == "csv":
        _write(args, coeffs.csv_pieces())
        return 0

    def rows(pad: str) -> Iterator[str]:
        # a label holds digits, signs, points, 'e', ':' and ';' only, which JSON keeps as they are
        def row(n: int) -> str:
            return f'{{\n{pad}  "order": {n},\n{pad}  "support": "%s%s",\n{pad}  "value": %s\n{pad}}}'
        return coeffs.row_pieces(row, f",\n{pad}", null="null")

    _emit(args, {"functional": args.functional, "mean": coeffs.f0, "coefficients": rows})
    return 0


def cmd_stein_headrun(args) -> int:
    from . import stein as stein_mod
    from .space import enumeration_cap, space

    n, m, p = args.n, args.m, args.p
    lam0 = stein_mod.head_run_lambda0(n, m, p)
    payload = {
        "n": n, "m": m, "p": p,
        "lambda0": lam0,
        "bound": stein_mod.head_run_bound(n, m, p),
        "variance_identity": stein_mod.head_run_variance_identity(n, m, p),
    }
    if stein_mod.head_run_params(n, m, p).n_configurations <= enumeration_cap():
        U = stein_mod.head_run_functional(n, m, p)
        sp = space(U.params)
        mean = sp.expectation(U.table())
        var = sp.expectation(U.table() ** 2) - mean**2
        pmf = stein_mod.functional_pmf(U)
        k_max = max(len(pmf), stein_mod.default_k_max(lam0))
        tv = stein_mod.exact_tv(pmf, stein_mod.poisson_pmf(lam0, k_max))
        payload.update({
            "mean": mean,
            "variance": var,
            "variance_check": abs(var - payload["variance_identity"]),
            "exact_tv": tv,
            "dominated": bool(tv <= payload["bound"]),
        })
    _emit(args, payload)
    return 0


def cmd_stein_dna(args) -> int:
    from . import stein as stein_mod

    n, h, alpha, mu = args.n, args.h, args.alpha, args.mu
    lam0 = stein_mod.dna_lambda0(n, h, alpha, mu)
    target = stein_mod.dna_target(n, h, alpha, mu)
    pmf = stein_mod.dna_functional(n, h, alpha, mu)
    tv = stein_mod.exact_tv(pmf, target.pmf)
    payload = {
        "n": n, "h": h, "alpha": alpha, "mu": mu,
        "lambda0": lam0,
        "d_pc": target.d_pc,
        "bound": stein_mod.dna_bound(n, h, alpha, mu),
        "clump_term": (n - h + 1) * target.d_pc * mu**2,
        "exact_tv": tv,
        "dominated": bool(tv <= (n - h + 1) * target.d_pc * mu**2),
    }
    _emit(args, payload)
    return 0


# `hedge` cross-checks the recursion against `ls_oracle` up to this horizon,
# below the oracle's own cap of 11, so its output at T >= 9 keeps its fields:
# at T=11 the oracle would add about 0.1-0.2 s to a 0.3-0.4 s run (2 CPUs, in process).
HEDGE_ORACLE_MAX_HORIZON = 8


def _parse_claim(market: MarketParams, spec: str) -> PathFunctional:
    from .hedging import _discount, call_payoff, price_paths
    from .space import PathFunctional

    if spec.startswith("call:K="):
        return call_payoff(market, float(spec.split("=", 1)[1]))
    if spec == "discounted_price":  # S~_T = S_T / (1+r)^T
        s_t = price_paths(market).terminal
        return PathFunctional(market.model_params(), values=s_t / _discount(market)[-1])
    raise ValueError(f"unknown claim {spec!r} (use call:K=<strike> or discounted_price)")


def cmd_hedge(args) -> int:
    import numpy as np

    # An overflow would print null or a wrong number: it is an error instead.
    try:
        with np.errstate(over="raise"):
            payload = _hedge_payload(args)
    except FloatingPointError as exc:
        raise OverflowError(f"hedging overflows float64 ({exc}); scale --x and the claim down") from None
    _emit(args, payload)
    return 0


def _hedge_payload(args) -> dict:
    from .hedging import (
        MarketParams,
        ls_oracle,
        martingale_diagnostics,
        minimal_martingale_measure,
        optimal_strategy,
        optimal_strategy_t_conditioning,
    )
    from .space import _distinct

    market = MarketParams(a=args.a, b=args.b, r=args.r, jump_prob=args.lam, up_prob=args.p,
                          horizon=args.T, initial_capital=args.x)
    claim = _parse_claim(market, args.claim)
    strategy, residual = optimal_strategy(market, claim, args.x)
    residual_alt = optimal_strategy_t_conditioning(market, claim, args.x)
    gap, k_table = martingale_diagnostics(market)
    mmm = minimal_martingale_measure(market)
    payload = {
        "market": {"a": market.a, "b": market.b, "r": market.r,
                   "lambda": market.jump_prob, "p": market.up_prob,
                   "T": market.horizon, "x": args.x},
        "claim": args.claim,
        "phi_star": {str(t): phi for t, phi in enumerate(strategy.phi_prefixes, start=1)},
        "alpha": {str(t): alpha for t, alpha in enumerate(strategy.alpha_prefixes)},
        "residual_risk": residual,
        "residual_risk_t_conditioning": residual_alt,
        "theta": {str(t): _distinct(theta) for t, theta in enumerate(mmm.theta_prefixes, start=1)},
        "signed_density": mmm.signed,
        "drift_gap": gap,
        "K_t": k_table,
        "self_financing_residual": strategy.self_financing_residual(),
    }
    if market.horizon <= HEDGE_ORACLE_MAX_HORIZON:
        try:
            _, oracle_residual = ls_oracle(market, claim, args.x)
        except ValueError as exc:  # a failed cross-check leaves the recursion's result standing
            warnings.warn(f"least-squares cross-check skipped: {exc}")
        else:
            payload["oracle_residual"] = oracle_residual
            payload["residual_gap"] = abs(residual - oracle_residual)
    return payload


def cmd_girsanov(args) -> int:
    import numpy as np

    from .girsanov import TargetMeasure, girsanov_density, girsanov_drift, girsanov_varphi
    from .space import probability_table

    params = _model_params(args)
    target = TargetMeasure(args.lam_target,
                           tuple(float(x) for x in args.Q_target.split(",")))
    drift = girsanov_drift(params, target)
    varphi = girsanov_varphi(params, target)
    dens = girsanov_density(params, target).table()
    probs = probability_table(params)  # the table space(params).probabilities holds, without the space
    tgt_probs = probability_table(target.as_params(params))
    factor_resid = float(np.max(np.abs(dens * probs - tgt_probs) / tgt_probs))
    payload = {
        "target": {"lambda": target.jump_prob, "Q": list(target.mark_probs)},
        "drift": {text: drift[((1, k),)] for text, k in zip(params.mark_texts, params.marks)},
        "varphi": {text: varphi[k] for text, k in zip(params.mark_texts, params.marks)},
        "density_mean": float(np.dot(probs, dens)),
        "factorization_rel_residual": factor_resid,
    }
    _emit(args, payload)
    return 0


# Read by the BLAS libraries numpy may load, once, when it loads.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_numpy_with_one_blas_thread() -> None:
    """Load numpy with its BLAS on one thread, before any command computes:
    the process keeps one OS thread, so the identity suite may fork its
    workers (see ``diagnostics.suite_workers``), and no printed float depends
    on the BLAS thread count.  The variables are restored once numpy has
    loaded.  A process that has loaded numpy already keeps its BLAS as is."""
    if "numpy" in sys.modules:
        return
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    try:
        import numpy  # noqa: F401
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def cmd_verify(args) -> int:
    from .basis import build_basis
    from .diagnostics import run_identity_suite, worst_offender

    params = _model_params(args)
    if args.basis_csv:
        build_basis(params).export_csv(args.basis_csv)
    results = run_identity_suite(params, seed=args.seed or 0)
    timed = not args.no_timestamp  # sizes and times stay out of byte-stable output, as the timestamp does
    payload = {"params": {"T": params.horizon, "marks": list(params.marks),
                          "lambda": params.jump_prob, "Q": list(params.mark_probs)}}
    if timed:
        payload["n_configurations"] = params.n_configurations
        payload["workers"] = results.workers
    payload["checks"] = {
        r.name: {"residual": r.residual, "tolerance": r.tolerance, "passed": r.passed,
                 **({"seconds": r.seconds} if timed else {})}
        for r in results
    }
    payload["all_passed"] = all(r.passed for r in results)
    _emit(args, payload)
    offender = worst_offender(results)
    if offender is not None:
        print(
            f"worst offender: {offender.name} residual={offender.residual:.3e} "
            f"tolerance={offender.tolerance:.1e}",
            file=sys.stderr,
        )
        failing = [r.name for r in results if not r.passed]
        if len(failing) > 1:
            print(f"failing checks ({len(failing)}): {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbp",
        description="Exact calculus, approximation bounds and hedging for marked binomial models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command")

    sim = subs.add_parser("simulate", help="sample paths")
    _add_model_flags(sim)
    _add_common_flags(sim)
    sim.add_argument("--format", choices=("json", "csv"), default="json")
    sim.add_argument("--paths", type=int, default=10)
    sim.add_argument("--stream", type=int, default=0)
    sim.set_defaults(fn=cmd_simulate)

    dec = subs.add_parser("decompose", help="chaotic decomposition of a functional")
    _add_model_flags(dec)
    _add_common_flags(dec)
    dec.add_argument("--format", choices=("json", "csv"), default="json")
    dec.add_argument("--functional", type=str, default="count")
    dec.set_defaults(fn=cmd_decompose)

    stein = subs.add_parser("stein", help="Poisson / compound Poisson approximation")
    stein_subs = stein.add_subparsers(dest="application")
    hr = stein_subs.add_parser("headrun", help="success-run clump count")
    hr.add_argument("--n", type=int, required=True)
    hr.add_argument("--m", type=int, required=True)
    hr.add_argument("--p", type=float, required=True)
    _add_common_flags(hr)
    hr.set_defaults(fn=cmd_stein_headrun)
    dna = stein_subs.add_parser("dna", help="word-occurrence clump count")
    dna.add_argument("--n", type=int, required=True)
    dna.add_argument("--h", type=int, required=True)
    dna.add_argument("--alpha", type=float, required=True)
    dna.add_argument("--mu", type=float, required=True)
    _add_common_flags(dna)
    dna.set_defaults(fn=cmd_stein_dna)

    hedge = subs.add_parser("hedge", help="quadratic-loss minimizing strategy")
    hedge.add_argument("--a", type=float, required=True)
    hedge.add_argument("--b", type=float, required=True)
    hedge.add_argument("--r", type=float, required=True)
    hedge.add_argument("--lambda", dest="lam", type=float, required=True)
    hedge.add_argument("--p", type=float, required=True)
    hedge.add_argument("--T", type=int, required=True)
    hedge.add_argument("--claim", type=str, required=True)
    hedge.add_argument("--x", type=float, required=True)
    _add_common_flags(hedge)
    hedge.set_defaults(fn=cmd_hedge)

    gir = subs.add_parser("girsanov", help="change of measure diagnostics")
    _add_model_flags(gir)
    _add_common_flags(gir)
    gir.add_argument("--lambda-target", dest="lam_target", type=float, required=True)
    gir.add_argument("--Q-target", dest="Q_target", type=str, required=True)
    gir.set_defaults(fn=cmd_girsanov)

    ver = subs.add_parser("verify", help="run the exact identity suite")
    _add_model_flags(ver)
    _add_common_flags(ver)
    ver.add_argument("--basis-csv", type=str, default=None,
                     help="also dump the increment basis (M, M^-1, kappa) as CSV")
    ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return 2
    _load_numpy_with_one_blas_thread()
    try:
        return args.fn(args)
    except Exception as exc:  # any failure is exit 2: exit 1 means only that verify found a violation
        notes = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
        print(f"error: {str(exc) or type(exc).__name__}{notes}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
