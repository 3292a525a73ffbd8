"""The calculus workload's library session: seeded calls into the chaos,
malliavin and girsanov layers, each followed by an output check.

Run it in a fresh interpreter with the package on the path, e.g.

    PYTHONPATH=src python3 perfbench/session.py --seed 7 --T 12 --integral-T 10 --mehler-T 9 --mehler-samples 50

It prints one JSON list with an entry per checked call:
``{"call": ..., "configurations": ..., "error": null | "<reason>"}``.
"""
from __future__ import annotations

import argparse
import json
import math
from typing import Callable

CALLS = (
    "coefficient_tensor", "stroock_decompose", "reconstruct", "gradient_process", "divergence",
    "number_operator", "l_inverse", "ou_spectral", "clark_reconstruct", "girsanov_density",
    "multiple_integral", "kernel_inner", "ou_mehler_mc",
)
MARKS = (1.0, -1.0)
JUMP_PROB = 0.4
MARK_PROBS = (0.5, 0.5)
TAU = 0.5


def _direct(name: str, configurations: int, fn: Callable):
    return fn()


def run(seed: int, T: int, integral_T: int, mehler_T: int, mehler_samples: int,
        call: Callable = _direct) -> list[dict]:
    """Run every call of ``CALLS`` once; ``call(name, configurations, fn)`` runs each one."""
    import numpy as np

    import markedbinomial as mb
    from markedbinomial.chaos import coefficient_tensor, random_kernel

    results: list[dict] = []
    values: dict = {}

    def step(name: str, params, fn: Callable, check: Callable, needs: tuple[str, ...] = ()) -> None:
        missing = [dep for dep in needs if dep not in values]
        if missing:
            error = f"skipped: {', '.join(missing)} failed"
        else:
            try:
                value = call(name, params.n_configurations, fn)
                error = check(value)
            except Exception as exc:  # a failed call is counted, never fatal to the session
                error = f"{type(exc).__name__}: {exc}"
            if error is None:
                values[name] = value
        results.append({"call": name, "configurations": params.n_configurations, "error": error})

    def within(residual: float, tol: float, what: str) -> str | None:
        return None if residual <= tol else f"{what} residual {residual:.3e} > {tol:.0e}"

    rng = np.random.default_rng(seed)
    P = mb.ModelParams(T, MARKS, JUMP_PROB, MARK_PROBS, rng_seed=seed)
    sp = mb.space(P)
    basis = mb.build_basis(P)
    F = mb.PathFunctional(P, values=rng.normal(size=sp.n))
    f = F.table()
    mean = sp.expectation(f)

    step("coefficient_tensor", P, lambda: coefficient_tensor(F),
         lambda C: within(abs(C[(0,) * T] - mean), 1e-12, "constant term"))
    step("stroock_decompose", P, lambda: mb.stroock_decompose(F),
         lambda c: within(abs(c.f0 - mean), 1e-12, "mean"))
    step("reconstruct", P, lambda: mb.reconstruct(basis, values["stroock_decompose"]),
         lambda G: within(float(np.max(np.abs(G.table() - f))), 1e-9, "round trip"),
         needs=("stroock_decompose",))

    def first_chaos(DF) -> str | None:
        kernel = values["stroock_decompose"].kernel(1)
        worst = max(abs(sp.expectation(DF.values[:, t - 1, j]) - kernel.get(((t, k),), 0.0))
                    for t in range(1, T + 1) for j, k in enumerate(MARKS))
        return within(worst, 1e-10, "E[DF] vs first chaos")

    step("gradient_process", P, lambda: mb.gradient_process(F), first_chaos, needs=("stroock_decompose",))
    u = mb.ProcessTable(P, rng.normal(size=(sp.n, T, len(MARKS))))

    def adjoint(div) -> str | None:
        DF = values["gradient_process"].values
        rhs = sum(basis.kappa[j] * sp.expectation(DF[:, t, j] * u.values[:, t, j])
                  for t in range(T) for j in range(len(MARKS)))
        return within(abs(sp.expectation(f * div.table()) - rhs), 1e-10, "divergence adjoint")

    step("divergence", P, lambda: mb.divergence(u), adjoint, needs=("gradient_process",))
    del u
    step("number_operator", P, lambda: mb.number_operator(F),
         lambda LF: within(float(np.max(np.abs(LF.table() + mb.divergence(values["gradient_process"]).table()))),
                           1e-9, "L = -delta D"),
         needs=("gradient_process",))
    values.pop("gradient_process", None)
    Fc = mb.PathFunctional(P, values=f - mean)
    step("l_inverse", P, lambda: mb.l_inverse(Fc),
         lambda G: within(float(np.max(np.abs(mb.number_operator(G).table() - Fc.table()))), 1e-9, "L L^-1"))
    step("ou_spectral", P, lambda: mb.ou_spectral(F, TAU),
         lambda G: within(max(abs(sp.expectation(G.table()) - mean),
                              float(np.max(np.abs(G.table()))) - float(np.max(np.abs(f)))), 1e-12,
                          "mean / sup-norm contraction"))
    step("clark_reconstruct", P, lambda: mb.clark_reconstruct(F),
         lambda G: within(float(np.max(np.abs(G.table() - f))), 1e-9, "Clark round trip"))
    target = mb.TargetMeasure(0.5, (0.75, 0.25))
    step("girsanov_density", P, lambda: mb.girsanov_density(P, target),
         lambda D: within(abs(mb.expectation(D) - 1.0), 1e-12, "density mean"))
    del F, Fc, f

    P10 = mb.ModelParams(integral_T, MARKS, JUMP_PROB, MARK_PROBS, rng_seed=seed)
    basis10 = mb.build_basis(P10)
    kernel = random_kernel(P10, 3, rng)
    step("multiple_integral", P10, lambda: mb.multiple_integral(basis10, kernel, 3),
         lambda J: within(abs(mb.expectation(J)), 1e-9, "E[J_3]"))

    def isometry(inner: float) -> str | None:
        second = mb.expectation(values["multiple_integral"] * values["multiple_integral"])
        return within(abs(second - math.factorial(3) * inner) / max(1.0, second), 1e-9, "isometry")

    step("kernel_inner", P10, lambda: mb.kernel_inner(basis10, kernel, kernel, 3), isometry,
         needs=("multiple_integral",))

    P9 = mb.ModelParams(mehler_T, MARKS, JUMP_PROB, MARK_PROBS, rng_seed=seed)
    sp9 = mb.space(P9)
    F9 = mb.PathFunctional(P9, values=rng.normal(size=sp9.n))

    def unbiased(estimate) -> str | None:
        means, errs = estimate
        p = sp9.probabilities
        gap = abs(float(p @ means) - sp9.expectation(F9.table()))
        return within(gap, 6.0 * math.sqrt(float((p * p) @ (errs * errs))) + 1e-12, "Mehler mean (6 sigma)")

    step("ou_mehler_mc", P9, lambda: mb.ou_mehler_mc(F9, TAU, mehler_samples), unbiased)
    return results


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--T", type=int, required=True)
    parser.add_argument("--integral-T", type=int, required=True)
    parser.add_argument("--mehler-T", type=int, required=True)
    parser.add_argument("--mehler-samples", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.seed, args.T, args.integral_T, args.mehler_T, args.mehler_samples)))


if __name__ == "__main__":
    main()
