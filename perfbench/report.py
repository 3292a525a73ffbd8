"""Run every workload untraced and traced over several seeds and print a report.

    python3 perfbench/report.py --seeds 1 2 3

Prints, per workload, the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb`` and ``fail_frac`` = failed / attempted operations) as
median and quartiles over the seeds, the tracing overhead, and the traced
timings of the rows of ROADMAP's baseline table.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# (label, size, single-run figure from ROADMAP's baseline table, workload, span name, configurations)
BASELINE_ROWS = [
    ("import markedbinomial", "-", "1.48 s", None, "cli.import_s", None),
    ("run_identity_suite", "T=3, 2 marks (27)", "0.06 s", "verify", "diagnostics.run_identity_suite", 27),
    ("run_identity_suite", "T=5, 3 marks (1,024)", "0.52 s", "verify", "diagnostics.run_identity_suite", 1024),
    ("run_identity_suite", "T=8, 2 marks (6,561)", "-", "verify", "diagnostics.run_identity_suite", 6561),
    ("coefficient_tensor", "T=11 (177,147); ROADMAP: T=12", "0.03-0.11 s", "calculus", "session.coefficient_tensor", None),
    ("stroock_decompose", "T=11 (177,147); ROADMAP: T=12", "6.3 s", "calculus", "session.stroock_decompose", None),
    ("reconstruct", "T=11 (177,147); ROADMAP: T=12", "3.2 s", "calculus", "session.reconstruct", None),
    ("multiple_integral, order 3", "T=10 (59,049)", "0.93 s", "calculus", "session.multiple_integral", None),
    ("gradient_process", "T=11 (177,147); ROADMAP: T=12", "0.6 s", "calculus", "session.gradient_process", None),
    ("divergence", "T=11 (177,147); ROADMAP: T=12", "0.4 s", "calculus", "session.divergence", None),
    ("ou_mehler_mc, 50 samples", "T=9 (19,683); ROADMAP: T=10", "5.4 s", "calculus", "session.ou_mehler_mc", None),
    ("optimal_strategy", "T=11 (177,147); ROADMAP: T=12", "2.2 s", "hedge", "hedging.optimal_strategy", 177147),
    ("ls_oracle", "T=7 (2,187); ROADMAP: T=8", "7.6 s", "hedge", "hedging.ls_oracle", 2187),
]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, full record) of one benchmark run."""
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    pointer, result = json.loads(lines[-2]), json.loads(lines[-1])
    return result, json.loads((ROOT / pointer["record"]).read_text())


def spread(values: list[float]) -> str:
    if not values:
        return "-"
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def span_time(record: dict, name: str, configurations: int | None) -> float | None:
    if name in record["metrics"]:
        return record["metrics"][name]
    hits = [s["end"] - s["start"] for s in record["spans"]
            if s["name"] == name and (configurations is None or s["configurations"] == configurations)]
    return sum(hits) if hits else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS), choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    plain: dict[str, list[dict]] = {w: [] for w in args.workloads}
    traced: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for workload in args.workloads:
        for seed in args.seeds:
            plain[workload].append(run_one(workload, seed, args.seconds, 0))
            traced[workload].append(run_one(workload, seed, args.seconds, 1)[1])
    env = traced[args.workloads[0]][0]["env"]
    print(f"# {len(args.seeds)} seeds {args.seeds}; git {env['git_sha'][:12]} dirty={env['git_dirty']}; "
          f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
          f"{env['cpu_count']} CPUs")
    print("\nEnd to end, median [q1, q3] over seeds (tracing off); wall_s and setup_s are scaled to the"
          " reference program's speed, the raw times follow\n")
    print("| workload | wall_s (s) | setup_s (s) | peak_rss_mb (MB) | fail_frac (ratio) | raw wall (s) | raw set-up (s) |")
    print("|---|---|---|---|---|---|---|")
    for w in args.workloads:
        rows = [result for result, _ in plain[w]]
        cells = [spread([r["metrics"][m]["value"] for r in rows]) for m in ("wall_s", "setup_s", "peak_rss_mb")]
        raw = [spread([record[key] for _, record in plain[w]]) for key in ("raw_wall_s", "raw_setup_s")]
        failed, attempted = sum(r["failed"] for r in rows), sum(r["attempted"] for r in rows)
        print(f"| {w} | {' | '.join(cells)} | {failed / attempted:.4g} ({failed}/{attempted}) | {' | '.join(raw)} |")
    print("\nTracing overhead = (traced wall - untraced wall) / untraced wall, both in one process\n")
    print("| workload | traced wall (s) | untraced wall (s) | overhead | unattributed remainder (s) |")
    print("|---|---|---|---|---|")
    for w in args.workloads:
        ms = [r["metrics"] for r in traced[w]]
        print(f"| {w} | {spread([m['trace.wall_s'] for m in ms])} | {spread([m['trace.untraced_wall_s'] for m in ms])}"
              f" | {spread([m['trace.overhead_frac'] for m in ms])} | {spread([m['trace.remainder_s'] for m in ms])} |")
    print("\nROADMAP baseline rows, traced inclusive time in s, median [q1, q3] over seeds\n")
    print("| what | size | ROADMAP (1 run, Python 3.10) | traced |")
    print("|---|---|---|---|")
    for label, size, before, workload, name, configurations in BASELINE_ROWS:
        sources = traced.get(workload, []) if workload else [r for rs in traced.values() for r in rs]
        values = [v for r in sources if (v := span_time(r, name, configurations)) is not None]
        print(f"| {label} | {size} | {before} | {spread(values)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
