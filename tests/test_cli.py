import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from markedbinomial import MarketParams, call_payoff, optimal_strategy, cli
from markedbinomial.cli import dumps17, main
from markedbinomial.space import ModelParams, rng_stream, sample_digits

CTI_FLAGS = ["--T", "3", "--marks", "1,-1", "--lambda", "0.5", "--Q", "0.5,0.5"]
HEDGE_T3 = ["hedge", "--a", "-0.1", "--b", "0.2", "--r", "0.025", "--lambda", "0.5", "--p", "0.5", "--T", "3",
            "--claim", "call:K=1.05"]
GIRSANOV_CTI = ["girsanov", *CTI_FLAGS, "--lambda-target", "0.5", "--Q-target", "0.75,0.25"]


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "markedbinomial.cli", *args],
        capture_output=True, text=True, **kw,
    )


def test_no_arguments_prints_usage():
    proc = run_cli([])
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_unknown_flag_exits_2():
    proc = run_cli(["verify", "--bogus"])
    assert proc.returncode == 2


@pytest.mark.parametrize("cuts", [[], [3], [0, 0, 5, 10], list(range(1, 10))], ids=["one", "two", "empty", "single"])
def test_int_rows_render_as_the_list_of_lists(cuts):
    rows = np.random.default_rng(len(cuts)).integers(0, 128, size=(10, 4)).astype(np.int8)
    payload = {"x": 1, "paths": rows.tolist(), "y": [0.5]}
    assert dumps17({**payload, "paths": cli.IntRows(iter(np.split(rows, cuts)))}) == dumps17(payload)
    assert dumps17(cli.IntRows(np.split(rows, cuts)), 2) == dumps17(rows.tolist(), 2)
    assert dumps17({"p": cli.IntRows([rows[:0]])}) == dumps17({"p": []})


def test_dumps17_renders_17_significant_digits():
    text = dumps17({"x": 0.1, "n": 3, "flag": True, "none": None})
    assert "0.10000000000000001" in text
    assert json.loads(text) == {"x": 0.1, "n": 3, "flag": True, "none": None}


def test_dumps17_renders_a_float_list_as_its_array():
    items = [0.1, float("nan"), -0.0, 1 / 3, float("inf"), 5e-324]
    for indent in (0, 2):
        assert dumps17(items, indent) == dumps17(np.array(items), indent)
        assert dumps17({"k": items}, indent) == dumps17({"k": np.array(items)}, indent)


def test_dumps17_renders_an_empty_dict():
    assert dumps17({}) == "{}"
    assert dumps17({"k": {}}) == '{\n  "k": {}\n}'


@pytest.mark.parametrize("seq", [
    [0.1, float("nan"), float("inf"), -float("inf"), np.float64(1 / 3), np.float32(0.1), -0.0],
    np.array([1e-300, 2.5, np.nan]),
    [0.5, 1, 2.0],
    [0.5, True],
    [0.5, [0.25, float("nan")], []],
    [[], [1.5]],
    [],
    np.array([0.1, -0.0, 5e-324, 1.7976931348623157e308, -2.5e-308, 1 / 3]),
    np.array([0.1, 1 / 3, 1e20, -7.0], dtype=np.float32),
    [-0.0, 5e-324, 1.7976931348623157e308],
    np.array([0.5, np.nan, np.inf, -np.inf]),
    np.array([], dtype=float),
    np.array([2.0 / 3]),
    np.array([[0.1, np.nan], [1 / 3, -0.0]]),
    np.array([3, -1, 0]),
])
def test_dumps17_flat_float_lists_match_the_general_path(seq):
    """A float array is rendered in one pass; its text equals the
    element-by-element rendering of the same list, nested or not."""
    for indent in (0, 2):
        pad = "  " * indent
        items = [f"{pad}  {dumps17(v, indent + 1)}" for v in list(seq)]
        expected = "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
        assert dumps17(seq, indent) == expected
        assert dumps17({"k": seq}) == "{\n" + f'  "k": {dumps17(seq, 1)}' + "\n}"
    assert dumps17([np.float64(0.1), float("nan")]) == "[\n  0.10000000000000001,\n  null\n]"
    assert dumps17([1, True]) == "[\n  1,\n  true\n]"


def test_verify_cti_passes_and_is_deterministic():
    args = ["verify", *CTI_FLAGS, "--seed", "11", "--no-timestamp"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout  # byte identical
    report = json.loads(first.stdout)
    assert report["all_passed"] is True
    assert all(entry["passed"] for entry in report["checks"].values())


def test_verify_exit_codes_and_seed_echo(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(["verify", *CTI_FLAGS, "--seed", "3", "--no-timestamp", "--out", str(out)])
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 3


def test_verify_times_each_check_unless_output_is_byte_stable(capsys):
    """Without --no-timestamp each check carries its wall time and the report
    the model size and the number of processes the suite ran on; with it,
    none of these, so the goldens keep their bytes.  The rest of the report
    is the same."""
    assert main(["verify", *CTI_FLAGS, "--seed", "2"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert main(["verify", *CTI_FLAGS, "--seed", "2", "--no-timestamp"]) == 0
    stable = json.loads(capsys.readouterr().out)
    assert timed.pop("n_configurations") == 27 and "n_configurations" not in stable
    assert isinstance(timed.pop("workers"), int) and "workers" not in stable
    seconds = [check.pop("seconds") for check in timed["checks"].values()]
    assert all(isinstance(s, float) and s >= 0 for s in seconds)
    timed.pop("timestamp")
    assert list(timed) == list(stable) and timed == stable


def test_stein_headrun_values_and_determinism():
    args = ["stein", "headrun", "--n", "10", "--m", "2", "--p", "0.5",
            "--seed", "0", "--no-timestamp"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["lambda0"] == pytest.approx(1.375)
    # (1 - e^-1.375)/1.375 * b1 and 1.375 - b1, b1 = (1 + 2 + 39/4) / 16 = 0.796875
    # (derivation in tests/test_stein.py::test_head_run_variance_identity_value)
    assert payload["bound"] == pytest.approx(0.433013, abs=5e-7)
    assert payload["variance_identity"] == pytest.approx(0.578125)
    assert payload["mean"] == pytest.approx(1.375, abs=1e-12)
    assert payload["exact_tv"] <= payload["bound"]


@pytest.mark.parametrize("n, cap", [("10", "100"), ("30", None)], ids=["env_cap", "default_cap"])
def test_stein_headrun_past_the_cap_prints_only_the_closed_forms(n, cap):
    """Past the enumeration cap there is no exact table: the payload holds the
    closed forms and the seed, and the command still succeeds."""
    env = {k: v for k, v in os.environ.items() if k != "MBP_ENUM_CAP"} | ({"MBP_ENUM_CAP": cap} if cap else {})
    proc = run_cli(["stein", "headrun", "--n", n, "--m", "2", "--p", "0.5", "--no-timestamp"], env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    assert list(payload) == ["n", "m", "p", "lambda0", "bound", "variance_identity", "seed"]
    assert payload["lambda0"] == pytest.approx(0.25 * ((int(n) - 1) * 0.5 + 1.0))


def test_stein_dna_payload():
    proc = run_cli(["stein", "dna", "--n", "50", "--h", "5", "--alpha", "0.2",
                    "--mu", "0.02", "--no-timestamp"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["lambda0"] == pytest.approx(0.736)
    assert payload["dominated"] is True
    assert payload["exact_tv"] <= payload["clump_term"]


@pytest.mark.parametrize("alpha", ["0.7", "0.8", "0.95"])
def test_stein_dna_large_alpha(alpha, capsys):
    """Alphas whose geometric marks outlast a fixed 64-mark cut."""
    code = main(["stein", "dna", "--n", "50", "--h", "5", "--alpha", alpha, "--mu", "0.02", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = json.loads(captured.out)
    assert 0.0 < payload["exact_tv"] <= payload["clump_term"]


def test_hedge_payload():
    proc = run_cli(["hedge", "--a", "-0.1", "--b", "0.2", "--r", "0.025",
                    "--lambda", "0.5", "--p", "0.5", "--T", "3",
                    "--claim", "call:K=1.05", "--x", "1.0", "--no-timestamp"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["residual_gap"] <= 1e-8
    assert payload["drift_gap"] == pytest.approx(0.0, abs=1e-15)
    assert len(payload["phi_star"]["3"]) == 9
    assert payload["self_financing_residual"] <= 1e-10


def test_hedge_attainable_claim():
    proc = run_cli(["hedge", "--a", "-0.1", "--b", "0.2", "--r", "0.025",
                    "--lambda", "0.5", "--p", "0.5", "--T", "2",
                    "--claim", "discounted_price", "--x", "1.0", "--no-timestamp"])
    payload = json.loads(proc.stdout)
    assert payload["residual_risk"] <= 1e-10
    for values in payload["phi_star"].values():
        assert all(abs(v - 1.0) <= 1e-8 for v in values)


def _reference_json(obj, indent=0):
    """dumps17's layout with every float formatted on its own."""
    pad = "  " * indent
    if isinstance(obj, float):
        return format(float(obj), ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, dict):
        rows, brackets = [f"{pad}  {json.dumps(k)}: {_reference_json(v, indent + 1)}" for k, v in obj.items()], "{}"
    elif isinstance(obj, list):
        rows, brackets = [f"{pad}  {_reference_json(v, indent + 1)}" for v in obj], "[]"
    else:
        return json.dumps(obj)
    if not rows:
        return brackets
    return brackets[0] + "\n" + ",\n".join(rows) + f"\n{pad}" + brackets[1]


def test_hedge_file_matches_a_per_element_rendering_at_t9(tmp_path):
    """The one-pass float rendering of a 6,561-atom payload is byte-identical
    to formatting every number on its own, on M1 (many repeated floats) and
    on M3 and the signed market (nearly all distinct); numbers are parsed
    back as floats so that integral values such as 1 and -0 keep their
    rendering."""
    out = tmp_path / "hedge.json"
    for name in ("M1", "M3", "signed"):
        argv = ["hedge", *MARKET_FLAGS[name], "--T", "9", "--claim", "call:K=1.05", "--x", "1.0",
                "--no-timestamp", "--out", str(out)]
        a, b, r, lam, p = (float(v) for v in MARKET_FLAGS[name][1::2])
        market = MarketParams(a=a, b=b, r=r, jump_prob=lam, up_prob=p, horizon=9, initial_capital=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the signed market warns once per process
            assert main(argv) == 0
            strategy, _ = optimal_strategy(market, call_payoff(market, 1.05), 1.0)
        text = out.read_text(encoding="utf-8")
        payload = json.loads(text, parse_int=float)
        assert text == _reference_json(payload) + "\n", name
        assert len(payload["phi_star"]["9"]) == 3**8
        assert payload["phi_star"]["9"] == strategy.phi_prefixes[8].tolist(), name


def test_json_pieces_hold_at_most_one_float_chunk():
    """A payload is emitted piece by piece: float arrays longer than one
    chunk, finite or not, render byte-identically to the per-element layout,
    and no piece grows with the payload, so neither does the emit's memory."""
    values = np.linspace(-1.0, 1.0, 3 * cli.FLOAT_CHUNK + 5)
    holes = values.copy()
    holes[cli.FLOAT_CHUNK + 7] = np.nan
    payload = {"a": {"1": values, "2": holes[::-1]}, "b": [values.tolist(), 1], "c": []}
    pieces = list(cli._json17(payload))
    reference = {"a": {"1": values.tolist(), "2": holes[::-1].tolist()}, "b": [values.tolist(), 1], "c": []}
    assert "".join(pieces) == _reference_json(reference) == dumps17(payload)
    longest_float = max(len(format(v, ".17g")) for v in values)
    assert max(map(len, pieces)) <= cli.FLOAT_CHUNK * (longest_float + len(",\n        "))


def _special_floats(n: int) -> np.ndarray:
    """Signed zeros side by side, NaN, both infinities, the smallest and
    largest doubles and repeats, cycled to length n."""
    base = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.1, -0.0, 0.1, 1 / 3])
    return np.resize(base, n)


RENDER_CASES = {
    "special": _special_floats,
    "all equal": lambda n: np.full(n, 1 / 3),
    "all distinct": lambda n: np.random.default_rng(n).normal(size=n),
    "float32": lambda n: np.linspace(-1, 1, n, dtype=np.float32),
}


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("case", list(RENDER_CASES))
def test_float_rendering_matches_the_per_element_reference(case, offset):
    """The vectorised rendering of a chunk, and JSON text, equal formatting
    every value on its own (null in JSON and nan/inf in CSV for non-finite
    values), around one chunk's length."""
    from markedbinomial.space import _text17

    values = RENDER_CASES[case](cli.FLOAT_CHUNK + offset)
    items = values.tolist()
    assert _text17(values).split("\n") == [format(v, ".17g") for v in items]
    assert dumps17({"v": values}) == _reference_json({"v": items})
    assert dumps17(values[:3]) == _reference_json(items[:3])


DATA = Path(__file__).parent / "data"
MARKET_FLAGS = {
    "M1": ["--a", "-0.1", "--b", "0.2", "--r", "0.025", "--lambda", "0.5", "--p", "0.5"],
    "M3": ["--a", "-0.3", "--b", "0.5", "--r", "0.01", "--lambda", "0.3", "--p", "0.7"],
    "signed": ["--a", "-0.9", "--b", "0.05", "--r", "0.04", "--lambda", "0.999", "--p", "0.001"],
}


HEDGE_GOLDENS = [
    ("M1", "call:K=1.05", "hedge_M1_call_T4.json"),
    ("M1", "discounted_price", "hedge_M1_discounted_price_T4.json"),
    ("M3", "call:K=1.05", "hedge_M3_call_T4.json"),
    ("signed", "call:K=1.05", "hedge_signed_call_T4.json"),
]
VERIFY_GOLDENS = [
    (["--T", "3", "--marks=1,-1", "--lambda", "0.5", "--Q", "0.5,0.5"], "verify_cti_T3.json"),
    (["--T", "5", "--marks=1,2,3", "--lambda", "0.3", "--Q", "0.5,0.3,0.2"], "verify_inst2_T5.json"),
    (["--T", "8", "--marks=1,-1", "--lambda", "0.4", "--Q", "0.5,0.5"], "verify_binary_T8.json"),
]


def _hedge_argv(market: str, claim: str) -> list[str]:
    return ["hedge", *MARKET_FLAGS[market], "--T", "4", "--claim", claim, "--x", "1.0", "--no-timestamp"]


def _verify_argv(model: list[str]) -> list[str]:
    return ["verify", *model, "--seed", "1", "--no-timestamp"]


@pytest.mark.parametrize("market, claim, golden", HEDGE_GOLDENS)
def test_hedge_output_is_byte_identical_to_the_golden_file(market, claim, golden, capsys):
    """`hedge --T 4 --x 1.0 --no-timestamp`, the least-squares fields included,
    reproduces the committed file byte for byte."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the signed market warns once per process
        assert main(_hedge_argv(market, claim)) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("model, golden", VERIFY_GOLDENS)
def test_verify_output_is_byte_identical_to_the_golden_file(model, golden, capsys):
    """`verify --seed 1 --no-timestamp` reproduces every residual of the
    committed file byte for byte."""
    assert main(_verify_argv(model)) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


def test_hedge_output_does_not_depend_on_the_blas_thread_count():
    """Every command loads numpy on one BLAS thread, so a hedge whose printed
    floats come out of BLAS calls prints the same bytes for every thread
    count asked for.  OpenBLAS caps the count at the CPUs present."""
    argv = ["hedge", *MARKET_FLAGS["M3"], "--T", "11", "--claim", "call:K=1.05", "--x", "1.0", "--no-timestamp"]
    outputs = set()
    for threads in ("1", "2", "4"):
        proc = run_cli(argv, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("model, params", [
    (VERIFY_GOLDENS[0][0], ModelParams(3, (1.0, -1.0), 0.5, (0.5, 0.5))),
    (VERIFY_GOLDENS[1][0], ModelParams(5, (1.0, 2.0, 3.0), 0.3, (0.5, 0.3, 0.2))),
], ids=["cti", "inst2"])
def test_verify_basis_csv_holds_the_basis_and_leaves_stdout_alone(model, params, tmp_path, capsys):
    """`--basis-csv` writes M, M^-1 and kappa, one value a row, each of which
    reads back to the basis's own float; the report is the one without it."""
    import csv

    from markedbinomial.basis import build_basis

    path = tmp_path / "basis.csv"
    assert main([*_verify_argv(model), "--basis-csv", str(path)]) == 0
    with_csv = capsys.readouterr().out
    assert main(_verify_argv(model)) == 0
    assert with_csv == capsys.readouterr().out
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["block", "row", "col", "value"]
    m, basis = params.n_marks, build_basis(params)
    assert len(rows) == 2 * m * m + m
    want = [("M", i, j, basis.matrix_m[i, j]) for i in range(m) for j in range(m)]
    want += [("M_inv", i, j, basis.matrix_m_inv[i, j]) for i in range(m) for j in range(m)]
    want += [("kappa", i, 0, basis.kappa[i]) for i in range(m)]
    for (block, i, j, text), (name, want_i, want_j, value) in zip(rows, want):
        assert (block, int(i), int(j)) == (name, want_i, want_j)
        assert float(text) == value


def _host_has_avx512f() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy before 2.0 keeps the table elsewhere
        return False
    return bool(__cpu_features__.get("AVX512F"))


@pytest.mark.skipif(not _host_has_avx512f(), reason="the host has no AVX-512 loops to disable")
@pytest.mark.parametrize("argv, golden",
                         [(_hedge_argv(market, claim), golden) for market, claim, golden in HEDGE_GOLDENS]
                         + [(_verify_argv(model), golden) for model, golden in VERIFY_GOLDENS],
                         ids=[golden for *_, golden in HEDGE_GOLDENS + VERIFY_GOLDENS])
def test_golden_output_holds_without_numpys_avx512_loops(argv, golden):
    """numpy picks its exp, log and power loops by SIMD level.  With the
    AVX-512 loops disabled, as on an AVX2-only host, each golden command
    prints the committed bytes in a fresh process."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    proc = run_cli(argv, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("model, functional, golden", [
    (["--T", "4", "--marks=1,-1", "--lambda", "0.4", "--Q", "0.5,0.5"], "indicator=50",
     "decompose_indicator50_T4.csv"),
    (["--T", "4", "--marks=1,-1", "--lambda", "0.4", "--Q", "0.5,0.5"], "count", "decompose_count_T4.csv"),
    (["--T", "3", "--marks=2,-0.5,1", "--lambda", "0.3", "--Q", "0.2,0.5,0.3"], "indicator=45",
     "decompose_3marks_indicator45_T3.csv"),
])
def test_decompose_csv_is_byte_identical_to_the_golden_file(model, functional, golden, capsys):
    """`decompose --format csv` reproduces the committed table byte for byte."""
    assert main(["decompose", *model, "--functional", functional, "--format", "csv", "--no-timestamp"]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


def test_decompose_csv_at_t11_matches_a_per_element_rendering(tmp_path):
    """The T=11 indicator table, about 3 MB, equals formatting every value
    of `rows()` on its own."""
    from markedbinomial import ModelParams, PathFunctional, stroock_decompose

    out = tmp_path / "decompose.csv"
    rank = 12345
    argv = ["decompose", "--T", "11", "--marks=1,-1", "--lambda", "0.4", "--Q", "0.5,0.5",
            "--functional", f"indicator={rank}", "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    params = ModelParams(11, (1.0, -1.0), 0.4, (0.5, 0.5))
    indicator = np.zeros(params.n_configurations)
    indicator[rank] = 1.0
    rows = stroock_decompose(PathFunctional(params, values=indicator)).rows()
    reference = "order,support,value\n" + "".join(f"{n},{label},{v:.17g}\n" for n, label, v in rows)
    assert out.read_text(encoding="utf-8") == reference
    assert len(rows) > 50_000


def test_girsanov_payload():
    proc = run_cli(["girsanov", *CTI_FLAGS, "--lambda-target", "0.5",
                    "--Q-target", "0.75,0.25", "--no-timestamp"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["drift"]["1"] == pytest.approx(0.5)
    assert payload["drift"]["-1"] == pytest.approx(-0.5)
    assert payload["varphi"]["1"] == pytest.approx(0.5)
    assert payload["density_mean"] == pytest.approx(1.0, abs=1e-12)
    assert payload["factorization_rel_residual"] <= 1e-13


def test_simulate_deterministic_and_csv():
    args = ["simulate", *CTI_FLAGS, "--paths", "5", "--seed", "4", "--no-timestamp"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert len(payload["paths"]) == 5
    csv_proc = run_cli([*args, "--format", "csv"])
    lines = csv_proc.stdout.strip().splitlines()
    assert lines[0] == "path,digits"
    assert len(lines) == 6


def _simulate_flags(n_marks):
    return ["--T", "3", "--marks", ",".join(str(k) for k in range(1, n_marks + 1)), "--lambda", "0.9",
            "--Q", ",".join([repr(1 / n_marks)] * n_marks)]


@pytest.mark.parametrize("n_marks", [2, 9, 11])
def test_simulate_csv_rows_are_the_json_paths(n_marks, capsys):
    """Up to 9 marks a row writes its digits together, as it always has; from
    10 marks on it joins them by spaces, so that (11, 9, 1) and (1, 19, 11)
    do not both print as 0,11911."""
    flags = ["simulate", *_simulate_flags(n_marks), "--paths", "50", "--no-timestamp"]
    assert main(flags) == 0
    paths = json.loads(capsys.readouterr().out)["paths"]
    assert main([*flags, "--format", "csv"]) == 0
    joiner = " " if n_marks >= 10 else ""
    want = ["path,digits"] + [f"{i},{joiner.join(map(str, path))}" for i, path in enumerate(paths)]
    assert capsys.readouterr().out == "\n".join(want) + "\n"
    assert n_marks < 10 or max(max(path) for path in paths) >= 10


def test_simulate_output_is_a_prefix_and_does_not_depend_on_the_pieces(monkeypatch, capsys):
    """The first k paths of --paths N are the paths of --paths k, and the
    bytes do not depend on how many paths are drawn and written per piece."""
    outputs = {}
    for chunk in (cli.INT_CHUNK, 21, 1):  # 1, 7 or all paths per piece at T=3
        monkeypatch.setattr(cli, "INT_CHUNK", chunk)
        for fmt in ("json", "csv"):
            for paths in ("40", "13"):
                assert main(["simulate", *CTI_FLAGS, "--paths", paths, "--format", fmt, "--no-timestamp"]) == 0
                outputs.setdefault((fmt, paths), set()).add(capsys.readouterr().out)
    assert all(len(texts) == 1 for texts in outputs.values())
    csv_rows = {paths: outputs[("csv", paths)].pop().splitlines() for paths in ("40", "13")}
    assert csv_rows["13"] == csv_rows["40"][:14]
    json_paths = {paths: json.loads(outputs[("json", paths)].pop())["paths"] for paths in ("40", "13")}
    assert json_paths["13"] == json_paths["40"][:13]


@pytest.mark.parametrize("n_marks", [2, 11])
def test_simulate_long_rows_in_pieces_keep_the_whole_row_bytes(n_marks, monkeypatch, capsys):
    """A row longer than INT_CHUNK digits is drawn and written in pieces of
    INT_CHUNK digits, from the same stream positions: the bytes are those of
    the row drawn and rendered whole, and the digits those of sample_digits."""
    chunk = cli.INT_CHUNK
    marks = ",".join(str(k) for k in range(1, n_marks + 1))
    flags = ["--marks", marks, "--lambda", "0.9", "--Q", ",".join([repr(1 / n_marks)] * n_marks), "--no-timestamp"]
    for T, paths, fmt in itertools.product((chunk - 1, chunk, chunk + 1, 3 * chunk + 5), (1, 3), ("json", "csv")):
        argv = ["simulate", "--T", str(T), *flags, "--paths", str(paths), "--format", fmt]
        texts = []
        for whole_rows_up_to in (chunk, T):  # as written, then with the row drawn and rendered whole
            monkeypatch.setattr(cli, "INT_CHUNK", whole_rows_up_to)
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1], (T, paths, fmt)
        if fmt == "json":
            params = ModelParams(T, tuple(range(1, n_marks + 1)), 0.9, (1 / n_marks,) * n_marks)
            assert json.loads(texts[0])["paths"] == sample_digits(params, paths, rng_stream(params)).tolist()


@pytest.mark.parametrize("argv, message", [
    (["simulate", *CTI_FLAGS, "--paths", "-1"], "--paths must be non-negative, got -1"),
    (["simulate", *CTI_FLAGS, "--stream", "-1"], "stream index must be non-negative, got -1"),
    (["simulate", *_simulate_flags(128)], "at most 127 marks are supported (digits are stored as int8), got 128"),
], ids=["paths", "stream", "128-marks"])
def test_simulate_refuses_with_its_own_error_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_decompose_csv():
    proc = run_cli(["decompose", *CTI_FLAGS, "--functional", "count",
                    "--format", "csv", "--no-timestamp"])
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "order,support,value"
    assert lines[1].startswith("0,,1.5")
    # jump count is first-chaos: all listed orders are 0 or 1
    orders = {line.split(",")[0] for line in lines[1:]}
    assert orders <= {"0", "1"}


@pytest.mark.parametrize("T, rank", [("3", "-1"), ("1", "99")])
def test_decompose_rejects_indicator_rank_out_of_range(T, rank):
    flags = ["--T", T, *CTI_FLAGS[2:]]
    proc = run_cli(["decompose", *flags, "--functional", f"indicator={rank}", "--no-timestamp"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: indicator rank")


def test_format_only_on_table_commands():
    proc = run_cli(["stein", "headrun", "--n", "10", "--m", "2", "--p", "0.5", "--format", "csv"])
    assert proc.returncode == 2
    assert "unrecognized arguments: --format csv" in proc.stderr


def test_import_leaves_scipy_out():
    """`import markedbinomial` loads no submodule and not even numpy."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, markedbinomial\n"
         "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy', 'markedbinomial')))))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["markedbinomial"]


# each command's engine modules beside `cli`; numpy loads with the first of them
FOOTPRINTS = {
    "hedge": (HEDGE_T3 + ["--x", "1.0"], {"space", "hedging"}),
    "simulate": (["simulate", *CTI_FLAGS], {"space"}),
    "version": (["--version"], set()),
    "help": (["--help"], set()),
    "verify_help": (["verify", "--help"], set()),
    "usage_error": (["verify", "--bogus"], set()),
    "decompose": (["decompose", *CTI_FLAGS], {"space", "basis", "chaos"}),
    "girsanov": (GIRSANOV_CTI, {"space", "girsanov"}),
    "verify": (["verify", *CTI_FLAGS], {"space", "basis", "chaos", "malliavin", "girsanov", "diagnostics"}),
    "stein_headrun": (["stein", "headrun", "--n", "10", "--m", "2", "--p", "0.5"], {"space", "stein"}),
    "stein_dna": (["stein", "dna", "--n", "50", "--h", "5", "--alpha", "0.7", "--mu", "0.02"], {"stein"}),
}


def _modules_after(argv, expression):
    """``expression`` evaluated over ``sys.modules`` after ``main(argv)`` ran in a fresh interpreter."""
    code = (
        "import contextlib, io, json, sys\n"
        "from markedbinomial.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        main({argv!r})\n"
        "    except SystemExit:\n"
        "        pass\n"
        f"print(json.dumps(sorted({expression})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, engine", list(FOOTPRINTS.values()), ids=list(FOOTPRINTS))
def test_each_command_loads_only_the_engine_modules_it_runs(argv, engine):
    names = _modules_after(argv, "m for m in sys.modules if m.startswith('markedbinomial.') or m == 'numpy'")
    assert set(names) == {f"markedbinomial.{name}" for name in engine | {"cli"}} | ({"numpy"} if engine else set())


@pytest.mark.parametrize("argv", [argv for argv, _ in FOOTPRINTS.values()], ids=list(FOOTPRINTS))
def test_no_command_loads_a_random_number_module(argv):
    """The identity suite and `simulate` draw from a counter stream, not from
    numpy.random, which would pull in `secrets` and OpenSSL's `_hashlib`."""
    assert _modules_after(argv, "{'numpy.random', 'secrets', '_hashlib'} & set(sys.modules)") == []


PUBLIC_NAMES = """
    ChaosCoefficients CompoundTarget Configuration KWDecomposition MarketParams ModelParams OrthogonalBasis
    PathFunctional ProcessTable SteinSolution Strategy TargetMeasure add_one_cost bar_grad basis build_basis
    call_payoff chaos clark_integrand clark_reconstruct compound_poisson_bound compound_stein_solve compound_value
    conditional_expectation config_probability convert_coeffs_r_to_z convert_order1_z_to_r delta_r delta_r_table
    delta_z delta_z_table diagnostics divergence dna_bound dna_functional doleans_exponential
    enumerate_configurations exact_tv expectation gamma_tilde girsanov girsanov_density girsanov_drift
    girsanov_varphi gradient gradient_process head_run_bound head_run_functional hedging iterated_difference
    iterated_gradient kernel_inner kunita_watanabe l_inverse ls_oracle malliavin martingale_diagnostics
    mecke_check minimal_martingale_measure multiple_integral number_operator optimal_strategy ou_mehler_mc
    ou_spectral poisson_bound price_paths product_kernel reconstruct remove_one_cost reweighted_expectation
    rng_stream run_identity_suite sample_path solve_stein_poisson space stein stein_constants stroock_decompose
    tilde_divergence tilde_grad tilde_number_operator
""".split()


def test_package_root_keeps_its_public_names():
    """The root resolves names on first use; what it offers stays the same."""
    code = (
        "import json, sys, types\n"
        "import markedbinomial as mb\n"
        "import markedbinomial.chaos\n"
        "facts = {'space_is_function': mb.space is sys.modules['markedbinomial.space'].space,\n"
        "         'hedging_is_module': isinstance(mb.hedging, types.ModuleType),\n"
        "         'public': [name for name in dir(mb) if not name.startswith('_')],\n"
        "         'unknown_raises': False}\n"
        "facts['unresolved'] = [name for name in facts['public'] if getattr(mb, name, None) is None]\n"
        "try:\n"
        "    mb.no_such_name\n"
        "except AttributeError:\n"
        "    facts['unknown_raises'] = True\n"
        "star = {}\n"
        "exec('from markedbinomial import *', star)\n"
        "facts['star'] = sorted(name for name in star if name != '__builtins__')\n"
        "print(json.dumps(facts))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts["public"] == PUBLIC_NAMES
    assert facts["star"] == PUBLIC_NAMES
    assert facts["unresolved"] == []
    assert facts["space_is_function"] and facts["hedging_is_module"] and facts["unknown_raises"]
    # `space` names both a function and its submodule: the root keeps the function whichever route
    # loads the submodule first, and an assignment still replaces it
    routes = {"import": "import markedbinomial.space", "from": "from markedbinomial.space import ModelParams",
              "attribute": "mb.ModelParams"}
    for order in itertools.permutations(routes):
        code = "import sys, types\nimport markedbinomial as mb\n" + "".join(
            f"{routes[route]}\nassert mb.space is sys.modules['markedbinomial.space'].space, {route!r}\n"
            for route in order
        ) + (
            "assert isinstance(sys.modules['markedbinomial.space'], types.ModuleType)\n"
            "mb.space = stand_in = object()\n"
            "assert mb.space is stand_in\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, (order, proc.stderr)


@pytest.mark.parametrize("module", ["space", "basis", "chaos", "malliavin", "girsanov", "stein", "hedging",
                                    "diagnostics", "cli"])
def test_each_module_imports_on_its_own(module):
    """A fresh interpreter imports any one module first: no import cycle."""
    proc = subprocess.run([sys.executable, "-c", f"import markedbinomial.{module}"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_hedge_keeps_its_result_when_the_cross_check_refuses(capsys):
    """A market whose oracle pivots sink to rounding level still exits 0 with
    the recursion's result; the oracle fields are left out, with a warning."""
    argv = ["hedge", "--a", "-0.1", "--b", "0.2", "--r", "0.025", "--lambda", "1e-6", "--p", "0.5",
            "--T", "8", "--claim", "call:K=1.05", "--x", "1.0", "--no-timestamp"]
    with pytest.warns(UserWarning, match="least-squares cross-check skipped: singular normal matrix"):
        assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual_risk"] == pytest.approx(2.25006e-9, rel=1e-5)
    assert "oracle_residual" not in payload and "residual_gap" not in payload


def _hedge_subprocess(x: str) -> subprocess.CompletedProcess:
    argv = ["hedge", *MARKET_FLAGS["M1"], "--T", "3", "--x", x, "--claim", "call:K=1.05", "--no-timestamp"]
    return subprocess.run([sys.executable, "-m", "markedbinomial.cli", *argv], capture_output=True, text=True)


def test_hedge_refuses_an_overflowing_capital():
    """x = 1e160 squares past the float64 range: one error line naming the
    overflow and exit 2, not a null residual and numpy's warnings."""
    proc = _hedge_subprocess("1e160")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: hedging overflows float64")


def test_hedge_keeps_a_large_finite_capital():
    """x = 1e150 stays finite (x**2 = 1e300): exit 0, no warning, and the
    residual risks print as numbers."""
    proc = _hedge_subprocess("1e150")
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["residual_risk"] == payload["residual_risk_t_conditioning"] == 1.0000000000000002e+300
    assert payload["market"]["x"] == 1e150


@pytest.mark.parametrize("argv", [HEDGE_T3 + ["--x", "1.0"],
                                  ["decompose", *CTI_FLAGS, "--functional", "indicator=5"],
                                  ["decompose", *CTI_FLAGS, "--functional", "count", "--format", "csv"]])
def test_hedge_and_decompose_leave_numpy_ma_out(argv):
    code = (
        "import contextlib, io, sys\n"
        "from markedbinomial.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_config_file_source(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("T = 3\nmarks = 1,-1\nlambda = 0.5\nQ = 0.5,0.5\nseed = 9\n")
    proc = run_cli(["verify", "--config", str(cfg), "--no-timestamp"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["seed"] == 9


@pytest.mark.parametrize("flag", [["--T", "5"], ["--marks=1,2"], ["--lambda", "0.3"], ["--Q", "0.4,0.6"]],
                         ids=["T", "marks", "lambda", "Q"])
def test_config_refuses_model_flags_beside_it(tmp_path, flag, capsys):
    """A model flag next to --config would be silently dropped: it is refused
    with exit 2 and one error line, while --seed still overrides the file."""
    cfg = tmp_path / "model.cfg"
    cfg.write_text("T = 3\nmarks = 1,-1\nlambda = 0.5\nQ = 0.5,0.5\nseed = 9\n")
    assert main(["decompose", "--config", str(cfg), *flag, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {flag[0].split('=')[0]} cannot be combined with --config, "
                                         "which sets the model"]
    assert main(["decompose", "--config", str(cfg), "--seed", "4", "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 4


def test_enumeration_cap_env(tmp_path):
    import os

    env = dict(os.environ)
    env["MBP_ENUM_CAP"] = "10"
    proc = run_cli(["verify", *CTI_FLAGS, "--no-timestamp"], env=env)
    assert proc.returncode == 2
    assert "enumeration too large" in proc.stderr


# Runs a command and reports its peak RSS in KiB as a last stderr line.  A
# fresh interpreter starts the command, because a child forked from the test
# process counts that process's pages in its own peak.
PEAK_RUNNER = (
    "import resource, subprocess, sys\n"
    "code = subprocess.call(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _run_with_peak(args, cap=None):
    """(exit code, peak RSS in MB, stdout, stderr) of one `mbp` process, with
    the enumeration cap ``cap`` or the default one."""
    env = {k: v for k, v in os.environ.items() if k != "MBP_ENUM_CAP"} | ({"MBP_ENUM_CAP": cap} if cap else {})
    proc = subprocess.run([sys.executable, "-c", PEAK_RUNNER, sys.executable, "-m", "markedbinomial.cli", *args],
                          capture_output=True, text=True, env=env)
    *err, peak_kib = proc.stderr.splitlines(keepends=True)
    return proc.returncode, int(peak_kib) / 1024, proc.stdout, "".join(err)


@pytest.mark.parametrize("horizon, cap, line", [
    ("15", None, "error: enumeration too large: 14348907 configurations exceeds cap 10000000 (T=15, 2 marks); "
                 "only Monte Carlo mode is available\n"),
    ("3", "10", "error: enumeration too large: 27 configurations exceeds cap 10 (T=3, 2 marks); "
                "only Monte Carlo mode is available\n"),
], ids=["default_cap", "env_cap"])
def test_hedge_refuses_an_oversized_tree_before_building_a_table(horizon, cap, line):
    """The cap guards the probability table that hedging reads, so the refusal
    comes before any (n,) table is allocated: a fresh process stays small."""
    argv = [*HEDGE_T3[:12], horizon, *HEDGE_T3[13:], "--x", "1.0", "--no-timestamp"]
    code, peak_mb, out, err = _run_with_peak(argv, cap)
    assert (code, out, err) == (2, "", line)
    assert peak_mb < 100


@pytest.mark.parametrize("horizon", ["3", "9"])
def test_hedge_builds_no_sample_space(horizon):
    """Hedging reads the one-step law and the probability table only: a
    hedge with and without the least-squares cross-check leaves the cache of
    sample spaces (digit tables and all) empty."""
    argv = [*HEDGE_T3[:12], horizon, *HEDGE_T3[13:], "--x", "1.0", "--no-timestamp"]
    assert _sample_spaces_after(argv) == 0


def test_girsanov_builds_no_sample_space():
    """The density, its mean and the factorization residual read the one-step
    weights and the probability tables only."""
    assert _sample_spaces_after([*GIRSANOV_CTI, "--no-timestamp"]) == 0


DECOMPOSE_T4 = ["decompose", "--T", "4", "--marks=1,-1", "--lambda", "0.4", "--Q", "0.5,0.5", "--no-timestamp"]


def _spy_on_sample_spaces(monkeypatch, refuse: bool) -> list:
    """Params of every SampleSpace built from now on; with ``refuse`` the build raises."""
    from markedbinomial.space import SampleSpace

    built, init = [], SampleSpace.__init__

    def spy(self, params):
        built.append(params)
        if refuse:
            raise AssertionError("a sample space was built")
        init(self, params)

    monkeypatch.setattr(SampleSpace, "__init__", spy)
    return built


def test_decompose_of_an_indicator_builds_no_sample_space(monkeypatch, capsys):
    """An indicator's table, transform and read-out need the model's one-step
    law only: both formats succeed with SampleSpace refusing to build, the CSV
    with the golden bytes, and a model past the cap is still refused in one
    line.  The seeds are ones no other test uses, so no space is cached."""
    built = _spy_on_sample_spaces(monkeypatch, refuse=True)
    argv = [*DECOMPOSE_T4, "--functional", "indicator=50", "--seed", "920"]
    golden = (DATA / "decompose_indicator50_T4.csv").read_text(encoding="utf-8")
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr() == (golden, "")
    assert main([*argv, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == "" and len(payload["coefficients"]) == len(golden.splitlines()) - 2
    assert format(payload["mean"], ".17g") == golden.splitlines()[1].split(",")[2]
    monkeypatch.setenv("MBP_ENUM_CAP", "80")
    for fmt in ("csv", "json"):
        assert main([*argv, "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: enumeration too large: 81 configurations exceeds cap 80 "
                                     "(T=4, 2 marks); only Monte Carlo mode is available\n")
    assert built == []


@pytest.mark.parametrize("functional, seed", [("count", "921"), ("compound", "922")])
def test_decompose_of_count_and_compound_reads_the_sample_space(functional, seed, monkeypatch, capsys):
    """The jump count and the compound sum are read off the digit table."""
    built = _spy_on_sample_spaces(monkeypatch, refuse=False)
    assert main([*DECOMPOSE_T4, "--functional", functional, "--seed", seed]) == 0
    capsys.readouterr()
    assert [params.rng_seed for params in built] == [int(seed)]


def _sample_spaces_after(argv) -> int:
    """Size of the sample-space cache after ``main(argv)`` ran in a fresh interpreter."""
    code = (
        "import contextlib, io\n"
        "from markedbinomial.cli import main\n"
        "from markedbinomial.space import space\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(space.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_decompose_json_streams_its_rows(tmp_path):
    """At T=11 (78,731 rows) the JSON payload is emitted row by row, never
    held as a list of rows and dicts: it peaks within 5 MB of the CSV table
    (27 MB above it while every row was listed first)."""
    model = ["decompose", "--T", "11", "--marks=1,-1", "--lambda", "0.4", "--Q", "0.5,0.5",
             "--functional", "indicator=76", "--no-timestamp"]  # two jumps of each mark
    peaks = {}
    for fmt in ("json", "csv"):
        out = tmp_path / f"decompose.{fmt}"
        code, peaks[fmt], _, err = _run_with_peak([*model, "--format", fmt, "--out", str(out)])
        assert code == 0, err
    rows = json.loads((tmp_path / "decompose.json").read_text(encoding="utf-8"))["coefficients"]
    assert len(rows) == len((tmp_path / "decompose.csv").read_text(encoding="utf-8").splitlines()) - 2 == 78_731
    assert peaks["json"] < peaks["csv"] + 5


def test_main_callable_directly(capsys):
    code = main(["verify", *CTI_FLAGS, "--seed", "1", "--no-timestamp"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["all_passed"] is True


def test_verify_reports_worst_offender_on_failure(monkeypatch, capsys):
    from markedbinomial import diagnostics

    monkeypatch.setattr(
        diagnostics, "CHECKS",
        diagnostics.CHECKS + [("always_fails", 1e-12, lambda ctx: 1.0), ("also_fails", 1e-12, lambda ctx: 0.5)],
    )
    code = main(["verify", *CTI_FLAGS, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 1
    assert "worst offender: always_fails" in captured.err
    assert "failing checks (2): always_fails, also_fails" in captured.err
    report = json.loads(captured.out)
    assert report["all_passed"] is False
    assert report["checks"]["always_fails"]["passed"] is False
    assert report["checks"]["also_fails"]["passed"] is False


def test_verify_names_a_nan_residual_as_the_worst_offender(monkeypatch, capsys):
    from markedbinomial import diagnostics

    monkeypatch.setattr(
        diagnostics, "CHECKS",
        diagnostics.CHECKS + [("a", 0.1, lambda ctx: 1.0), ("b", 0.1, lambda ctx: math.nan)],
    )
    assert main(["verify", *CTI_FLAGS, "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert "worst offender: b residual=nan tolerance=1.0e-01" in captured.err
    assert json.loads(captured.out)["checks"]["b"]["residual"] is None


@pytest.mark.parametrize("argv", [
    ["simulate", *CTI_FLAGS, "--out", "{missing}/x.csv"],
    ["stein", "headrun", "--n", "10", "--m", "2", "--p", "0.5", "--out", "{missing}/y"],
    ["simulate", "--config", "{missing}.cfg"],
    ["stein", "dna", "--n", "50", "--h", "5", "--alpha", "0.999", "--mu", "0.02"],
    ["stein", "dna", "--n", "100000", "--h", "5", "--alpha", "0.2", "--mu", "0.01"],
    [*HEDGE_T3, "--x", "nan"],
    [*HEDGE_T3, "--x", "inf"],
    ["hedge", "--a", "-0.1", "--b", "0.2", "--r", "0.025", "--lambda", "1e-200", "--p", "0.5", "--T", "3",
     "--claim", "call:K=1.05", "--x", "1.0"],
    ["decompose", "--T", "3", "--marks", "nan,1", "--lambda", "0.5", "--Q", "0.5,0.5"],
    ["verify", "--T", "3", "--marks", "1,-1", "--lambda", "0.5", "--Q", "nan,0.5"],
    ["verify", "--T", "3", "--marks", "inf,1", "--lambda", "0.5", "--Q", "0.5,0.5"],
    ["girsanov", *CTI_FLAGS, "--lambda-target", "0.4", "--Q-target", "nan,0.5"],
    [*HEDGE_T3[:-1], "call:K=nan", "--x", "1"],
    [*HEDGE_T3[:-1], "call:K=-inf", "--x", "1"],
], ids=["simulate-out", "headrun-out", "config", "dna-alpha-limit", "dna-target-underflow",
        "hedge-x-nan", "hedge-x-inf", "hedge-probability-underflow", "decompose-mark-nan", "verify-Q-nan",
        "verify-mark-inf", "girsanov-Q-target-nan", "hedge-strike-nan", "hedge-strike-minus-inf"])
def test_failures_exit_2_with_one_error_line(argv, tmp_path, capsys):
    """Unwritable outputs, unreadable configs, a mark law past the limit, a
    target whose e^-lam0 underflows and non-finite marks, mark probabilities
    or strikes are input errors (exit 2), never a traceback, a silent NaN
    answer or the verify-only exit 1."""
    code = main([arg.format(missing=tmp_path / "missing") for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


_NUMBERS = st.sampled_from(["-1", "0", "1", "2", "3", "0.2", "0.5", "-0.1", "1e-3", "nan", "inf", "x", ""])
_FLAG_VALUES = {
    **{flag: _NUMBERS for flag in ("--T", "--lambda", "--seed", "--paths", "--stream", "--n", "--m", "--p",
                                   "--h", "--alpha", "--mu", "--cutoff", "--a", "--b", "--r", "--x",
                                   "--lambda-target")},
    **{flag: st.sampled_from(["1,-1", "0.5,0.5", "1,2", "0.25,0.75", "1,1", "0.5", "", "a,b"])
       for flag in ("--marks", "--Q", "--Q-target")},
    "--functional": st.sampled_from(["count", "compound", "indicator=5", "indicator=-1", "bogus"]),
    "--claim": st.sampled_from(["call:K=1.05", "discounted_price", "call:K=x", "put"]),
    "--format": st.sampled_from(["json", "csv", "xml"]),
}
_VALID_FLAGS = {
    "simulate": [*CTI_FLAGS, "--paths", "3"],
    "decompose": [*CTI_FLAGS, "--functional", "count"],
    "verify": CTI_FLAGS,
    "girsanov": [*CTI_FLAGS, "--lambda-target", "0.5", "--Q-target", "0.75,0.25"],
    "hedge": ["--a", "-0.1", "--b", "0.2", "--r", "0.025", "--lambda", "0.5", "--p", "0.5", "--T", "3",
              "--claim", "call:K=1.05", "--x", "1.0"],
    "stein headrun": ["--n", "3", "--m", "2", "--p", "0.5"],
    "stein dna": ["--n", "5", "--h", "2", "--alpha", "0.2", "--mu", "0.02"],
    "stein": [],
    "bogus": [],
}


@st.composite
def _argv(draw):
    """A valid command line with flags kept, dropped or given another value,
    plus a few extra flags.  Integer values stay at most 3, so every model is
    tiny, and paths only ever point into a missing directory, so no example
    writes a file."""
    command = draw(st.sampled_from(sorted(_VALID_FLAGS)))
    flags = _VALID_FLAGS[command]
    argv = command.split()
    for flag, value in zip(flags[::2], flags[1::2]):
        action = draw(st.sampled_from(["keep", "keep", "keep", "drop", "change"]))
        if action != "drop":
            argv += [flag, value if action == "keep" else draw(_FLAG_VALUES[flag])]
    extra = st.sampled_from(sorted(_FLAG_VALUES)).flatmap(lambda f: _FLAG_VALUES[f].map(lambda v: [f, v]))
    path = st.sampled_from(["--out", "--config", "--basis-csv"]).map(lambda f: [f, "/nonexistent-mbp-dir/f"])
    for pair in draw(st.lists(st.one_of(extra, path), max_size=3)):
        argv += pair
    return argv


@given(_argv())
def test_main_exit_contract_on_generated_arguments(argv):
    """Any argument list: exit 0, 1 or 2, no traceback, and 1 only from verify."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert argv[0] == "verify", argv
