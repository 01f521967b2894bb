"""Command-line interface tests: schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memn
from memn import __version__
from memn.battery import _BATTERY, FAULT_DELTA, run_battery
from memn.cli import build_parser, main
from memn.core import GameParams, StrategyVector, bar_permutation, build_payoff_vector
from memn.markov import decompose_payoff, payoff, payoff_from_column
from memn.tolerances import DEFAULTS


@pytest.fixture
def strategy_files(tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"n": 1, "probs": [0.8, 0.2, 0.8, 0.2]}))
    q.write_text(json.dumps({"n": 1, "probs": [0.6, 0.3, 0.6, 0.3]}))
    return p, q


def test_matrix_command(strategy_files, tmp_path, capsys):
    p, q = strategy_files
    out = tmp_path / "matrix.json"
    assert main(["matrix", "--n", "1", "--p", str(p), "--q", str(q), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["version"] == __version__
    assert payload["n"] == 1
    assert len(payload["rows"]) == 4
    row_cd = payload["rows"][1]
    assert [col for col, _ in row_cd] == [0, 1, 2, 3]
    # p_CD = 0.2 and the co-player cooperates after DC with 0.6
    assert row_cd[0][1] == pytest.approx(0.2 * 0.6)


def test_matrix_permutation_rows_for_unit_strategies(tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"n": 1, "probs": [1, 1, 1, 1]}))
    out = tmp_path / "m.json"
    assert main(["matrix", "--n", "1", "--p", str(p), "--q", str(p), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for row in payload["rows"]:
        values = sorted(v for _, v in row)
        assert values == [0.0, 0.0, 0.0, 1.0]


def test_payoff_command(strategy_files, capsys):
    p, q = strategy_files
    assert main(["payoff", "--n", "1", "--p", str(p), "--q", str(q), "--b", "2", "--c", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    f = build_payoff_vector(GameParams.donation(2, 1), 1)
    ps = StrategyVector(1, np.array([0.8, 0.2, 0.8, 0.2]))
    qs = StrategyVector(1, np.array([0.6, 0.3, 0.6, 0.3]))
    assert payload["A"] == pytest.approx(payoff(ps, qs, f), abs=1e-12)
    a_s, a_a = decompose_payoff(ps, qs, f)
    assert payload["A_s"] == pytest.approx(a_s, abs=1e-12)
    assert payload["A_a"] == pytest.approx(a_a, abs=1e-12)
    assert payload["A"] == pytest.approx(payload["A_s"] + payload["A_a"], abs=1e-10)


def test_payoff_command_memory5_matches_determinant_quotient(tmp_path, capsys):
    rng = np.random.default_rng(55)
    paths = []
    strategies = []
    for name in ("p", "q"):
        probs = rng.uniform(0.05, 0.95, 4**5)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 5, "probs": probs.tolist()}))
        paths.append(str(path))
        strategies.append(StrategyVector(5, probs))
    assert main(["payoff", "--n", "5", "--p", paths[0], "--q", paths[1]]) == 0
    payload = json.loads(capsys.readouterr().out)
    f = build_payoff_vector(GameParams.donation(2, 1), 5)
    swapped = f[bar_permutation(5)]
    columns = {"A": f, "A_s": 0.5 * (f + swapped), "A_a": 0.5 * (f - swapped)}
    for key, column in columns.items():
        assert payload[key] == pytest.approx(
            payoff_from_column(*strategies, column), abs=1e-9
        )


def test_payoff_command_reports_the_solve(strategy_files, tmp_path, capsys):
    """The payoff JSON names the solve behind it, and reruns are identical."""
    p, q = strategy_files
    assert main(["payoff", "--n", "1", "--p", str(p), "--q", str(q)]) == 0
    solve = json.loads(capsys.readouterr().out)["solve"]
    assert solve["method"] == "dense" and solve["iterations"] == 0
    assert solve["residual"] <= 1e-15
    rng = np.random.default_rng(56)
    paths = []
    for name in ("p5", "q5"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 5, "probs": rng.uniform(0.05, 0.95, 4**5).tolist()}))
        paths.append(str(path))
    outputs = []
    for _ in range(2):
        assert main(["payoff", "--n", "5", "--p", paths[0], "--q", paths[1]]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert set(payload) == {"version", "A", "A_s", "A_a", "solve"}
    assert payload["solve"]["method"] == "matrix-free"
    assert 0 < payload["solve"]["iterations"] < 1000
    assert payload["solve"]["residual"] <= 1e-15


def test_field_command(strategy_files, capsys):
    p, _ = strategy_files
    assert main(["field", "--at", str(p), "--variant", "antisym", "--b", "2", "--c", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["variant"] == "antisymmetric"
    assert len(payload["field"]) == 4


def test_commands_in_one_process_match_each_run_alone(tmp_path, capsys):
    """main reuses one parser, and no option of one call carries over to
    the next: each output equals the same command run in a fresh process.
    At memory 2 the 1/N averaging that --unnormalized skips is a halving."""
    rng = np.random.default_rng(12)
    p, q = (str(tmp_path / f"{name}.json") for name in "pq")
    for path in (p, q):
        Path(path).write_text(json.dumps({"n": 2, "probs": rng.uniform(0.1, 0.9, 16).tolist()}))
    commands = [
        ["payoff", "--n", "2", "--p", p, "--q", q, "--unnormalized"],
        ["payoff", "--n", "2", "--p", p, "--q", q],
        ["field", "--at", p, "--variant", "sym"],
        ["field", "--at", p],
    ]
    outputs = []
    for argv in commands:
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert build_parser() is build_parser()
    assert outputs[0] != outputs[1] and outputs[2] != outputs[3]
    src = str(Path(memn.__file__).resolve().parents[1])
    for argv, output in zip(commands, outputs):
        alone = subprocess.run(
            [sys.executable, "-m", "memn.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert alone.returncode == 0 and alone.stdout == output


def test_integrate_deterministic(tmp_path, capsys):
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps({"n": 1, "probs": [0.6, 0.45, 0.5, 0.4]}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    flags = ["integrate", "--x0", str(x0), "--variant", "antisym",
             "--n", "1", "--b", "2", "--c", "1", "--dt", "1e-3",
             "--tmax", "0.5"]
    assert main(flags + ["--out", str(out1)]) == 0
    assert main(flags + ["--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.splitlines()
    assert lines[0].startswith(f"# memn {__version__}")
    assert lines[0].endswith(" stop=t_max rejected=0 floor=0")
    assert lines[1] == "t,p0,p1,p2,p3,G1,G2,G3,field_norm"
    assert len(lines) == 503  # header comment + column row + 501 states


def test_verify_suite_and_exit_codes(tmp_path):
    report_path = tmp_path / "report.json"
    code = main([
        "verify", "symmetry", "--trials", "5", "--seed", "7",
        "--out", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True
    assert payload["version"] == __version__
    ids = [c["check_id"] for c in payload["checks"]]
    assert ids == [
        "permutation-group",
        "conjugation-identities",
        "admissibility",
        "payoff-reflection",
        "j2-multiplicities",
    ]
    for check in payload["checks"]:
        assert set(check) == {
            "check_id", "claim", "max_residual", "tolerance",
            "passed", "detail",
        }


def test_verify_reruns_identical_outside_timing(tmp_path):
    """Every wall time sits in the report's one ``timing`` block, and all
    outside it is identical between two runs with the same arguments."""
    reports = []
    for k in range(2):
        path = tmp_path / f"run{k}.json"
        assert main(["verify", "symmetry", "--trials", "5", "--seed", "7",
                     "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        timing = payload.pop("timing")
        assert set(timing) == {"total", "checks"}
        assert set(timing["checks"]) == {c["check_id"] for c in payload["checks"]}
        reports.append(json.dumps(payload, indent=2, sort_keys=True))
    assert reports[0] == reports[1]


def test_verify_two_seeds_same_verdicts(tmp_path):
    verdicts = {}
    for seed in (7, 8):
        path = tmp_path / f"r{seed}.json"
        main(["verify", "symmetry", "--trials", "5", "--seed", str(seed),
              "--out", str(path)])
        payload = json.loads(path.read_text())
        verdicts[seed] = [(c["check_id"], c["passed"]) for c in payload["checks"]]
    assert verdicts[7] == verdicts[8]


def test_verify_fault_injection_fails(tmp_path):
    path = tmp_path / "fault.json"
    code = main([
        "verify", "--trials", "3", "--inject-fault", "--out", str(path),
    ])
    assert code == 1
    payload = json.loads(path.read_text())
    ids = [c["check_id"] for c in payload["checks"]]
    assert len(ids) == len(set(ids))  # every check id appears exactly once
    assert ids == [
        "matrix-structure",
        "permutation-group",
        "conjugation-identities",
        "admissibility",
        "payoff-methods",
        "reactive-closed-form",
        "constant-shift",
        "payoff-decomposition",
        "payoff-reflection",
        "gradient-consistency",
        "closed-form-fields",
        "field-decomposition",
        "counting-consistency",
        "reactive-fields",
        "conserved-drift",
        "tft-stationarity",
        "z2-mirror",
        "j2-multiplicities",
        "perturbation-envelope",
    ]
    assert payload["passed"] == all(c["passed"] for c in payload["checks"])
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["check_id"] for c in failed] == ["matrix-structure"]
    # the residual is the row-sum defect of the perturbed transition entry
    fault = failed[0]["detail"]["fault_injected"]
    assert fault == {"n": 1, "row": 0, "column": 0, "delta": FAULT_DELTA}
    assert failed[0]["max_residual"] == pytest.approx(FAULT_DELTA, rel=1e-12)
    assert failed[0]["detail"]["recursion_bit_exact"] is True


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["payoff", "--n", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--n-max", "3", "--trials", "1"])
    assert err.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as err:
        main(["field", "--at", str(bad)])
    assert err.value.code == 2
    missing_field = tmp_path / "missing.json"
    missing_field.write_text(json.dumps({"probs": [1, 0, 1, 0]}))
    with pytest.raises(SystemExit) as err:
        main(["field", "--at", str(missing_field)])
    assert err.value.code == 2
    wrong_n = tmp_path / "n2.json"
    wrong_n.write_text(json.dumps({"n": 2, "probs": [0.5] * 16}))
    with pytest.raises(SystemExit) as err:
        main(["matrix", "--n", "1", "--p", str(wrong_n), "--q", str(wrong_n)])
    assert err.value.code == 2


def test_matrix_rejects_memory_order_zero(tmp_path):
    """A strategy file with n = 0 is refused when the strategy is built,
    before any history index is computed."""
    x = tmp_path / "n0.json"
    x.write_text(json.dumps({"n": 0, "probs": [0.5]}))
    src = str(Path(memn.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "memn.cli", "matrix", "--n", "0", "--p", str(x), "--q", str(x)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    assert "memory order must be >= 1" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("n", [1.9, "1", True], ids=["float", "string", "bool"])
def test_matrix_rejects_a_memory_order_that_is_not_an_integer(n, tmp_path):
    """Only a JSON integer is a memory order: 1.9 is not truncated to 1, and
    "1" and true are refused too."""
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"n": n, "probs": [0.5, 0.5, 0.5, 0.5]}))
    src = str(Path(memn.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "memn.cli", "matrix", "--n", "1", "--p", str(x), "--q", str(x)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    message = f"strategy file {x}: n must be a JSON integer, not {json.dumps(n)}"
    assert done.stderr == f"memn: {message}\n"


@pytest.mark.parametrize(
    ("value", "found"),
    [(["0.5", 0.5, 0.5, 0.5], '"0.5"'), ([0.5, 0.5, True, 0.5], "true")],
    ids=["string", "bool"],
)
def test_matrix_rejects_probabilities_that_are_not_numbers(value, found, tmp_path):
    """Only JSON numbers are probabilities: "0.5" is not parsed and true is
    not 1."""
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"n": 1, "probs": value}))
    src = str(Path(memn.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "memn.cli", "matrix", "--n", "1", "--p", str(x), "--q", str(x)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    message = f"strategy file {x}: probs must be a list of JSON numbers; found {found}"
    assert done.stderr == f"memn: {message}\n"


@pytest.mark.parametrize("command", ["payoff", "field"])
@pytest.mark.parametrize(
    ("game", "payoffs"),
    [(["--payoffs", "nan", "0", "5", "1"], "(nan, 0.0, 5.0, 1.0)"),
     (["--b", "inf", "--c", "1"], "(inf, -1.0, inf, 0.0)")],
    ids=["nan", "inf"],
)
def test_non_finite_game_payoffs_exit_two(command, game, payoffs, tmp_path):
    """A NaN or infinite one-round payoff is refused before any solve, so no
    NaN reaches the JSON and no singular-chain error names the wrong cause."""
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"n": 1, "probs": [0.6, 0.45, 0.5, 0.4]}))
    if command == "payoff":
        argv = ["payoff", "--n", "1", "--p", str(x), "--q", str(x)]
    else:
        argv = ["field", "--at", str(x)]
    src = str(Path(memn.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "memn.cli", *argv, *game],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    assert done.stderr == f"memn: game payoffs (R, S, T, P) must be finite, got {payoffs}\n"
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("unnormalized", [False, True])
def test_payoffs_near_the_float_limit_give_json_or_exit_two(unnormalized, tmp_path):
    """R = T = 1e308 is finite: the normalized memory-1 payoff and its split
    stay finite, so the output is strict JSON; the unnormalized memory-2
    vector sums two of them and overflows, which is refused with exit 2, the
    payoffs named and no traceback."""
    x = tmp_path / "x.json"
    n = 2 if unnormalized else 1
    x.write_text(json.dumps({"n": n, "probs": [0.6, 0.45, 0.5, 0.4] * 4 ** (n - 1)}))
    argv = ["payoff", "--n", str(n), "--p", str(x), "--q", str(x)]
    argv += ["--payoffs", "1e308", "0", "1e308", "0"] + ["--unnormalized"] * unnormalized
    src = str(Path(memn.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "memn.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    if unnormalized:
        assert done.returncode == 2
        payoffs = "(1e+308, 0.0, 1e+308, 0.0)"
        assert done.stderr == f"memn: game payoffs (R, S, T, P) = {payoffs} overflow memory 2\n"
        return
    assert done.returncode == 0, done.stderr

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    out = json.loads(done.stdout, parse_constant=refuse)
    assert 0 < out["A_s"] < 1e308 and out["A"] == pytest.approx(out["A_s"] + out["A_a"])


def test_imports_need_numpy_alone():
    """numpy is the only declared runtime dependency: importing the package,
    its CLI and its battery loads none of scipy, mpmath or sympy."""
    src = str(Path(memn.__file__).resolve().parents[1])
    code = (
        "import sys, memn, memn.cli, memn.battery; "
        "print(sorted({'scipy', 'mpmath', 'sympy'} & {m.split('.')[0] for m in sys.modules}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--x0", "{x}", "--dt", "0", "--out", "{out}"],
        ["integrate", "--x0", "{x}", "--dt", "0", "--method", "rk45-adaptive",
         "--out", "{out}"],
        ["field", "--at", "{x}", "--h", "1"],
        ["verify", "--trials", "0"],
        ["verify", "--n-max", "0"],
        ["integrate", "--x0", "{x}", "--tmax", "-1", "--out", "{out}"],
    ],
)
def test_invalid_arguments_exit_two_without_traceback(argv, tmp_path):
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"n": 1, "probs": [0.6, 0.45, 0.5, 0.4]}))
    args = [a.format(x=x, out=tmp_path / "out.csv") for a in argv]
    src = str(Path(memn.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "memn.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    assert done.stderr.startswith("memn: ")
    assert "Traceback" not in done.stderr


def test_central_difference_field_above_4096_states_exits_two(tmp_path):
    """Central differences build a dense B per evaluation, 2.1 GB at memory
    7 (16,384 states): the command refuses it as a usage error."""
    x = tmp_path / "x7.json"
    x.write_text(json.dumps({"n": 7, "probs": [0.5] * 4**7}))
    with pytest.raises(SystemExit) as err:
        main(["field", "--at", str(x), "--method", "central_difference"])
    assert err.value.code == 2


def test_every_ledger_key_governs_a_check():
    named = set()
    for *_, key in _BATTERY:
        named.update(key if isinstance(key, tuple) else (key,))
    assert set(DEFAULTS) == named


# ledger keys that bound a measured value from below
LOWER_BOUNDS = {"tft_order_minimum", "perturbation_ratio_low"}


@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_ledger_key_past_its_value_fails_its_checks(key, tmp_path, monkeypatch):
    """Set alone past any value a check can measure (-1 for an upper bound,
    1e9 for a lower one), a ledger key fails every check that names it."""
    governed = {
        check_id
        for check_id, _, _, tol_key in _BATTERY
        if key in (tol_key if isinstance(tol_key, tuple) else (tol_key,))
    }
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps({key: 1e9 if key in LOWER_BOUNDS else -1.0}))
    monkeypatch.setenv("MEMN_TOLERANCES", str(overrides))
    checks = run_battery(trials=3, only=governed).checks
    assert {c.check_id for c in checks} == governed
    assert not any(c.passed for c in checks)


def test_conserved_drift_fails_when_g2_drifts(monkeypatch):
    """A G2 that the anti-symmetric flow does not conserve (the paper's G2
    plus 0.1 p_CC^2) fails conserved-drift, and the detail fits the cubic
    that the path does conserve."""
    original = memn.dynamics.conserved_quantities_memory1

    def drifting(p):
        g1, g2, g3 = original(p)
        return g1, g2 + 0.1 * np.asarray(p)[..., 0] ** 2, g3

    monkeypatch.setattr(memn.dynamics, "conserved_quantities_memory1", drifting)
    (check,) = run_battery(trials=3, only={"conserved-drift"}).checks
    assert not check.passed
    assert not check.detail["G2_passed"]
    assert check.max_residual == check.detail["G2"] > check.tolerance
    assert check.detail["G2_fit_residual"] <= 1e-4


def test_tolerance_override_env(tmp_path, monkeypatch):
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps({"payoff_methods": 1e-30}))
    monkeypatch.setenv("MEMN_TOLERANCES", str(overrides))
    path = tmp_path / "strict.json"
    code = main(["verify", "--trials", "3", "--out", str(path)])
    assert code == 1
    payload = json.loads(path.read_text())
    failing = {c["check_id"] for c in payload["checks"] if not c["passed"]}
    assert failing == {"payoff-methods"}
    monkeypatch.delenv("MEMN_TOLERANCES")
    baseline = json.loads((tmp_path / "strict.json").read_text())
    assert baseline["tolerance_hash"]


def test_admissible_rank1_override_governs_admissibility(tmp_path, monkeypatch):
    """With the rank-1 bound relaxed to 1, every memory-1 permutation passes
    the structure test, so the check's count of eight must fail."""
    argv = ["verify", "symmetry", "--n-max", "1", "--trials", "3"]
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps({"admissible_rank1": 1.0}))
    outcomes = {}
    for label, env in (("default", None), ("relaxed", str(overrides))):
        if env is None:
            monkeypatch.delenv("MEMN_TOLERANCES", raising=False)
        else:
            monkeypatch.setenv("MEMN_TOLERANCES", env)
        path = tmp_path / f"{label}.json"
        main(argv + ["--out", str(path)])
        checks = json.loads(path.read_text())["checks"]
        outcomes[label] = next(c for c in checks if c["check_id"] == "admissibility")
    assert outcomes["default"]["passed"]
    assert not outcomes["relaxed"]["passed"]
    assert outcomes["relaxed"]["detail"]["memory1_admissible_count"] == 24


def test_admissible_row_sum_override_governs_admissibility(tmp_path, monkeypatch):
    """The structure test reads its row-sum bound from the ledger: with the
    bound tightened to 0 an admissible map fails wherever a conjugated row
    sums to one only up to rounding, so the check's count of eight must
    fail, while the default passes."""
    argv = ["verify", "symmetry", "--n-max", "1", "--trials", "3"]
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps({"admissible_row_sum": 0.0}))
    outcomes = {}
    for label, env in (("default", None), ("exact", str(overrides))):
        if env is None:
            monkeypatch.delenv("MEMN_TOLERANCES", raising=False)
        else:
            monkeypatch.setenv("MEMN_TOLERANCES", env)
        path = tmp_path / f"{label}.json"
        main(argv + ["--out", str(path)])
        checks = json.loads(path.read_text())["checks"]
        outcomes[label] = next(c for c in checks if c["check_id"] == "admissibility")
    assert outcomes["default"]["passed"]
    assert outcomes["default"]["detail"]["memory1_admissible_count"] == 8
    assert not outcomes["exact"]["passed"]
    assert outcomes["exact"]["detail"]["memory1_admissible_count"] < 8


def test_counting_invariance_override_governs_counting_consistency(tmp_path, monkeypatch):
    """The counting-consistency check reads its hyperplane-gap bound from
    the ledger and passes it to the restriction: tightened below the
    rounding gap of the memory-1 field (about 1e-16), the check fails with
    an infinite residual where the default passes."""
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps({"counting_invariance": 1e-17}))
    checks = {}
    for label, env in (("default", None), ("strict", str(overrides))):
        if env is None:
            monkeypatch.delenv("MEMN_TOLERANCES", raising=False)
        else:
            monkeypatch.setenv("MEMN_TOLERANCES", env)
        (checks[label],) = run_battery(trials=10, only={"counting-consistency"}).checks
    assert checks["default"].passed
    assert not checks["strict"].passed and checks["strict"].max_residual == float("inf")


def test_reactive_fields_override_governs_reactive_fields(tmp_path, monkeypatch):
    """The reactive-fields check reads its own ledger key: tightening it
    fails that check alone."""
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps({"reactive_fields": 1e-30}))
    monkeypatch.setenv("MEMN_TOLERANCES", str(overrides))
    path = tmp_path / "strict.json"
    assert main(["verify", "--trials", "3", "--out", str(path)]) == 1
    checks = json.loads(path.read_text())["checks"]
    assert {c["check_id"] for c in checks if not c["passed"]} == {"reactive-fields"}
    reactive = next(c for c in checks if c["check_id"] == "reactive-fields")
    assert reactive["tolerance"] == 1e-30


def test_tolerance_override_rejects_unknown_names(tmp_path, monkeypatch):
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps({"no_such_tolerance": 1.0}))
    monkeypatch.setenv("MEMN_TOLERANCES", str(overrides))
    with pytest.raises(KeyError):
        main(["verify", "--trials", "2"])
