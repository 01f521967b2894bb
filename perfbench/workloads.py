"""The benchmark's workloads: seeded inputs, the rounds of CLI commands, and
the untimed checks of their outputs.

A workload is a fixed sequence of rounds.  A round is a short list of
``memn`` command lines (ops) whose combined time is one sample of
``wall_s``; every op's own time is one latency sample.  Inputs are generated
from the run seed during set-up and written as strategy JSON files, so the
program under test sees only files, as a user's script would give it.

Each round writes its outputs under names of their own, so that they can
be checked after the timed loop.  The ``check_*`` functions test one output
or one round of outputs; each workload's ``check`` method applies them to a
round and returns the indices of its ops whose output is wrong.

``min_rounds`` is the least number of rounds of an untraced run, so that its
tail percentile has enough samples; ``trace_rounds`` is the fixed number of
rounds of a traced run, about ``run_seconds`` of work for the untraced and
traced halves together.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

FIELD_VARIANTS = ("full", "sym", "antisym", "antisym-reparam")
FIELD_N = 4
PAYOFF_N = 5
FIELD_POOL = 64
PAYOFF_POOL = 128
PAYOFFS_PER_ROUND = 4
DECOMPOSITION_RTOL = 1e-9
COLLINEAR_RTOL = 1e-9
PAYOFF_RTOL = 1e-9


@dataclass
class Round:
    """The command lines of one round and what their outputs are checked with."""

    ops: list
    outputs: list
    context: dict = field(default_factory=dict)


def _write_strategy(path: str, n: int, probs: np.ndarray) -> None:
    with open(path, "w", encoding="utf8") as handle:
        json.dump({"n": n, "probs": probs.tolist()}, handle)


def _read_json(path: str):
    with open(path, encoding="utf8") as handle:
        return json.load(handle)


# --- output checks -------------------------------------------------------


def check_field_round(fields: dict) -> set:
    """Variant identities of one point: full = sym + antisym, and
    antisym-reparam is a positive multiple of antisym.

    ``fields`` maps each variant of ``FIELD_VARIANTS`` to its field vector;
    returns the set of variant names whose output fails a check.
    """
    full, sym, anti, reparam = (np.asarray(fields[v], float) for v in FIELD_VARIANTS)
    bad = set()
    scale = max(float(np.linalg.norm(full)), 1e-300)
    if not float(np.linalg.norm(full - sym - anti)) <= DECOMPOSITION_RTOL * scale:
        bad |= {"full", "sym", "antisym"}
    norms = float(np.linalg.norm(anti)) * float(np.linalg.norm(reparam))
    cosine = float(anti @ reparam) / norms if norms > 0.0 else float("nan")
    if not cosine >= 1.0 - COLLINEAR_RTOL:
        bad |= {"antisym", "antisym-reparam"}
    return bad


def check_central_difference(analytic, central, rtol: float) -> bool:
    """True when the analytic field matches central differences to ``rtol``."""
    analytic = np.asarray(analytic, float)
    central = np.asarray(central, float)
    scale = max(float(np.abs(analytic).max()), 1e-12)
    return bool(float(np.abs(analytic - central).max()) <= rtol * scale)


def check_payoff(result: dict, reference: float) -> bool:
    """A = A_s + A_a, and the determinant payoff equals the stationary one."""
    a, a_s, a_a = (float(result[k]) for k in ("A", "A_s", "A_a"))
    closure = abs(a - (a_s + a_a)) <= PAYOFF_RTOL * max(1.0, abs(a))
    agree = abs(a - reference) <= PAYOFF_RTOL * max(1.0, abs(reference))
    return bool(closure and agree)


def check_verify(exit_code: int, report: dict) -> bool:
    """Exit code 0 and every battery check passed."""
    checks = report.get("checks") or []
    return bool(
        exit_code == 0
        and report.get("passed") is True
        and checks
        and all(c.get("passed") is True for c in checks)
    )


# --- workloads -----------------------------------------------------------


class VerifyDefault:
    """``memn verify --seed <s>`` with the default n_max = 2 and 50 trials."""

    name = "verify-default"
    min_rounds = 3
    trace_rounds = 1
    # no percentile has 10 of 3 samples beyond it, so the tail is the median
    tail_percentile = 50.0

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.workdir = workdir
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=64)]
        self.warm_seed = int(rng.integers(0, 2**31 - 1))

    def warm_up(self):
        return ["verify", "symmetry", "--seed", str(self.warm_seed)]

    def round(self, k: int) -> Round:
        seed = self.seeds[k % len(self.seeds)]
        out = os.path.join(self.workdir, f"verify-{k}.json")
        return Round(ops=[["verify", "--seed", str(seed), "--out", out]], outputs=[out])

    def check(self, rnd: Round, exit_codes: list, memn) -> set:
        return set() if check_verify(exit_codes[0], _read_json(rnd.outputs[0])) else {0}


class FieldN4:
    """``memn field --n 4 --at <x> --variant V`` for all four variants of a point."""

    name = "field-n4"
    min_rounds = 10
    trace_rounds = 5
    tail_percentile = 75.0

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.workdir = workdir
        size = 4**FIELD_N
        self.points = []
        for k in range(FIELD_POOL):
            path = os.path.join(workdir, f"x{k}.json")
            _write_strategy(path, FIELD_N, rng.uniform(0.1, 0.9, size))
            self.points.append(path)
        self.warm_point = os.path.join(workdir, "warm.json")
        _write_strategy(self.warm_point, FIELD_N, rng.uniform(0.1, 0.9, size))
        self.central_checked = False

    def warm_up(self):
        out = os.path.join(self.workdir, "warm-out.json")
        return ["field", "--n", str(FIELD_N), "--at", self.warm_point, "--out", out]

    def round(self, k: int) -> Round:
        point = self.points[k % len(self.points)]
        ops, outputs = [], []
        for variant in FIELD_VARIANTS:
            out = os.path.join(self.workdir, f"field-{k}-{variant}.json")
            ops.append(["field", "--n", str(FIELD_N), "--at", point, "--variant", variant, "--out", out])
            outputs.append(out)
        return Round(ops=ops, outputs=outputs, context={"point": point})

    def check(self, rnd: Round, exit_codes: list, memn) -> set:
        if any(exit_codes):
            return {i for i, code in enumerate(exit_codes) if code}
        fields = {v: _read_json(p)["field"] for v, p in zip(FIELD_VARIANTS, rnd.outputs)}
        bad = {FIELD_VARIANTS.index(v) for v in check_field_round(fields)}
        if not self.central_checked:
            # once per run: the analytic full field against central differences
            self.central_checked = True
            out = os.path.join(self.workdir, "field-central.json")
            with contextlib.redirect_stdout(io.StringIO()):
                code = memn.cli.main(
                    ["field", "--n", str(FIELD_N), "--at", rnd.context["point"],
                     "--method", "central_difference", "--out", out]
                )
            rtol = memn.tolerances.DEFAULTS["gradient_relative"]
            if code != 0 or not check_central_difference(
                fields["full"], _read_json(out)["field"], rtol
            ):
                bad.add(0)
        return bad


class PayoffN5:
    """``memn payoff --n 5 --p <p> --q <q>`` on seeded interior pairs."""

    name = "payoff-n5"
    min_rounds = 25
    trace_rounds = 12
    tail_percentile = 90.0

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.workdir = workdir
        size = 4**PAYOFF_N
        self.pairs = []
        for k in range(PAYOFF_POOL + 1):
            p = os.path.join(workdir, f"p{k}.json")
            q = os.path.join(workdir, f"q{k}.json")
            _write_strategy(p, PAYOFF_N, rng.uniform(0.05, 0.95, size))
            _write_strategy(q, PAYOFF_N, rng.uniform(0.05, 0.95, size))
            self.pairs.append((p, q))
        self.warm_pair = self.pairs.pop()

    def _op(self, pair, out):
        return ["payoff", "--n", str(PAYOFF_N), "--p", pair[0], "--q", pair[1], "--out", out]

    def warm_up(self):
        return self._op(self.warm_pair, os.path.join(self.workdir, "warm-out.json"))

    def round(self, k: int) -> Round:
        ops, outputs, pairs = [], [], []
        for j in range(PAYOFFS_PER_ROUND):
            pair = self.pairs[(k * PAYOFFS_PER_ROUND + j) % len(self.pairs)]
            out = os.path.join(self.workdir, f"payoff-{k}-{j}.json")
            ops.append(self._op(pair, out))
            outputs.append(out)
            pairs.append(pair)
        return Round(ops=ops, outputs=outputs, context={"pairs": pairs})

    def check(self, rnd: Round, exit_codes: list, memn) -> set:
        core, markov = memn.core, memn.markov
        f = core.build_payoff_vector(core.GameParams.donation(2.0, 1.0), PAYOFF_N)
        bad = set()
        for i, (code, out, pair) in enumerate(zip(exit_codes, rnd.outputs, rnd.context["pairs"])):
            if code:
                bad.add(i)
                continue
            p, q = (core.StrategyVector(PAYOFF_N, _read_json(path)["probs"]) for path in pair)
            reference = markov.payoff(p, q, f, method="stationary")
            if not check_payoff(_read_json(out), reference):
                bad.add(i)
        return bad


WORKLOADS = {w.name: w for w in (VerifyDefault, FieldN4, PayoffN5)}
