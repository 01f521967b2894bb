#!/usr/bin/env python3
"""Benchmark of the ``memn`` command line, run in-process.

    python3 perfbench/run.py --workload field-n4 --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Set-up imports memn, generates the workload's inputs
from the seed, writes them as strategy JSON files under ``perfbench/work/``
and runs one warm-up command.  The run then sends the workload's commands
to ``memn.cli.main(argv)`` one after another (a closed loop with a single
client) for about ``--seconds`` seconds of command time, and checks every
round's outputs after the timed loop.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the workload's fixed number of
trace rounds is run once untraced and once with every layer's public
functions wrapped in timing spans, and the object holds the per-layer
metrics.  The line before it is a JSON object of run details: machine,
library versions, sample counts and the failure ratio.  The exit code is 0 only when every output check passed.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 150
WORKLOAD_NAMES = ("verify-default", "field-n4", "payoff-n5")


def cap_blas_threads() -> int:
    """Let BLAS use at most as many threads as this process may run on."""
    limit = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            limit = min(limit, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    limit = max(limit, 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(limit)
    return limit


class Harness:
    """Imports memn, owns the workload and runs ops through ``memn.cli.main``."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import numpy as np

        import memn
        import memn.cli
        import memn.tolerances
        import workloads

        if Path(memn.__file__).resolve().parent != SRC / "memn":
            raise RuntimeError(f"memn was imported from {memn.__file__}, not {SRC}")
        self.memn = memn
        workdir.mkdir(parents=True, exist_ok=True)
        self.workload = workloads.WORKLOADS[workload](np.random.default_rng(seed), str(workdir))
        self._sink = io.StringIO()
        code, _ = self.op(self.workload.warm_up())
        if code != 0:
            raise RuntimeError(f"warm-up command failed with exit code {code}")
        self.setup_s = time.perf_counter() - start

    def op(self, argv):
        """Run one CLI command with stdout captured; returns (exit code, seconds)."""
        self._sink.seek(0)
        self._sink.truncate()
        main = self.memn.cli.main
        with contextlib.redirect_stdout(self._sink):
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = -1
            elapsed = time.perf_counter() - start
        return code, elapsed

    def measure(self, seconds=0.0, min_rounds=1, rounds=None, op=None):
        """Run rounds until ``seconds`` of command time, or exactly ``rounds``.

        A new round starts only while it is expected to end within the
        window, but at least ``min_rounds`` are run.  ``op`` replaces
        ``self.op`` as the way one command is run and timed.  Outputs are
        not checked here; pass the result to ``check``.
        """
        op = op or self.op
        result = {"round_s": [], "op_s": [], "done": []}
        spent = 0.0
        k = 0
        while True:
            if rounds is not None:
                if k >= rounds:
                    break
            elif k >= min_rounds and spent + statistics.fmean(result["round_s"]) > seconds:
                break
            rnd = self.workload.round(k)
            for path in rnd.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            codes, times = [], []
            for argv in rnd.ops:
                code, elapsed = op(argv)
                codes.append(code)
                times.append(elapsed)
            result["round_s"].append(sum(times))
            result["op_s"].extend(times)
            result["done"].append((rnd, codes))
            spent += sum(times)
            k += 1
        return result

    def check(self, result) -> tuple[int, int]:
        """Check the outputs of every round ``measure`` ran: (attempted, failed)."""
        attempted = failed = 0
        for rnd, codes in result["done"]:
            try:
                bad = self.workload.check(rnd, codes, self.memn)
            except Exception:
                traceback.print_exc()
                bad = set(range(len(rnd.ops)))
            attempted += len(rnd.ops)
            failed += len(bad)
        return attempted, failed


def traced_run(harness: Harness, workload: str):
    """The workload's fixed ``trace_rounds``, untraced and then traced.

    The round count does not depend on the clock, so every per-layer count
    and time is a total over the same work at any program speed.
    """
    import layers
    from spans import SpanRecorder

    rounds = harness.workload.trace_rounds
    plain = harness.measure(rounds=rounds)
    # outputs are reused by the traced rounds, so check these first
    attempted, failed = harness.check(plain)
    recorder = SpanRecorder()
    op_name = recorder.name_id("bench.op")
    op_counter = [0]

    def traced_op(argv):
        recorder.op_id = op_counter[0]
        op_counter[0] += 1
        index = recorder.open(op_name)
        try:
            code, _ = harness.op(argv)
        finally:
            recorder.close(index)
            recorder.op_id = -1
        return code, recorder.end[index] - recorder.start[index]

    patch = layers.instrument(recorder, harness.memn)
    try:
        traced = harness.measure(rounds=rounds, op=traced_op)
    finally:
        patch.restore()
    traced_attempted, traced_failed = harness.check(traced)
    metrics = layers.layer_metrics(recorder, untraced_s=sum(plain["op_s"]))
    recorder.save(WORK / f"spans-{workload}.npz")
    units = dict(layers.PER_LAYER)
    details = {
        "rounds": rounds,
        "ops": len(plain["op_s"]),
        "layer_self_sum_s": sum(metrics[m] for m in layers.SELF_METRIC.values()),
        "overhead_ratio": metrics["trace.overhead_s"] / metrics["trace.untraced_s"],
    }
    out = {name: {"value": metrics[name], "unit": units[name]} for name, _ in layers.PER_LAYER}
    return out, attempted + traced_attempted, failed + traced_failed, details


def untraced_run(harness: Harness, seconds: float, workload: str, seed: int):
    """The end-to-end metrics.  Half the set-up probes run before the timed
    window and half after it, so that their median spans the run."""
    import numpy as np

    probes = probe_setups(workload, seed, (SETUP_REPEATS - 1) // 2)
    result = harness.measure(seconds, min_rounds=harness.workload.min_rounds)
    # read before the checks, whose reference computations are not the program's ops
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = harness.check(result)
    probes += probe_setups(workload, seed, SETUP_REPEATS - 1 - len(probes))
    setup_samples = [harness.setup_s] + probes
    ops_ms = [1e3 * t for t in result["op_s"]]
    q = harness.workload.tail_percentile
    tail = float(np.percentile(ops_ms, q))
    details = {
        "rounds": len(result["round_s"]),
        "ops": len(ops_ms),
        "tail_percentile": q,
        "tail_samples_beyond": sum(1 for v in ops_ms if v > tail),
        "setup_samples_s": setup_samples,
        "round_s": result["round_s"],
    }
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(result["round_s"]), "s"),
        "op_ms_p50": (statistics.median(ops_ms), "ms"),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return out, attempted, failed, details


def probe_setups(workload: str, seed: int, count: int) -> list:
    """Set-up times of ``count`` fresh processes, each measured inside the process."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_metadata(seed: int, threads: int, memn) -> dict:
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    blas = {}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf8") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "blas": blas,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "memn": memn.__version__,
        "seed": seed,
        "src_lines": src_lines,
    }


def git_commit():
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="command time of the untraced run; a traced run runs fixed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "memn" / "__init__.py").is_file():
        print(f"perfbench: no memn sources under {SRC}", file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    workdir = WORK / (args.workload + ("-probe" if args.setup_probe else ""))
    harness = Harness(args.workload, args.seed, workdir)
    if args.setup_probe:
        print(repr(harness.setup_s))
        return 0
    if args.trace:
        metrics, attempted, failed, details = traced_run(harness, args.workload)
    else:
        metrics, attempted, failed, details = untraced_run(
            harness, args.seconds, args.workload, args.seed
        )
    details.update({
        "workload": args.workload,
        "trace": args.trace,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "meta": run_metadata(args.seed, threads, harness.memn),
    })
    print(json.dumps(details))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
