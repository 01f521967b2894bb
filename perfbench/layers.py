"""Instrumentation of the memn layers and the per-layer metrics of a traced run.

``instrument`` wraps the public functions of each module (and the dense
solvers of ``numpy.linalg`` that memn calls) in timing wrappers, rebinding
each wrapper under the original's name in every memn module that imports
it.  ``layer_metrics`` turns the recorded spans into the per-layer metrics
listed in ``PER_LAYER``.  A span's layer is the part of its name before the
first dot.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import defaultdict

import numpy

from spans import Patcher, SpanRecorder, self_times, timed

CHECK_IDS = (
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
)

FIELD_ORDERS = (1, 2, 4)

# the metric holding each layer's total self time; these sum to trace.wall_s
SELF_METRIC = {
    "bench": "bench.self_s",
    "cli": "cli.self_s",
    "battery": "battery.self_s",
    "dynamics": "dynamics.self_s",
    "symmetry": "symmetry.s",
    "markov": "markov.self_s",
    "core": "core.self_s",
    "linalg": "linalg.s",
}

PER_LAYER = (
    [
        ("core.strategy_vectors", "count"),
        ("core.strategy_s", "s"),
        ("core.self_s", "s"),
        ("markov.build_calls", "count"),
        ("markov.build_s", "s"),
        ("markov.dense_mb", "MB"),
        ("markov.payoff_s", "s"),
        ("markov.decompose_s", "s"),
        ("markov.stationary_s", "s"),
        ("markov.self_s", "s"),
        ("linalg.factorisations", "count"),
        ("linalg.gflop", "GFLOP"),
        ("linalg.s", "s"),
        ("linalg.gflop_per_s", "GFLOP/s"),
        ("dynamics.field_calls", "count"),
        ("dynamics.field_s", "s"),
    ]
    + [(f"dynamics.field_ms_n{n}", "ms") for n in FIELD_ORDERS]
    + [
        ("dynamics.closed_form_calls", "count"),
        ("dynamics.closed_form_s", "s"),
        ("dynamics.integrate_s", "s"),
        ("dynamics.steps", "count"),
        ("dynamics.field_evals_per_step", "count"),
        ("dynamics.self_s", "s"),
        ("symmetry.calls", "count"),
        ("symmetry.s", "s"),
    ]
    + [(f"battery.{check}_s", "s") for check in CHECK_IDS]
    + [
        ("battery.checks_failed", "count"),
        ("battery.self_s", "s"),
        ("cli.self_s", "s"),
        ("bench.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
)

CLOSED_FORMS = (
    "memory1_field_closed",
    "memory1_antisym_field_closed",
    "counting_antisym_closed",
    "reactive_fields",
)
DYNAMICS_OTHER = (
    "integrate",
    "z2_mirror_check",
    "perturbation_experiment",
    "counting_field",
    "counting_sign_study",
    "counting_edge_equilibria",
    "conserved_report",
    "fit_polynomial_invariant",
)
CORE_CONSTRUCTORS = (
    "build_payoff_vector",
    "tft_strategy",
    "counting_to_full",
    "reactive_strategy",
    "label_swap",
)
MARKOV = {
    "build_transition_matrix_recursive": "markov.build_recursive",
    "stationary_distribution": "markov.stationary",
    "payoff": "markov.payoff",
    "decompose_payoff": "markov.decompose",
    "reactive_payoff": "markov.reactive_payoff",
}


def _lu_measure(args, kwargs, result):
    """Matrices factorised and computed GFLOP (2/3 m^3 each) of an LU call."""
    shape = numpy.shape(args[0] if args else kwargs["a"])
    m = shape[-1]
    batch = math.prod(shape[:-2])
    return batch, batch * (2.0 / 3.0) * m**3 / 1e9


def _svd_measure(args, kwargs, result):
    """Matrices factorised and computed GFLOP (4 r c^2 + 22 c^3, r >= c)."""
    shape = numpy.shape(args[0] if args else kwargs["a"])
    r, c = max(shape[-2:]), min(shape[-2:])
    batch = math.prod(shape[:-2])
    return batch, batch * (4.0 * r * c * c + 22.0 * c**3) / 1e9


def _build_measure(args, kwargs, result):
    """One build; computed dense size^2 * 8 bytes, in MB."""
    return 1, result.size**2 * 8 / 1e6


def _battery_measure(args, kwargs, result):
    """Number of failed checks in the returned report."""
    return sum(1 for c in result.checks if not c.passed), 0.0


def _field_wrapper(recorder: SpanRecorder, fn):
    """``adaptive_field`` with one span name per memory order."""
    ids = {}

    @functools.wraps(fn)
    def wrapper(x, spec, *args, **kwargs):
        name_id = ids.get(x.n)
        if name_id is None:
            name_id = ids[x.n] = recorder.name_id(f"dynamics.field.n{x.n}")
        index = recorder.open(name_id)
        try:
            return fn(x, spec, *args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _integrate_wrapper(recorder: SpanRecorder, fn):
    """``integrate_path`` recording accepted steps and field evaluations."""
    name_id = recorder.name_id("dynamics.integrate")

    @functools.wraps(fn)
    def wrapper(field_fn, *args, **kwargs):
        evaluations = [0]

        def counted(v):
            evaluations[0] += 1
            return field_fn(v)

        index = recorder.open(name_id)
        try:
            result = fn(counted, *args, **kwargs)
        finally:
            recorder.close(index)
        recorder.units[index] = len(result.times) - 1
        recorder.work[index] = evaluations[0]
        return result

    return wrapper


def instrument(recorder: SpanRecorder, memn) -> Patcher:
    """Install the wrappers; the returned patcher's ``restore`` removes them."""
    core, markov, dynamics = memn.core, memn.markov, memn.dynamics
    symmetry, battery = memn.symmetry, memn.battery
    patch = Patcher()

    def wrap(module, attr, name, measure=None):
        original = getattr(module, attr)
        patch.everywhere(original, timed(recorder, name, original, measure))

    strategy = core.StrategyVector
    patch.set(strategy, "__post_init__", timed(recorder, "core.strategy", strategy.__post_init__))
    for attr in CORE_CONSTRUCTORS:
        wrap(core, attr, f"core.{attr}")

    wrap(markov, "build_transition_matrix", "markov.build", _build_measure)
    for attr, name in MARKOV.items():
        wrap(markov, attr, name)

    for attr, measure in (("slogdet", _lu_measure), ("solve", _lu_measure), ("svd", _svd_measure)):
        original = getattr(numpy.linalg, attr)
        patch.set(numpy.linalg, attr, timed(recorder, f"linalg.{attr}", original, measure))

    patch.everywhere(dynamics.adaptive_field, _field_wrapper(recorder, dynamics.adaptive_field))
    patch.everywhere(dynamics.integrate_path, _integrate_wrapper(recorder, dynamics.integrate_path))
    for attr in CLOSED_FORMS:
        wrap(dynamics, attr, f"dynamics.closed_form.{attr}")
    for attr in DYNAMICS_OTHER:
        wrap(dynamics, attr, f"dynamics.{attr}")

    for attr, value in list(vars(symmetry).items()):
        if inspect.isfunction(value) and value.__module__ == symmetry.__name__ \
                and not attr.startswith("_"):
            wrap(symmetry, attr, f"symmetry.{attr}")

    wrap(memn.cli, "main", "cli.main")
    wrap(battery, "run_battery", "battery.run", _battery_measure)
    patch.set(battery, "_BATTERY", [
        (check_id, claim, timed(recorder, f"battery.{check_id}", fn), tol_key)
        for check_id, claim, fn, tol_key in battery._BATTERY
    ])
    return patch


def layer_metrics(recorder: SpanRecorder, untraced_s: float) -> dict:
    """Per-layer metrics of the recorded spans.

    Times are self times, except ``battery.<check>_s`` and
    ``dynamics.field_ms_n*`` which are the inclusive time of the check and
    the mean inclusive time of one field evaluation at that order.
    """
    start, end, parent = recorder.start, recorder.end, recorder.parent
    own = self_times(start, end, parent)

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    units = defaultdict(float)
    work = defaultdict(float)
    layer_self = dict.fromkeys(SELF_METRIC, 0.0)
    wall = 0.0
    for i, name_id in enumerate(recorder.name):
        name = recorder.names[name_id]
        calls[name] += 1
        self_s[name] += own[i]
        total_s[name] += end[i] - start[i]
        units[name] += recorder.units[i]
        work[name] += recorder.work[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
        if parent[i] < 0:
            wall += end[i] - start[i]

    def matching(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    linalg_s = layer_self["linalg"]
    gflop = matching("linalg.", work)
    steps = units["dynamics.integrate"]
    out = {
        "core.strategy_vectors": calls["core.strategy"],
        "core.strategy_s": self_s["core.strategy"],
        "core.self_s": layer_self["core"],
        "markov.build_calls": calls["markov.build"],
        "markov.build_s": self_s["markov.build"],
        "markov.dense_mb": work["markov.build"],
        "markov.payoff_s": self_s["markov.payoff"],
        "markov.decompose_s": self_s["markov.decompose"],
        "markov.stationary_s": self_s["markov.stationary"],
        "markov.self_s": layer_self["markov"],
        "linalg.factorisations": int(matching("linalg.", units)),
        "linalg.gflop": gflop,
        "linalg.s": linalg_s,
        "linalg.gflop_per_s": gflop / linalg_s if linalg_s > 0 else 0.0,
        "dynamics.field_calls": matching("dynamics.field.", calls),
        "dynamics.field_s": matching("dynamics.field.", self_s),
    }
    for n in FIELD_ORDERS:
        name = f"dynamics.field.n{n}"
        out[f"dynamics.field_ms_n{n}"] = 1e3 * total_s[name] / calls[name] if calls[name] else 0.0
    out.update({
        "dynamics.closed_form_calls": matching("dynamics.closed_form.", calls),
        "dynamics.closed_form_s": matching("dynamics.closed_form.", self_s),
        "dynamics.integrate_s": self_s["dynamics.integrate"],
        "dynamics.steps": int(steps),
        "dynamics.field_evals_per_step": work["dynamics.integrate"] / steps if steps else 0.0,
        "dynamics.self_s": layer_self["dynamics"],
        "symmetry.calls": matching("symmetry.", calls),
        "symmetry.s": layer_self["symmetry"],
    })
    for check in CHECK_IDS:
        out[f"battery.{check}_s"] = total_s[f"battery.{check}"]
    out.update({
        "battery.checks_failed": int(units["battery.run"]),
        "battery.self_s": layer_self["battery"],
        "cli.self_s": layer_self["cli"],
        "bench.self_s": layer_self["bench"],
        "trace.wall_s": wall,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": wall - untraced_s,
        "trace.spans": len(recorder),
    })
    unknown = set(layer_self) - set(SELF_METRIC)
    if unknown:
        raise ValueError(f"spans outside the known layers: {sorted(unknown)}")
    return out
