"""Command-line interface: model construction, payoffs, fields, trajectories,
and the verification battery.

Exit codes: 0 on success (and all checks passing), 1 when a verification
check fails or the model refuses its inputs (a ``MemnError``), 2 on usage
errors, which include every ``ValueError`` the library raises for an
invalid argument.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .battery import run_battery
from .core import (
    GameParams,
    StrategyVector,
    build_payoff_vector,
)
from .errors import MemnError
from .dynamics import (
    GRADIENT_METHODS,
    STEPPERS,
    FieldSpec,
    adaptive_field,
    integrate,
)
from .markov import build_transition_matrix, payoff_solve, quad_columns

VARIANT_ALIASES = {
    "full": "full",
    "sym": "symmetric",
    "symmetric": "symmetric",
    "antisym": "antisymmetric",
    "antisymmetric": "antisymmetric",
    "antisym-reparam": "antisymmetric_reparam",
    "antisymmetric_reparam": "antisymmetric_reparam",
}

SUITES = {
    "all": None,
    "symmetry": {
        "permutation-group",
        "conjugation-identities",
        "admissibility",
        "payoff-reflection",
        "j2-multiplicities",
    },
    "dynamics": {
        "gradient-consistency",
        "closed-form-fields",
        "field-decomposition",
        "counting-consistency",
        "reactive-fields",
        "conserved-drift",
        "tft-stationarity",
        "z2-mirror",
        "perturbation-envelope",
    },
}


def parser_error(message: str):
    """Usage errors print to stderr and exit with code 2."""
    print(f"memn: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_strategy(path: str, n: int | None = None) -> StrategyVector:
    try:
        with open(path, encoding="utf8") as handle:
            data = json.load(handle)
    except OSError as exc:
        parser_error(f"cannot read strategy file {path}: {exc}")
    except json.JSONDecodeError as exc:
        parser_error(f"strategy file {path} is not valid JSON (line {exc.lineno}): {exc.msg}")
    try:
        n_field = data["n"]
        if type(n_field) is not int:  # 1.9, "1" and true are not memory orders
            raise TypeError(f"n must be a JSON integer, not {json.dumps(n_field)}")
        probs = data["probs"] if type(data["probs"]) is list else [data["probs"]]
        if not set(map(type, probs)) <= {int, float}:  # "0.5" and true are not probabilities
            bad = next(v for v in probs if type(v) not in (int, float))
            raise TypeError(f"probs must be a list of JSON numbers; found {json.dumps(bad)}")
        strategy = StrategyVector(n_field, np.asarray(probs, float))
    except KeyError as exc:
        parser_error(f"strategy file {path} is missing field {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:
        parser_error(f"strategy file {path}: {exc}")
    if n is not None and strategy.n != n:
        parser_error(f"strategy file {path} has n={strategy.n}, expected n={n}")
    return strategy


def _payoff_vector(args, n: int) -> np.ndarray:
    if args.payoffs is not None:
        params = GameParams(*args.payoffs)
    else:
        params = GameParams.donation(args.b, args.c)
    return build_payoff_vector(params, n, normalized=not args.unnormalized)


def _add_game_flags(parser):
    parser.add_argument("--b", type=float, default=2.0, help="donation benefit")
    parser.add_argument("--c", type=float, default=1.0, help="donation cost")
    parser.add_argument(
        "--payoffs",
        type=float,
        nargs=4,
        metavar=("R", "S", "T", "P"),
        help="explicit one-round payoffs (overrides --b/--c)",
    )
    parser.add_argument(
        "--unnormalized",
        action="store_true",
        help="skip the 1/N averaging of the payoff vector",
    )


def cmd_matrix(args) -> int:
    p = _load_strategy(args.p, args.n)
    q = _load_strategy(args.q, args.n)
    quads = build_transition_matrix(p, q)
    # each row as its (column, value) pairs at the quadruple positions
    rows = zip(quad_columns(len(quads)).tolist(), quads.tolist())
    payload = {
        "version": __version__,
        "n": p.n,
        "rows": [[list(pair) for pair in zip(cols, values)] for cols, values in rows],
    }
    _write_json(args.out, payload)
    return 0


def cmd_payoff(args) -> int:
    p = _load_strategy(args.p, args.n)
    q = _load_strategy(args.q, args.n)
    f = _payoff_vector(args, p.n)
    (value, a_s, a_a), solve = payoff_solve(p, q, f)
    payload = {
        "version": __version__,
        "A": value,
        "A_s": a_s,
        "A_a": a_a,
        "solve": {
            "method": solve.method(),
            "iterations": int(solve.iterations[0]),
            "products": int(solve.products[0]),
            "residual": float(solve.residual[0]),
        },
    }
    _write_json(args.out, payload)
    return 0


def cmd_field(args) -> int:
    x = _load_strategy(args.at, args.n)
    f = _payoff_vector(args, x.n)
    spec = FieldSpec(x.n, f, VARIANT_ALIASES[args.variant], args.method)
    field = adaptive_field(x, spec)
    payload = {
        "version": __version__,
        "variant": spec.variant,
        "field": field.tolist(),
    }
    _write_json(args.out, payload)
    return 0


def cmd_integrate(args) -> int:
    x0 = _load_strategy(args.x0, args.n)
    f = _payoff_vector(args, x0.n)
    variant = VARIANT_ALIASES[args.variant]
    spec = FieldSpec(n=x0.n, payoff=f, variant=variant)
    ensemble = integrate(spec, [x0], dt=args.dt, t_max=args.tmax, method=args.method)
    trajectory = ensemble.members[0]
    names = ",".join(trajectory.conserved)
    conserved = list(trajectory.conserved.values())
    table = np.column_stack(
        [trajectory.times, trajectory.states, *conserved, trajectory.field_norms]
    )
    with open(args.out, "w", encoding="utf8") as handle:
        handle.write(
            f"# memn {__version__} variant={variant} stop={trajectory.stop_reason} "
            f"rejected={trajectory.rejected_steps} floor={trajectory.floor_steps}\n"
        )
        state_cols = ",".join(f"p{i}" for i in range(trajectory.states.shape[1]))
        handle.write(f"t,{state_cols},{names},field_norm\n")
        # "%.17g" is f"{v:.17g}": enough digits to read each value back exactly
        np.savetxt(handle, table, fmt="%.17g", delimiter=",")
    print(
        f"wrote {args.out}: {len(trajectory.times)} steps, "
        f"stop reason {trajectory.stop_reason}"
    )
    return 0


def cmd_verify(args) -> int:
    n_cap = 4 if args.deep else 2
    n_max = n_cap if args.n_max is None else args.n_max
    if n_max > n_cap:
        parser_error(f"n_max={n_max} needs --deep (cap {n_cap} without it)")
    report = run_battery(
        n_max=n_max,
        trials=args.trials,
        seed=args.seed,
        fault_injection=args.inject_fault,
        only=SUITES[args.suite],
    )
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.check_id:24s} residual {check.max_residual:.3e} "
            f"tolerance {check.tolerance:.3e} ({check.wall_time:.2f}s)"
        )
    print(f"{'PASS' if report.passed else 'FAIL'} overall ({report.wall_time:.1f}s)")
    if args.out:
        _write_json(args.out, report.to_dict())
    return 0 if report.passed else 1


def _write_json(path, payload) -> None:
    """``payload`` as one line of strict JSON, to ``path`` or stdout: a
    number that is not finite raises ValueError rather than being written as
    the bare ``Infinity`` or ``NaN`` that RFC 8259 does not allow.  Without
    ``indent`` json.dumps runs its C encoder: a memory-4 field's 256 floats
    took 0.16 ms against 0.29 ms with ``indent``, where it falls back to
    pure Python."""
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf8") as handle:
            handle.write(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``memn`` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="memn",
        description="memory-N repeated donation games: matrices, payoffs, "
        "adaptive dynamics, verification",
    )
    parser.add_argument("--version", action="version", version=f"memn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    matrix = sub.add_parser("matrix", help="emit a transition matrix as sparse JSON")
    matrix.add_argument("--n", type=int, required=True)
    matrix.add_argument("--p", required=True, help="focal strategy JSON file")
    matrix.add_argument("--q", required=True, help="co-player strategy JSON file")
    matrix.add_argument("--out", help="output path (stdout if omitted)")
    matrix.set_defaults(fn=cmd_matrix)

    pay = sub.add_parser("payoff", help="print A, A_s, A_a as JSON")
    pay.add_argument("--n", type=int, required=True)
    pay.add_argument("--p", required=True)
    pay.add_argument("--q", required=True)
    pay.add_argument("--out")
    _add_game_flags(pay)
    pay.set_defaults(fn=cmd_payoff)

    fld = sub.add_parser("field", help="evaluate an adaptive-dynamics field")
    fld.add_argument("--at", required=True, help="strategy JSON file")
    fld.add_argument("--n", type=int)
    fld.add_argument("--variant", choices=sorted(VARIANT_ALIASES), default="full")
    fld.add_argument("--method", choices=GRADIENT_METHODS, default="analytic_determinant")
    fld.add_argument("--out")
    _add_game_flags(fld)
    fld.set_defaults(fn=cmd_field)

    integ = sub.add_parser("integrate", help="integrate a trajectory to CSV")
    integ.add_argument("--x0", required=True, help="starting strategy JSON file")
    integ.add_argument("--n", type=int)
    integ.add_argument("--variant", choices=sorted(VARIANT_ALIASES), default="full")
    integ.add_argument("--dt", type=float, default=1e-3)
    integ.add_argument("--tmax", type=float, default=5.0)
    integ.add_argument("--method", choices=tuple(STEPPERS), default="rk4")
    integ.add_argument("--out", required=True)
    _add_game_flags(integ)
    integ.set_defaults(fn=cmd_integrate)

    verify = sub.add_parser("verify", help="run the verification battery")
    verify.add_argument(
        "suite", nargs="?", choices=sorted(SUITES), default="all",
        help="restrict the report to one family of checks",
    )
    verify.add_argument("--n-max", "--n", dest="n_max", type=int, default=None)
    verify.add_argument("--trials", type=int, default=50)
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--deep", action="store_true", help="allow n_max up to 4")
    verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="negative control: perturb one transition entry",
    )
    verify.add_argument("--out", help="write the JSON report here")
    verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MemnError as exc:
        print(f"memn: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
