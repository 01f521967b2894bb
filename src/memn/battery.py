"""One-shot verification battery behind ``memn verify``.

Each check exercises one finitely checkable identity of the model at desk
scale and returns its worst residual, the bound it is held to and a detail
map; it passes when the residual is at most the bound.  The bound is a
ledger value, or 0 where the residual is already a shortfall or an excess
measured against the ledger, or a count of failures of an exact identity.
Checks are deterministic given the seed, each from its own generator
(:func:`run_battery`); the report records seed, tolerance hash and
per-check wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .core import (
    GameParams,
    StrategyVector,
    build_payoff_vector,
    label_swap,
    n_states,
    reactive_strategy,
    tft_strategy,
)
from .dynamics import (
    FieldSpec,
    adaptive_field,
    conserved_report,
    counting_antisym_closed,
    counting_edge_equilibria,
    counting_sign_study,
    field_rows,
    fit_polynomial_invariant,
    integrate,
    memory1_antisym_field_closed,
    memory1_field_closed,
    perturbation_experiment,
    reactive_fields,
    restrict_to_counting,
    z2_mirror_check,
)
from .errors import InvarianceViolationError, MemnError
from .markov import (
    build_transition_matrix,
    build_transition_matrix_recursive,
    decompose_payoff,
    dense_matrix,
    payoff,
    payoff_solve,
    reactive_payoff,
)
from .symmetry import (
    KINDS,
    admissible_set_bruteforce_memory1,
    build_j,
    build_j_recursive,
    check_admissible,
    compose,
    conjugate_matrix,
    full_group,
    j2_eigenvalue_multiplicities,
    payoff_vector_reflection_residual,
)
from .tolerances import load_tolerances, tolerance_hash

DONATION_B = 2.0
DONATION_C = 1.0
FAULT_DELTA = 1e-3
# The memory-1 leg of conserved-drift: RK4 keeps the linear G1 to rounding
# at any step, and drifts the cubic G3 as dt^4 (Hairer, Lubich & Wanner,
# Geometric Numerical Integration, 2006, ch. IV).  At seed 7 the worst
# memory-1 rate read 5.1e-13 at dt = 1e-3, 2.7e-10 at 5e-3 and 4.2e-9 at
# 1e-2 against conserved_drift_per_time (1e-7): a margin of about 370x.
# Over seeds 0-99 the median rate at this step is 9.9e-10 and the worst
# 4.6e-9 (seed 86), a margin of 21.5x.  A test holds the seed-7 rate at
# this step to a 100x margin and to the dt^4 law.
DRIFT_STEP = 5e-3
# The exact legs: the memory-2 leg of conserved-drift and both legs of
# z2-mirror.  RK4 keeps linear invariants (the memory-2 pair differences)
# and commutes with the affine mirror x -> 1 - x∘J, so both errors are
# rounding at any step (same reference); the step sets only the cost.  Over
# seeds 0-99 at this step the pair-difference rates read at most 5.0e-16
# (1.1e-15 at 5e-3) against conserved_drift_per_time (1e-7), and the mirror
# deviations at most 1.6e-15 (n = 1; 1.8e-15 at 1e-2) and 5.6e-16 (n = 2)
# against z2_deviation_n1 (1e-6) and z2_deviation_n2 (1e-5): margins past
# 1e8.  A test holds these legs to rounding here and at a quarter of this
# step.  An identity bar fails conserved-drift by 8.1e-3, and a prisoner's
# dilemma in place of the donation game breaks the mirror by 0.20 at memory
# 1, at this step.
EXACT_STEP = 2e-2
# the paper's G2 as exponents of (p_CC, p_CD, p_DC, p_DD) -> coefficient
G2_COEFFS = {
    (3, 0, 0, 0): -1 / 3,
    (1, 0, 0, 0): 1.0,
    (0, 1, 2, 0): -1.0,
    (0, 0, 3, 0): 1 / 3,
    (0, 0, 0, 3): -1 / 3,
}


@dataclass
class CheckResult:
    check_id: str
    claim: str
    max_residual: float
    tolerance: float
    passed: bool
    wall_time: float
    detail: dict | None = None


@dataclass
class VerificationReport:
    version: str
    seed: int
    n_max: int
    trials: int
    tolerance_hash: str
    checks: list
    passed: bool
    wall_time: float

    def to_dict(self) -> dict:
        """The report, with every wall time in one ``timing`` block: all
        outside it is the same on every rerun with the same arguments.
        Every number that is not finite, such as the residual inf of a check
        that raised, is None, so that the report is strict JSON."""
        checks = [asdict(c) for c in self.checks]
        times = {c["check_id"]: c.pop("wall_time") for c in checks}
        return _finite_or_none({
            "version": self.version,
            "seed": self.seed,
            "n_max": self.n_max,
            "trials": self.trials,
            "tolerance_hash": self.tolerance_hash,
            "passed": self.passed,
            "checks": checks,
            "timing": {"total": self.wall_time, "checks": times},
        })


def _finite_or_none(value):
    """``value`` with every float that is not finite, at any depth of its
    dicts and lists, replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _random_pair(rng, n, low=0.05, high=0.95):
    size = n_states(n)
    return (
        StrategyVector(n, rng.uniform(low, high, size)),
        StrategyVector(n, rng.uniform(low, high, size)),
    )


def _donation(n):
    return build_payoff_vector(GameParams.donation(DONATION_B, DONATION_C), n)


def check_matrix_structure(rng, n_max, trials, tol, inject_fault=False):
    """Unit row sums, and direct-vs-recursive equality (sparsity included).

    The dense block-recursive oracle must equal the matrix the quadruples
    describe, zeros off the quadruple columns included.  ``inject_fault``
    adds ``FAULT_DELTA`` to one quadruple entry of the first memory-1
    matrix built, a negative control that the row-sum bound must catch.
    """
    worst_row_sum = 0.0
    recursion_equal = True
    detail = {}
    for n in range(1, n_max + 1):
        for trial in range(trials):
            p, q = _random_pair(rng, n, 0.0, 1.0)
            m = build_transition_matrix(p, q)
            if inject_fault and n == 1 and trial == 0:
                m[0, 0] += FAULT_DELTA
                detail["fault_injected"] = {
                    "n": 1, "row": 0, "column": 0, "delta": FAULT_DELTA,
                }
            worst_row_sum = max(worst_row_sum, float(np.abs(m.sum(axis=1) - 1).max()))
            if n >= 2 and not np.array_equal(
                dense_matrix(m), build_transition_matrix_recursive(p, q)
            ):
                recursion_equal = False
    residual = worst_row_sum if recursion_equal else float("inf")
    detail["recursion_bit_exact"] = recursion_equal
    return residual, tol, detail


def check_group_structure(rng, n_max, trials, tol):
    """Group closure, involutions, product relations, dual constructions."""
    failed = 0
    for n in range(1, min(n_max, 3) + 1):
        group = full_group(n)
        maps = {tuple(j.tolist()) for j in group.values()}
        for a in group.values():
            for b in group.values():
                if tuple(compose(a, b).tolist()) not in maps:
                    failed += 1
        for kind in KINDS:
            if not np.array_equal(group[kind], build_j_recursive(kind, n)):
                failed += 1
        # product relations tying the swap-and-flip family together
        for left, right, product in (
            ("J4", "J8", "J5"),
            ("J3", "J8", "J6"),
            ("J2", "J8", "J7"),
        ):
            if not np.array_equal(compose(group[left], group[right]), group[product]):
                failed += 1
    return float(failed), 0.0, {}


def check_conjugation_identities(rng, n_max, trials, tol):
    """Player swap and action relabeling as exact matrix conjugations."""
    failed = 0
    for n in range(1, min(n_max, 3) + 1):
        j2 = build_j("J2", n)
        j8 = build_j("J8", n)
        for _ in range(trials):
            p, q = _random_pair(rng, n, 0.0, 1.0)
            m = build_transition_matrix(p, q)
            swapped = build_transition_matrix(q, p)
            relabeled = build_transition_matrix(label_swap(p), label_swap(q))
            if not np.array_equal(conjugate_matrix(m, j2), swapped):
                failed += 1
            if not np.array_equal(conjugate_matrix(m, j8), relabeled):
                failed += 1
    return float(failed), 0.0, {}


def check_admissibility(rng, n_max, trials, tol):
    """Exactly the eight relabelings map every chain to a chain: all 24
    permutations at memory 1, and at memory 2 the eight and 1,000 random
    others.  The residual counts the misclassified permutations."""
    passing = admissible_set_bruteforce_memory1()
    misclassified = len(set(passing) ^ {tuple(build_j(k, 1).tolist()) for k in KINDS})
    detail = {"memory1_admissible_count": len(passing)}
    if n_max >= 2:
        j2_maps = {tuple(build_j(k, 2).tolist()) for k in KINDS}
        misclassified += sum(not check_admissible(np.array(j), 2) for j in j2_maps)
        false_passes = 0
        tested = 0
        while tested < 1000:
            perm = rng.permutation(16)
            if tuple(perm.tolist()) in j2_maps:
                continue
            tested += 1
            false_passes += check_admissible(perm, 2)
        detail["memory2_random_false_passes"] = false_passes
        misclassified += false_passes
    return float(misclassified), 0.0, detail


def check_payoff_methods(rng, n_max, trials, tol):
    """Determinant payoff equals the stationary inner product."""
    worst = 0.0
    for n in range(1, min(n_max, 3) + 1):
        f = _donation(n)
        for _ in range(trials):
            p, q = _random_pair(rng, n)
            d = payoff(p, q, f, method="determinant")
            s = payoff(p, q, f, method="stationary")
            worst = max(worst, abs(d - s))
    return worst, tol, {}


def check_reactive_closed_form(rng, n_max, trials, tol):
    """Reactive closed-form payoff equals the memory-1 pipeline."""
    f = _donation(1)
    worst = 0.0
    for _ in range(trials):
        p1, p2, q1, q2 = rng.uniform(0.05, 0.95, 4)
        closed = reactive_payoff(p1, p2, q1, q2, DONATION_B, DONATION_C)
        full = payoff(reactive_strategy(p1, p2), reactive_strategy(q1, q2), f)
        worst = max(worst, abs(closed - full))
    return worst, tol, {}


def check_constant_shift(rng, n_max, trials, tol):
    """Adding C to every payoff adds exactly C to the average payoff."""
    worst = 0.0
    for n in range(1, min(n_max, 3) + 1):
        f = _donation(n)
        for _ in range(max(trials // 2, 5)):
            p, q = _random_pair(rng, n)
            shift = rng.uniform(-5, 5)
            base = payoff(p, q, f)
            shifted = payoff(p, q, f + shift)
            worst = max(worst, abs(shifted - base - shift))
    return worst, tol, {}


def check_decomposition(rng, n_max, trials, tol):
    """A_s + A_a = A with the right symmetry under player exchange."""
    worst = 0.0
    for n in range(1, min(n_max, 3) + 1):
        f = _donation(n)
        for _ in range(trials):
            p, q = _random_pair(rng, n)
            (a, a_s, a_a), _ = payoff_solve(p, q, f)
            b_s, b_a = decompose_payoff(q, p, f)
            worst = max(
                worst, abs(a_s + a_a - a), abs(a_s - b_s), abs(a_a + b_a)
            )
    return worst, tol, {}


def check_reflection_residual(rng, n_max, trials, tol):
    """Payoff vectors reflect onto K - f under the action relabeling."""
    worst = 0.0
    for n in range(1, max(n_max, 5) + 1):
        worst = max(worst, payoff_vector_reflection_residual(_donation(n)))
    return worst, tol, {}


def check_gradient_consistency(rng, n_max, trials, tol):
    """Analytic gradient vs central differences, all variants."""
    worst = 0.0
    points = max(trials // 5, 5)
    for n in range(1, min(n_max, 3) + 1):
        f = _donation(n)
        for variant in ("full", "symmetric", "antisymmetric", "antisymmetric_reparam"):
            analytic = FieldSpec(n, f, variant, "analytic_determinant")
            central = FieldSpec(n, f, variant, "central_difference")
            xs = rng.uniform(0.1, 0.9, (points, n_states(n)))
            for x, a in zip(xs, field_rows(analytic, xs)):
                c = adaptive_field(StrategyVector(n, x), central)
                scale = max(float(np.abs(a).max()), 1e-12)
                worst = max(worst, float(np.abs(a - c).max()) / scale)
    return worst, tol, {}


def check_closed_forms(rng, n_max, trials, tol):
    """Printed memory-1 fields against the analytic gradient."""
    worst = 0.0
    f = _donation(1)
    xs = rng.uniform(0.1, 0.9, (trials, 4))
    full = field_rows(FieldSpec(1, f, "full"), xs)
    anti = field_rows(FieldSpec(1, f, "antisymmetric"), xs)
    for probs, a, a2 in zip(xs, full, anti):
        x = StrategyVector(1, probs)
        closed = memory1_field_closed(x, tuple(f))
        scale = max(float(np.abs(a).max()), 1e-12)
        worst = max(worst, float(np.abs(a - closed).max()) / scale)
        closed2 = memory1_antisym_field_closed(x, f[1], f[2])
        scale2 = max(float(np.abs(a2).max()), 1e-12)
        worst = max(worst, float(np.abs(a2 - closed2).max()) / scale2)
    return worst, tol, {}


def check_field_decomposition(rng, n_max, trials, tol):
    """full = symmetric + antisymmetric, pointwise."""
    worst = 0.0
    for n in range(1, min(n_max, 3) + 1):
        f = _donation(n)
        xs = rng.uniform(0.1, 0.9, (max(trials // 5, 5), n_states(n)))
        full, sym, anti = (
            field_rows(FieldSpec(n, f, v), xs) for v in ("full", "symmetric", "antisymmetric")
        )
        worst = max(worst, float(np.abs(full - sym - anti).max()))
    return worst, tol, {}


def check_counting_consistency(rng, n_max, trials, tol):
    """Hyperplane invariance and collinearity of the printed counting form.

    ``tol`` is the (collinearity angle, hyperplane gap) pair of bounds; the
    check is held to the first.  A gap of the full field, or of the
    anti-symmetric restriction, past the second fails the check.
    """
    gap_tol = tol[1]
    f = _donation(1)
    worst_angle = 0.0
    orientations = set()
    invariant = True
    qs = rng.uniform(0.1, 0.9, (trials, 3))
    embedded = qs[:, [0, 1, 1, 2]]  # counting_to_full of each row
    full, antis = (field_rows(FieldSpec(1, f, v), embedded) for v in ("full", "antisymmetric"))
    worst_gap = float(np.abs(full[:, 1] - full[:, 2]).max())
    for q, row in zip(qs, antis):
        try:
            anti = restrict_to_counting(row[None], gap_tol)[0]
        except InvarianceViolationError:
            invariant = False
            continue
        closed = counting_antisym_closed(*q)
        cosine = float(
            np.dot(anti, closed) / np.linalg.norm(anti) / np.linalg.norm(closed)
        )
        orientations.add(int(np.sign(cosine)))
        worst_angle = max(worst_angle, float(np.arccos(min(abs(cosine), 1.0))))
    study = counting_sign_study(DONATION_B, DONATION_C)
    edges = counting_edge_equilibria()
    detail = {
        "hyperplane_gap": worst_gap,
        "printed_orientation": sorted(orientations),
        "sign_study": study,
        "equilibrium_edges": [e["edge"] for e in edges if e["equilibrium"]],
    }
    constant_orientation = len(orientations) == 1
    invariant = invariant and worst_gap <= gap_tol
    residual = worst_angle if constant_orientation and invariant else float("inf")
    return residual, tol[0], detail


def check_reactive_fields(rng, n_max, trials, tol):
    """The printed reactive fields against the kernel's symmetric and
    anti-symmetric fields F at (p1, p2, p1, p2), projected on the reactive
    plane as (F_CC + F_DC, F_CD + F_DD): the residual is the larger of the
    printed fields' relative gap from the projections and the projections'
    defect from the circle (1 - p1)^2 + p2^2, and inf unless they rotate in
    opposite directions."""
    f = _donation(1)
    points = rng.uniform(0.1, 0.9, (trials, 2))
    fields = (
        field_rows(FieldSpec(1, f, variant), points[:, [0, 1, 0, 1]])
        for variant in ("symmetric", "antisymmetric")
    )
    projections = [rows[:, :2] + rows[:, 2:] for rows in fields]
    gap = defect = 0.0
    opposite = True
    for (p1, p2), sym, anti in zip(points, *projections):
        printed = reactive_fields(p1, p2, DONATION_B, DONATION_C)
        for shown, kernel in zip(printed, (sym, anti)):
            scale = max(float(np.abs(kernel).max()), 1e-12)
            gap = max(gap, float(np.abs(np.subtract(shown, kernel)).max()) / scale)
            defect = max(defect, abs(float(kernel @ [-2 * (1 - p1), 2 * p2])))
        tangent = np.array([-p2, -(1 - p1)])
        if np.sign(tangent @ sym) == np.sign(tangent @ anti):
            opposite = False
    detail = {"printed_gap": gap, "circle_defect": defect, "opposite_rotation": opposite}
    return (max(gap, defect) if opposite else float("inf")), tol, detail


def check_conserved_drift(rng, n_max, trials, tol):
    """Invariants stay constant along anti-symmetric trajectories.

    The detail gives each invariant's worst drift rate and each memory
    order's reach, nN_t_end: the end time of its shortest path.  When G2
    drifts past ``tol``, the detail also reports how far the paper's G2 lies
    from the cubics that the last memory-1 path conserves, rather than
    amending G2.
    """
    worst = 0.0
    detail = {}
    legs = ((1, 3, 5.0, DRIFT_STEP), (2, 1, 2.0, EXACT_STEP))
    for n, count, t_max, dt in legs[:n_max]:
        spec = FieldSpec(n, _donation(n), "antisymmetric")
        size = n_states(n)
        starts = [StrategyVector(n, rng.uniform(0.35, 0.65, size)) for _ in range(count)]
        members = integrate(spec, starts, dt=dt, t_max=t_max).members
        detail[f"n{n}_t_end"] = min(float(traj.times[-1]) for traj in members)
        for traj in members:
            duration = max(float(traj.times[-1]), 1e-9)
            for name in traj.conserved:
                rate = conserved_report(traj, name) / duration
                detail[name] = max(detail.get(name, 0.0), rate)
                worst = max(worst, rate)
        if n == 1:
            detail["G2_passed"] = detail["G2"] <= tol
            if not detail["G2_passed"]:
                fit = fit_polynomial_invariant(traj.states, G2_COEFFS)
                detail["G2_fit_residual"] = fit["reference_residual"]
    return worst, tol, detail


def check_tft_stationarity(rng, n_max, trials, tol):
    """The reparametrised anti-symmetric field vanishes at tit-for-tat.

    Fitted log-log order of the field norm in the interiorization eps must
    be at least one.  The unscaled anti-symmetric field tends to the
    constant (b+c)/16 at the degenerate corner instead; both are reported.
    """
    eps_values = np.array([1e-3, 1e-4, 1e-5])
    detail = {}
    min_order = np.inf
    for n in (1, 2) if n_max >= 2 else (1,):
        f = _donation(n)
        spec = FieldSpec(n, f, "antisymmetric_reparam")
        corners = np.stack([tft_strategy(n, eps=e).probs for e in eps_values])
        norms = np.abs(field_rows(spec, corners)).max(axis=1).tolist()
        order = float(np.polyfit(np.log(eps_values), np.log(norms), 1)[0])
        detail[f"n{n}_norms"] = norms
        detail[f"n{n}_order"] = order
        min_order = min(min_order, order)
        unscaled = FieldSpec(n, f, "antisymmetric")
        plateau = np.abs(field_rows(unscaled, corners)).max(axis=1).tolist()
        detail[f"n{n}_unscaled_plateau"] = plateau
    detail["unscaled_limit"] = (DONATION_B + DONATION_C) / 16.0
    detail["min_order"] = min_order
    # shortfall below the minimum required order
    return max(0.0, tol - min_order), 0.0, detail


def check_z2_mirror(rng, n_max, trials, tol_pair):
    """Forward flow equals the label-swapped backward flow; the residual is
    the largest excess of a deviation over its own bound.  The detail gives
    each memory order's deviation and reach, nN_t_end: the end time of its
    shortest path."""
    worst_margin = 0.0
    detail = {}
    runs = ((1, 10, (0.3, 0.7), 1.0), (2, 3, (0.35, 0.65), 0.25))
    for (n, count, (low, high), t_max), tol in zip(runs[:n_max], tol_pair):
        spec = FieldSpec(n, _donation(n), "full")
        size = n_states(n)
        starts = [StrategyVector(n, rng.uniform(low, high, size)) for _ in range(count)]
        deviation, t_end = z2_mirror_check(spec, starts, t_max=t_max, dt=EXACT_STEP)
        detail[f"n{n}_deviation"] = deviation
        detail[f"n{n}_t_end"] = t_end
        worst_margin = max(worst_margin, deviation - tol)
    return worst_margin, 0.0, detail


def check_j2_multiplicities(rng, n_max, trials, tol):
    """Eigenvalue counts of the player swap match the closed formula."""
    failed = 0
    for n in range(1, 6):
        minus, plus = j2_eigenvalue_multiplicities(n)
        size = n_states(n)
        expect_minus = size // 2 - (1 << (n - 1))
        if (minus, plus) != (expect_minus, size - expect_minus):
            failed += 1
    return float(failed), 0.0, {}


def check_perturbation(rng, n_max, trials, tol_pair):
    """Full counting flow diverges linearly in eps from its core; the
    residual is 0 when the ratio lies in the bounds and the envelope holds.
    The detail gives the time of the state whose ratio is read and the
    smallest envelope / divergence over t > 0 of both curves."""
    low, high = tol_pair
    start = (0.55, 0.5, 0.45)
    small, large = perturbation_experiment(
        start, b=(1.0005, 1.005), c=(0.9995, 0.995), t_max=2.0
    )
    k = min(len(small.divergence), len(large.divergence)) - 1
    ratio = float(large.divergence[k] / small.divergence[k])
    dominated = small.dominated() and large.dominated()
    # envelope / divergence over t > 0: the flows start together, and a
    # divergence of zero leaves the envelope an infinite margin
    margin = min(
        np.divide(
            c.envelope, c.divergence, out=np.full_like(c.times, np.inf),
            where=c.divergence > 0,
        ).min()
        for c in (small, large)
    )
    detail = {
        "ratio": ratio,
        "envelope_dominates": dominated,
        "lipschitz": small.lipschitz,
        "sym_bound": small.sym_bound,
        "t_end": float(small.times[k]),
        "envelope_margin": float(margin),
    }
    ok = low <= ratio <= high and dominated
    residual = 0.0 if ok else max(abs(ratio - 10.0), 1.0)
    return residual, 0.0, detail


_BATTERY = [
    (
        "matrix-structure",
        "quadruple sparsity, unit row sums, block recursion equality",
        check_matrix_structure,
        "row_sum",
    ),
    (
        "permutation-group",
        "the eight relabelings close under composition and rebuild recursively",
        check_group_structure,
        (),
    ),
    (
        "conjugation-identities",
        "player swap and action relabeling act by exact conjugation",
        check_conjugation_identities,
        (),
    ),
    (
        "admissibility",
        "exactly eight permutations preserve transition structure",
        check_admissibility,
        (),
    ),
    (
        "payoff-methods",
        "determinant quotient equals stationary average",
        check_payoff_methods,
        "payoff_methods",
    ),
    (
        "reactive-closed-form",
        "reactive payoff formula equals the full pipeline",
        check_reactive_closed_form,
        "reactive_closed_form",
    ),
    (
        "constant-shift",
        "payoff shifts by exactly the constant added to the payoff vector",
        check_constant_shift,
        "constant_shift",
    ),
    (
        "payoff-decomposition",
        "symmetric plus anti-symmetric parts reassemble the payoff",
        check_decomposition,
        "decomposition_closure",
    ),
    (
        "payoff-reflection",
        "equal-gains payoff vectors reflect onto K - f",
        check_reflection_residual,
        "reflection_residual",
    ),
    (
        "gradient-consistency",
        "analytic gradient equals central differences",
        check_gradient_consistency,
        "gradient_relative",
    ),
    (
        "closed-form-fields",
        "printed memory-1 fields equal the numeric gradient",
        check_closed_forms,
        "closed_form_relative",
    ),
    (
        "field-decomposition",
        "full field splits into symmetric plus anti-symmetric fields",
        check_field_decomposition,
        "field_decomposition",
    ),
    (
        "counting-consistency",
        "counting hyperplane invariant; printed counting form collinear",
        check_counting_consistency,
        ("collinearity_angle", "counting_invariance"),
    ),
    (
        "reactive-fields",
        "reactive flows conserve the circle and counter-rotate",
        check_reactive_fields,
        "reactive_fields",
    ),
    (
        "conserved-drift",
        "anti-symmetric invariants hold along trajectories",
        check_conserved_drift,
        "conserved_drift_per_time",
    ),
    (
        "tft-stationarity",
        "tit-for-tat is a vanishing point of the reparametrised flow",
        check_tft_stationarity,
        "tft_order_minimum",
    ),
    (
        "z2-mirror",
        "label swap plus time reversal maps trajectories to trajectories",
        check_z2_mirror,
        ("z2_deviation_n1", "z2_deviation_n2"),
    ),
    (
        "j2-multiplicities",
        "player-swap eigenvalue counts match the closed formula",
        check_j2_multiplicities,
        (),
    ),
    (
        "perturbation-envelope",
        "counting divergence scales linearly and stays under the envelope",
        check_perturbation,
        ("perturbation_ratio_low", "perturbation_ratio_high"),
    ),
]


def run_battery(
    n_max: int = 2,
    trials: int = 50,
    seed: int = 7,
    fault_injection: bool = False,
    only: set | None = None,
) -> VerificationReport:
    """Run the checks (all, or the ids in ``only``) and assemble the report.

    Each check draws from its own generator, seeded by ``seed`` and its id,
    so what it sees depends neither on the checks run before it nor on
    ``only``: a check run alone reports what it reports in the full run.
    ``fault_injection`` adds ``FAULT_DELTA`` to one entry of the first
    memory-1 transition matrix that the structure check builds, as a
    negative control that must fail.  A check that raises a
    :class:`MemnError` fails with residual inf, bound 0 and the error named
    in its detail, and the checks after it still run; any other exception
    propagates.
    """
    if n_max < 1 or trials < 1:
        raise ValueError(f"n_max and trials must be >= 1, got {n_max} and {trials}")
    tolerances = load_tolerances()
    checks = []
    t_start = time.perf_counter()
    selected = [
        entry for entry in _BATTERY if only is None or entry[0] in only
    ]
    for check_id, claim, fn, tol_key in selected:
        if isinstance(tol_key, tuple):
            tol = tuple(tolerances[k] for k in tol_key)
        else:
            tol = tolerances[tol_key]
        faulted = fault_injection and check_id == "matrix-structure"
        extra = {"inject_fault": True} if faulted else {}
        t0 = time.perf_counter()
        rng = np.random.default_rng([seed, *check_id.encode()])
        try:
            residual, bound, detail = fn(rng, n_max, trials, tol, **extra)
        except MemnError as error:
            residual, bound = float("inf"), 0.0
            detail = {"error": f"{type(error).__name__}: {error}"}
        checks.append(
            CheckResult(
                check_id=check_id,
                claim=claim,
                max_residual=float(residual),
                tolerance=float(bound),
                passed=bool(residual <= bound),
                wall_time=time.perf_counter() - t0,
                detail=detail or None,
            )
        )
    overall = all(c.passed for c in checks)
    return VerificationReport(
        version=__version__,
        seed=seed,
        n_max=n_max,
        trials=trials,
        tolerance_hash=tolerance_hash(tolerances),
        checks=checks,
        passed=overall,
        wall_time=time.perf_counter() - t_start,
    )
