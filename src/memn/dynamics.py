"""Adaptive-dynamics vector fields, ODE integration, and invariant checks.

The field at a resident strategy ``x`` is the gradient of the mutant payoff
with respect to the mutant's entries, evaluated at mutant = resident, by the
Markov-chain sensitivity formula (Schweitzer 1968; Meyer 1975).  With B =
M - I and its last column set to 1, B^T nu = e_last gives the stationary
distribution nu and B y = -column the Poisson vector h.  Each mutant entry
enters one row of M, so the gradient is nu_i * dM_i . h, where dM_i is that
row's derivative (qb, 1 - qb, -qb, -(1 - qb)) at its quadruple columns.

Variants select the column: the full payoff vector, its player-symmetric
or anti-symmetric part from :func:`core.payoff_parts`, or (for the
reparametrised anti-symmetric flow) twice the anti-symmetric part, f -
f∘bar, with the gradient scaled by |det B|.  As the anti-symmetric payoff
vanishes at mutant = resident, that is the derivative of the
determinant-quotient numerator oriented by the sign of det B; it rescales
speed, never direction.

One kernel, :func:`field_batch`, evaluates this field at every row of a
(batch, size) array of points, with one payoff column or one per row.  It
builds the quadruples and takes nu and h from :func:`markov.solve_chain`
and |det B| from :func:`markov.det_magnitude`: :mod:`markov` alone knows
the chain layout and how, and at what sizes, its systems are solved.
:func:`adaptive_field` is its batch-of-one call behind the validation of
the API edge.  The RK4/RK45 steppers of :func:`integrate_path` advance a
whole ensemble of starts in lockstep, each member stopping on its own, so
the checks that sample several starts (the mirror check, the conserved
drift, the perturbation envelope) integrate them together.  The printed
memory-1 and counting closed forms are oracles only: the checks compare the
kernel against them, and no integration runs on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    StrategyVector,
    bar_permutation,
    counting_to_full,
    encode_history,
    n_states,
    payoff_parts,
)
from .errors import BoundaryMarginError, DegeneracyError, InvarianceViolationError
from .markov import (
    build_transition_matrix,
    chain_system,
    det_magnitude,
    payoff_from_column,
    quad_columns,
    quadruples,
    solve_chain,
    solved,
)
from .tolerances import DEFAULTS

VARIANTS = ("full", "symmetric", "antisymmetric", "antisymmetric_reparam")
GRADIENT_METHODS = ("central_difference", "analytic_determinant")

ANALYTIC_MARGIN = 1e-10


@dataclass(frozen=True)
class FieldSpec:
    """Everything needed to evaluate one adaptive-dynamics vector field."""

    n: int
    payoff: np.ndarray
    variant: str = "full"
    gradient_method: str = "analytic_determinant"
    h: float = 1e-5

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.gradient_method not in GRADIENT_METHODS:
            raise ValueError(f"unknown gradient method {self.gradient_method!r}")
        if not 1e-8 <= self.h <= 1e-4:
            raise ValueError("central-difference step must lie in [1e-8, 1e-4]")
        if len(self.payoff) != n_states(self.n):
            raise ValueError("payoff vector memory order disagrees with spec")


def variant_column(spec: FieldSpec) -> np.ndarray:
    """Payoff column implied by the field variant."""
    if spec.variant == "full":
        return spec.payoff.copy()
    sym, anti = payoff_parts(spec.payoff)
    if spec.variant == "symmetric":
        return sym
    if spec.variant == "antisymmetric":
        return anti
    return 2 * anti  # antisymmetric_reparam: exactly f - f∘bar


def _check_margin(x: StrategyVector, margin: float):
    dist = x.boundary_distance()
    if dist < margin:
        raise BoundaryMarginError(
            f"point is {dist:.2e} from the cube boundary; need >= {margin:.2e}"
        )


def field_batch(points, column, reparam: bool = False) -> np.ndarray:
    """Analytic field at each row of a (batch, size) array of interior points.

    ``column`` is one payoff column or one per row; ``reparam`` scales each
    gradient by |det B| (the ``antisymmetric_reparam`` variant, given its
    column f - f∘bar), which :func:`markov.det_magnitude` refuses above
    4,096 states before any solve runs.  Rows are neither validated nor
    margin-checked.  nu and h of every row come from one
    :func:`markov.solve_chain`; a row whose solve failed (a singular chain
    system, or a matrix-free solve that neither converged nor could fall
    back to dense) comes back NaN.  The gradient is that of the module
    docstring.
    """
    x = np.asarray(points, dtype=float)
    size = x.shape[1]
    # mutant = resident: row i's quadruple is (p, 1 - p) x (qb, 1 - qb)
    qb = x[:, bar_permutation((size.bit_length() - 1) // 2)]
    quads = quadruples(x, qb)
    scale = det_magnitude(quads)[:, None] if reparam else None
    solve = solve_chain(quads, column)
    hq = solve.h[:, quad_columns(size)]
    grad = solve.nu * (
        qb * (hq[..., 0] - hq[..., 2]) + (1 - qb) * (hq[..., 1] - hq[..., 3])
    )
    if reparam:
        grad *= scale
    return grad


def _field_central(x: StrategyVector, column: np.ndarray, h: float, reparam: bool):
    """Central differences of the determinant quotient in the mutant entries.

    The reparametrised variant differentiates the quotient's numerator alone,
    oriented by the sign of det B at the resident.
    """
    if reparam:
        sign, _ = np.linalg.slogdet(chain_system(build_transition_matrix(x, x)))
        if sign == 0.0:
            raise DegeneracyError("denominator determinant vanished")

        def value(p):
            numerator = chain_system(build_transition_matrix(p, x))
            numerator[:, -1] = column
            sign_n, log_n = np.linalg.slogdet(numerator)
            return sign * sign_n * math.exp(log_n)
    else:
        def value(p):
            return payoff_from_column(p, x, column)

    out = np.zeros(len(x))
    for i in range(len(x)):
        up, down = x.probs.copy(), x.probs.copy()
        up[i] += h
        down[i] -= h
        hi, lo = value(StrategyVector(x.n, up)), value(StrategyVector(x.n, down))
        out[i] = (hi - lo) / (2.0 * h)
    return out


def adaptive_field(x: StrategyVector, spec: FieldSpec) -> np.ndarray:
    """Mutant-payoff gradient at resident ``x`` for the chosen variant.

    Central differences perturb only the mutant entries, keeping the
    resident fixed at ``x``; the analytic method is :func:`field_batch` on
    a batch of one.
    """
    if x.n != spec.n:
        raise ValueError("point and spec memory orders differ")
    column = variant_column(spec)
    reparam = spec.variant == "antisymmetric_reparam"
    if spec.gradient_method == "central_difference":
        _check_margin(x, 2.0 * spec.h)
        return _field_central(x, column, spec.h, reparam)
    _check_margin(x, ANALYTIC_MARGIN)
    return solved(field_batch(x.probs[None], column, reparam)[0])


def memory1_field_closed(p: StrategyVector, f) -> np.ndarray:
    """Polynomial closed form of the full memory-1 field.

    Verified against the analytic gradient at random interior points;
    shares its denominator zero set with the quotient rule.
    """
    if p.n != 1:
        raise ValueError("closed form is specific to memory 1")
    a, x, y, d = p.probs
    f1, f2, f3, f4 = f
    shared = (
        (-2 * a + x + y + 1) * d**2
        + 2 * (a**2 - x * y - 1) * d
        - (a - 1) * (-2 * y * x + x + y + a * (x + y - 1) - 1)
    )
    denom = (x - y - 1) * shared**2
    if abs(denom) < 1e-300:
        raise DegeneracyError("closed-form denominator vanished")
    b_cc = (
        -f3 * a**2
        + f3 * x * a**2
        - f1 * x**2 * a
        + f1 * y**2 * a
        - f1 * a
        + f3 * a
        + 2 * f1 * x * a
        - f3 * x * a
        + f3 * y * a
        - f3 * x * y * a
        - f1 * x * y**2
        + (f3 * (a - y - 1) + f1 * (-x + y + 1)) * d**2
        + f1 * x**2 * y
        - f3 * y
        - f1 * x * y
        + f3 * x * y
        - f4 * (x - y - 1) * (a**2 - (x + y + 1) * a + x * y + 1)
        - (f3 * (a * (a + x - 1) - (a + x) * y - 1) - 2 * f1 * a * (x - y - 1)) * d
        + f2
        * (
            (x - a) * d**2
            + (a**2 + (-x + y + 1) * a - x * y - 1) * d
            - (a - 1) * (-y * x + x + a * y - 1)
        )
    )
    dot_cc = d * (2 * x * y - (x + y) * d + d) * b_cc / denom
    b_cd = (
        (f3 * (a - y - 1) + f1 * (-x + y + 1)) * d**2
        + (2 * f1 * (x - y - 1) * y + f3 * (-(a**2) + y**2 + y + 1)) * d
        + f4 * (x - y - 1) * ((a - y) ** 2 + y - 1)
        + y * (f3 * (a - 1) * (a - y) + f1 * (y**2 - x * y + x - 1))
        + f2
        * (
            (x - a) * d**2
            + (a**2 + y**2 - 2 * x * y + y - 1) * d
            - (a - 1) * (y**2 - 2 * x * y + y + a * (x - 1) + x - 1)
        )
    )
    dot_cd = -(a - 1) * (a - d + 1) * d * b_cd / denom
    b_dc = (
        f1 * x**3
        - 2 * f1 * x**2
        + f3 * x**2
        - f3 * a * x**2
        - f1 * y * x**2
        + f1 * x
        - f3 * x
        + f3 * a * x
        + f1 * y * x
        - 2 * f3 * y * x
        + 2 * f3 * a * y * x
        + (f1 * (x - y - 1) + f3 * (-a + y + 1)) * d**2
        - f4 * ((a - x) ** 2 + x - 1) * (x - y - 1)
        - f3 * a**2 * y
        + f3 * y
        + (2 * f1 * x * (-x + y + 1) + f3 * (a**2 + x * (x - 2 * y - 1) - 1)) * d
        + f2
        * (
            (x - d - 1) * a**2
            + (-(x**2) + x + d**2) * a
            - 2 * x
            + d
            + x * (x - d) * (d + 1)
            + 1
        )
    )
    dot_dc = (a - 1) * (a - d + 1) * d * b_dc / denom
    b_dd = (
        (f3 * (x - a) + f1 * (-x + y + 1)) * d**2
        + (
            f3 * (a - 1) * (a - x + 2)
            + f3 * (a - x - 1) * y
            + f1 * ((x - 1) ** 2 - y**2)
        )
        * d
        + y * (f1 * x * (-x + y + 1) - f3 * (a - 1) * (a - x + 1))
        - f4 * (x - y - 1) * (a**2 - 2 * d * a - x * y + (x + y + 1) * d - 1)
        + f2
        * (
            (x - d - 1) * a**2
            - x * (y + d) * a
            + d * (y + d + 1) * a
            - x
            + (x - d) * (d * y + y + d)
            + 1
        )
    )
    dot_dd = (
        -(a - 1)
        * (-2 * y * x + x + y + a * (x + y - 1) - 1)
        * b_dd
        / denom
    )
    return np.array([dot_cc, dot_cd, dot_dc, dot_dd])


def memory1_antisym_field_closed(
    p: StrategyVector, f2: float, f3: float
) -> np.ndarray:
    """Closed form of the memory-1 anti-symmetric field.

    The second and third components are one and the same expression, so the
    counting hyperplane stays invariant.
    """
    if p.n != 1:
        raise ValueError("closed form is specific to memory 1")
    denom, w_cc, w_cd, w_dd = _antisym_terms(*p.probs)
    if abs(denom) < 1e-300:
        raise DegeneracyError("closed-form denominator vanished")
    return (f2 - f3) / denom * np.array([w_cc, w_cd, w_cd, w_dd])


def _antisym_terms(a, x, y, d):
    """Denominator and numerators (CC, CD = DC, DD) of the memory-1
    anti-symmetric field per unit f2 - f3; array-safe."""
    shared = (
        2 * d * (a**2 - x * y - 1)
        + d**2 * (-2 * a + x + y + 1)
        - (a - 1) * (a * (x + y - 1) - 2 * x * y + x + y - 1)
    )
    denom = 2 * (x - y - 1) * shared
    w_cc = d * (-d * (x + y) + 2 * x * y + d)
    w_cd = -(a - 1) * d * (a - d + 1)
    w_dd = (a - 1) * (a * (x + y - 1) - 2 * x * y + x + y - 1)
    return denom, w_cc, w_cd, w_dd


def counting_antisym_closed(q2: float, q1: float, q0: float) -> np.ndarray:
    """Reparametrised anti-symmetric counting field, as printed.

    Collinear with the restriction of the anti-symmetric field at every
    interior point; the printed orientation runs opposite to the unscaled
    donation-game flow (see the sign study).
    """
    delta = (
        -2 * q0 * (-(q2**2) + q1**2 + 1)
        + q0**2 * (-2 * q2 + 2 * q1 + 1)
        + (q2 - 1) * (2 * q1 * (-q2 + q1 - 1) + q2 + 1)
    )
    dq2 = -0.5 * q0 * (2 * q1 * (q1 - q0) + q0) * delta
    dq1 = 0.5 * (q2 - 1) * q0 * (q2 - q0 + 1) * delta
    dq0 = 0.5 * (q2 - 1) * (2 * q1 * (-q2 + q1 - 1) + q2 + 1) * delta
    return np.array([dq2, dq1, dq0])


def _restrict_to_counting(
    full: np.ndarray, invariance_tol: float = DEFAULTS["counting_invariance"]
) -> np.ndarray:
    """(dq2, dq1, dq0) rows of memory-1 fields at counting points.

    Checks that the two middle components agree to ``invariance_tol`` (the
    hyperplane is invariant) before averaging them.
    """
    gap = float(np.abs(full[:, 1] - full[:, 2]).max())
    if gap > invariance_tol:
        raise InvarianceViolationError(
            f"field components across the counting hyperplane differ by {gap:.2e}"
        )
    return np.stack([full[:, 0], 0.5 * (full[:, 1] + full[:, 2]), full[:, 3]], axis=1)


def _counting_batch(points, column) -> np.ndarray:
    """Counting field at each row (q2, q1, q0) of ``points``, by :func:`field_batch`."""
    q = np.asarray(points, dtype=float)
    return _restrict_to_counting(field_batch(q[:, [0, 1, 1, 2]], column))


def counting_field(
    q2: float,
    q1: float,
    q0: float,
    f: np.ndarray,
    variant: str = "full",
    invariance_tol: float = DEFAULTS["counting_invariance"],
) -> np.ndarray:
    """Three-dimensional field on the counting hyperplane p_CD = p_DC.

    Embeds the point into memory 1, evaluates the field of the
    :class:`FieldSpec` ``variant`` there, checks that the two middle
    components agree to ``invariance_tol`` (the hyperplane is invariant;
    InvarianceViolationError otherwise), and returns (dq2, dq1, dq0).
    """
    spec = FieldSpec(n=1, payoff=f, variant=variant)
    full = adaptive_field(counting_to_full(q2, q1, q0), spec)
    return _restrict_to_counting(full[None], invariance_tol)[0]


def counting_sign_study(b: float, c: float) -> dict:
    """Signs of dq2 and dq0 on an interior grid, for both orientations.

    Evaluates the anti-symmetric counting field through the memory-1 closed
    form and the printed polynomial form, one q2 slice of the grid at a
    time (the whole grid at once would add megabytes to the battery's peak
    memory), and counts the signs of the first and last components over the
    50^3 grid of [0.02, 0.98]^3.
    """
    from .core import GameParams, build_payoff_vector

    f = build_payoff_vector(GameParams.donation(b, c), 1)
    grid = np.linspace(0.02, 0.98, 50)
    q1g, q0g = np.meshgrid(grid, grid, indexing="ij")
    # rows: restriction dq2, dq0, printed dq2, dq0; columns: -, +, 0
    signs = np.zeros((4, 3), dtype=int)
    for q2 in grid:
        q2g = np.full_like(q1g, q2)
        denom, w_cc, _, w_dd = _antisym_terms(q2g, q1g, q1g, q0g)
        scale = (f[1] - f[2]) / denom
        printed = counting_antisym_closed(q2g, q1g, q0g)
        for row, arr in enumerate((scale * w_cc, scale * w_dd, printed[0], printed[2])):
            signs[row] += (arr < 0).sum(), (arr > 0).sum(), (arr == 0).sum()

    def counts(row):
        return dict(zip(("negative", "positive", "zero"), signs[row].tolist()))

    return {
        "grid_points": grid.size**3,
        "restriction": {"dq2": counts(0), "dq0": counts(1)},
        "printed": {"dq2": counts(2), "dq0": counts(3)},
    }


def counting_edge_equilibria():
    """Zero set of the counting polynomials on the 12 edges of the cube.

    The two coordinates named in each entry are pinned to the stated corner
    values while the third runs over 51 points of [0, 1]; an edge is an
    equilibrium where the field stays within 1e-12 of zero.  Returned
    instead of a hardcoded equilibrium edge because the prose descriptions
    of this edge are inconsistent; the polynomial form is evaluable on the
    closed cube.
    """
    free_values = np.linspace(0.0, 1.0, 51)
    names = ("q2", "q1", "q0")
    edges = []
    for fixed in ((0, 1), (0, 2), (1, 2)):
        free = ({0, 1, 2} - set(fixed)).pop()
        for v1 in (0.0, 1.0):
            for v2 in (0.0, 1.0):
                coords = np.empty(3)
                coords[fixed[0]] = v1
                coords[fixed[1]] = v2
                worst = 0.0
                for s in free_values:
                    coords[free] = s
                    field = counting_antisym_closed(*coords)
                    worst = max(worst, float(np.abs(field).max()))
                edges.append(
                    {
                        "edge": f"{names[fixed[0]]}={v1:g}, {names[fixed[1]]}={v2:g}",
                        "free": names[free],
                        "max_field": worst,
                        "equilibrium": worst <= 1e-12,
                    }
                )
    return edges


def reactive_fields(p1: float, p2: float, b: float, c: float):
    """Symmetric and anti-symmetric adaptive fields for reactive strategies.

    Returns ((d1_s, d2_s), (d1_a, d2_a)); both conserve (1-p1)^2 + p2^2 and
    circle the same level sets in opposite directions.
    """
    sym_denom = 2.0 * (1.0 - p1 + p2) ** 2
    if sym_denom == 0.0:
        raise DegeneracyError("symmetric reactive field undefined at p1 - p2 = 1")
    anti_denom = 2.0 * ((p1 - p2) ** 2 - 1.0)
    if anti_denom == 0.0:
        raise DegeneracyError("anti-symmetric reactive field undefined at |p1-p2| = 1")
    sym = ((b - c) * p2 / sym_denom, (b - c) * (1.0 - p1) / sym_denom)
    anti = ((b + c) * p2 / anti_denom, (b + c) * (1.0 - p1) / anti_denom)
    return sym, anti


def conserved_quantities_memory1(p) -> tuple[float, float, float]:
    """The three invariants of the memory-1 anti-symmetric flow.

    ``p`` is a strategy, a state, or an array of states (one per row), for
    which each invariant comes back as one value per row.
    """
    probs = p.probs if isinstance(p, StrategyVector) else np.asarray(p)
    a, x, y, d = np.moveaxis(probs, -1, 0)
    g1 = x - y
    g2 = (-(a**3) + 3 * a - 3 * x * y**2 + y**3 - d**3) / 3.0
    g3 = (1 - a) ** 2 + x**2 + (1 - y) ** 2 + d**2
    return g1, g2, g3


def valid_pair_suffixes(n: int):
    """All histories of n-1 rounds in which both players acted alike."""
    suffixes = []
    for code in range(1 << (n - 1)):
        rounds = []
        for k in range(n - 2, -1, -1):
            action = "CD"[(code >> k) & 1]
            rounds.append((action, action))
        suffixes.append(tuple(rounds))
    return suffixes


def default_conserved(n: int):
    """Named invariants recorded along trajectories.

    Each maps an array of states (one per row) to one value per state: G1,
    G2 and G3 at memory 1, and from memory 2 up the pair differences
    p[CD s] - p[DC s], conserved by the anti-symmetric flow, for every
    suffix s of :func:`valid_pair_suffixes`.
    """
    if n == 1:
        return {
            "G1": lambda v: conserved_quantities_memory1(v)[0],
            "G2": lambda v: conserved_quantities_memory1(v)[1],
            "G3": lambda v: conserved_quantities_memory1(v)[2],
        }
    out = {}
    for suffix in valid_pair_suffixes(n):
        label = "pair_" + "".join(a + b for a, b in suffix)
        i_cd = encode_history([("C", "D")] + list(suffix), n)
        i_dc = encode_history([("D", "C")] + list(suffix), n)
        out[label] = lambda v, i=i_cd, j=i_dc: v[..., i] - v[..., j]
    return out


@dataclass
class Trajectory:
    """Accepted states of one integration, with per-step diagnostics.

    ``rejected_steps`` counts RK45 steps retried at half the step size and
    ``floor_steps`` those accepted at the 1e-8 step floor although their
    error estimate exceeded the 1e-10 tolerance.
    """

    times: np.ndarray
    states: np.ndarray
    step_sizes: np.ndarray
    field_norms: np.ndarray
    conserved: dict
    stop_reason: str
    rejected_steps: int = 0
    floor_steps: int = 0

    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class Ensemble:
    """Trajectories of one lockstep integration, one per row of the starts."""

    members: list

    @property
    def times(self) -> np.ndarray:
        """Every time at which some member has a state: the common clock of
        an RK4 ensemble, the union of the members' clocks under RK45."""
        return np.unique(np.concatenate([m.times for m in self.members]))


@dataclass
class ConservedReport:
    quantity: str
    initial: float
    max_drift: float
    relative_drift: float


def conserved_report(trajectory: Trajectory, quantity: str) -> ConservedReport:
    """Drift summary of one recorded invariant over a trajectory."""
    values = trajectory.conserved[quantity]
    initial = float(values[0])
    max_drift = float(np.abs(values - initial).max())
    scale = max(abs(initial), 1.0)
    return ConservedReport(quantity, initial, max_drift, max_drift / scale)


def _cube_distance(v: np.ndarray) -> np.ndarray:
    """Distance of each row to the cube boundary, negative outside it."""
    return np.minimum(v.min(axis=-1), 1.0 - v.max(axis=-1))


_RK45_COEFFS = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RK45_FOURTH = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0)
_RK45_FIFTH = (
    16.0 / 135.0,
    0.0,
    6656.0 / 12825.0,
    28561.0 / 56430.0,
    -9.0 / 50.0,
    2.0 / 55.0,
)
_RK45_FLOOR = 1e-8
_RK45_TOL = 1e-10


def _rk4_step(fn, y, dt, k1):
    k2 = fn(y + 0.5 * dt * k1)
    k3 = fn(y + 0.5 * dt * k2)
    k4 = fn(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), None


def _rk45_step(fn, y, dt, k1):
    ks = [k1]
    for coeffs in _RK45_COEFFS[1:]:
        point = y + dt * sum(c * k for c, k in zip(coeffs, ks))
        ks.append(fn(point))
    fourth = y + dt * sum(c * k for c, k in zip(_RK45_FOURTH, ks))
    fifth = y + dt * sum(c * k for c, k in zip(_RK45_FIFTH, ks))
    return fifth, np.linalg.norm(fifth - fourth, axis=1)


def integrate_path(
    fn,
    y0: np.ndarray,
    dt: float,
    t_max: float,
    method: str = "rk4",
    boundary_margin: float = 1e-6,
    observers=None,
):
    """Integrate a field over the unit cube until t_max or the boundary.

    ``y0`` is one start, giving a :class:`Trajectory`, or a (batch, size)
    array of starts, giving an :class:`Ensemble` whose members advance in
    lockstep: ``fn`` maps the (batch, size) array of stage points to one
    field row per member.  Each member stops on its own, with stop reason
    ``t_max``, ``boundary`` (an accepted state within ``boundary_margin``
    of 0 or 1, or a stage point within ``ANALYTIC_MARGIN`` of the boundary
    or outside the cube) or ``field_error`` (a field row that is not
    finite).  A stopped member stays frozen at its last accepted state and
    keeps its row, so rows line up with per-member columns inside ``fn``.

    The field at each accepted state is evaluated once: it gives the
    recorded field norm and the next step's first stage.  ``observers``
    maps names to functions of an array of states (one per row), recorded
    for every accepted state.  ``dt`` must be finite and positive and
    ``t_max`` finite and not negative; a backward run negates the field
    instead.
    """
    if not (math.isfinite(dt) and dt > 0.0 and math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(
            f"need finite dt > 0 and finite t_max >= 0; got {dt} and {t_max}"
        )
    if method == "rk4":
        step = _rk4_step
    elif method == "rk45-adaptive":
        step = _rk45_step
    else:
        raise ValueError(f"unknown method {method!r}")
    observers = observers or {}
    y = np.array(y0, dtype=float, ndmin=2)
    if np.any(_cube_distance(y) < boundary_margin):
        raise BoundaryMarginError("initial point violates the boundary margin")
    batch = len(y)
    stop = np.full(batch, "t_max", dtype=object)
    running = np.ones(batch, dtype=bool)

    def halt(members, reason):
        if members.any():
            stop[members] = reason
            running[members] = False

    def evaluate(points):
        if not min(points.min(), 1.0 - points.max()) >= ANALYTIC_MARGIN:
            halt(running & ~(_cube_distance(points) >= ANALYTIC_MARGIN), "boundary")
            if not running.any():
                return np.zeros_like(points)
        if not running.all():
            points = np.where(running[:, None], points, y)
        k = fn(points)
        if not math.isfinite(k.sum()):
            halt(running & ~np.all(np.isfinite(k), axis=1), "field_error")
        return k

    slope = fn(y)
    norm = np.abs(slope).max(axis=1)
    halt(~np.isfinite(norm), "field_error")
    t = np.zeros(batch)
    h = np.full(batch, float(dt))
    rejected = np.zeros(batch, dtype=int)
    floor = np.zeros(batch, dtype=int)
    # one row per round that accepted a step: each member's state, time,
    # step size, field norm and whether it moved; grown by doubling
    width = y.shape[1]
    log = np.empty((64, batch, width + 4))
    log[0] = np.column_stack([y, t, np.zeros(batch), norm, np.ones(batch)])
    rounds = 1
    while True:
        running &= t < t_max - 1e-15
        if not running.any():
            break
        h = np.minimum(dt if method == "rk4" else h, t_max - t)
        candidate, err = step(evaluate, y, h[:, None], slope)
        accept = running.copy()
        if err is not None:
            retry = accept & (err > _RK45_TOL) & (h > _RK45_FLOOR)
            rejected += retry
            h = np.where(retry, np.maximum(h * 0.5, _RK45_FLOOR), h)
            accept &= ~retry
        if not min(candidate.min(), 1.0 - candidate.max()) >= boundary_margin:
            halt(accept & (_cube_distance(candidate) < boundary_margin), "boundary")
            accept &= running
        if not accept.any():
            continue
        # accepted members move; the others keep their rows
        np.copyto(y, candidate, where=accept[:, None])
        np.add(t, h, out=t, where=accept)
        fresh = fn(y)
        np.copyto(slope, fresh, where=accept[:, None])
        norm = np.abs(fresh).max(axis=1)
        halt(accept & ~np.isfinite(norm), "field_error")
        if rounds == len(log):
            log = np.concatenate([log, np.empty_like(log)])
        np.concatenate(
            [y, t[:, None], h[:, None], norm[:, None], accept[:, None]],
            axis=1,
            out=log[rounds],
        )
        rounds += 1
        if err is not None:
            floor += accept & (err > _RK45_TOL)
            grow = accept & (err < 0.1 * _RK45_TOL)
            h = np.where(grow, np.minimum(h * 2.0, dt), h)
    members = []
    for k in range(batch):
        rows = np.flatnonzero(log[:rounds, k, -1])
        if rows[-1] == len(rows) - 1:  # moved in every round until it stopped
            rows = slice(len(rows))  # so its entries are a view, not a copy
        entries = log[rows, k]
        path = entries[:, :width]
        members.append(
            Trajectory(
                times=entries[:, width],
                states=path,
                step_sizes=entries[:, width + 1],
                field_norms=entries[:, width + 2],
                conserved={
                    name: np.asarray(obs(path), dtype=float)
                    for name, obs in observers.items()
                },
                stop_reason=stop[k],
                rejected_steps=int(rejected[k]),
                floor_steps=int(floor[k]),
            )
        )
    return members[0] if np.ndim(y0) == 1 else Ensemble(members)


def field_function(spec: FieldSpec):
    """(batch, size) -> (batch, size) analytic field for the integrators."""
    if spec.gradient_method != "analytic_determinant":
        raise ValueError("integration uses the analytic field")
    column = variant_column(spec)
    reparam = spec.variant == "antisymmetric_reparam"
    return lambda v: field_batch(v, column, reparam)


def _starts(spec: FieldSpec, x0) -> np.ndarray:
    """One start's probabilities, or a (batch, size) array of several."""
    points = [x0] if isinstance(x0, StrategyVector) else list(x0)
    if any(x.n != spec.n for x in points):
        raise ValueError("start and spec memory orders differ")
    probs = np.array([x.probs for x in points])
    return probs[0] if isinstance(x0, StrategyVector) else probs


def integrate(
    spec: FieldSpec,
    x0,
    dt: float,
    t_max: float,
    method: str = "rk4",
    boundary_margin: float = 1e-6,
):
    """Integrate the adaptive dynamics from ``x0``; see :func:`integrate_path`.

    ``x0`` is one strategy (giving a :class:`Trajectory`) or a sequence of
    them, integrated in lockstep (giving an :class:`Ensemble`).  The
    quantities of :func:`default_conserved` are recorded along the way.
    """
    return integrate_path(
        field_function(spec),
        _starts(spec, x0),
        dt,
        t_max,
        method=method,
        boundary_margin=boundary_margin,
        observers=default_conserved(spec.n),
    )


def z2_mirror_check(
    spec: FieldSpec,
    x0,
    t_max: float,
    dt: float,
) -> float:
    """Deviation of the flow from its mirror-and-time-reverse twin.

    For each start one trajectory starts at the label-swapped point and runs
    forward; the other starts at the start and runs backward (negated
    field).  If the dynamics are equivariant the label swap of the backward
    path reproduces the forward one.  ``x0`` is one strategy or a sequence
    of them, all integrated as one ensemble; the largest gap over each
    pair's common interval is returned.
    """
    starts = np.array(_starts(spec, x0), ndmin=2)
    count = len(starts)
    fn = field_function(spec)
    orientation = np.repeat([1.0, -1.0], count)[:, None]
    ensemble = integrate_path(
        lambda v: orientation * fn(v),
        np.concatenate([1.0 - starts[:, ::-1], starts]),
        dt,
        t_max,
        observers={},
    )
    worst = 0.0
    for forward, backward in zip(ensemble.members[:count], ensemble.members[count:]):
        common = min(len(forward.times), len(backward.times))
        mirrored_backward = 1.0 - backward.states[:common, ::-1]
        gap = np.abs(forward.states[:common] - mirrored_backward).max()
        worst = max(worst, float(gap))
    return worst


def _cubic_monomials(states: np.ndarray):
    """Design matrix and exponent list for all monomials of degree <= 3."""
    from itertools import product

    exponents = [
        e
        for e in product(range(4), repeat=states.shape[1])
        if 0 < sum(e) <= 3
    ]
    columns = [np.prod(states**np.array(e), axis=1) for e in exponents]
    return np.stack(columns, axis=1), exponents


def fit_polynomial_invariant(states: np.ndarray, reference: dict):
    """Cubic polynomials that stay (numerically) constant along a path.

    Returns the conserved subspace found by an SVD of the time-centered
    monomial matrix: a list of (exponent tuple, coefficient) maps, plus the
    projection of ``reference`` (exponent -> coefficient) onto that subspace
    and its distance from it.  This is a diagnostic for drift-test failures;
    it reports an empirically conserved candidate instead of silently
    amending a formula.
    """
    design, exponents = _cubic_monomials(states)
    centered = design - design.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    threshold = max(singular[0] * 1e-9, 1e-14)
    conserved = vt[singular < threshold]
    ref = np.array([reference.get(e, 0.0) for e in exponents])
    projected = conserved.T @ (conserved @ ref)  # zeros when nothing is conserved
    return {
        "singular_values": singular,
        "exponents": exponents,
        "conserved_directions": conserved,
        "reference_projection": projected,
        "reference_residual": float(np.linalg.norm(ref - projected)),
    }


_JACOBIAN_STEP = 1e-6


@dataclass
class DivergenceCurve:
    times: np.ndarray
    divergence: np.ndarray
    eps: float
    lipschitz: float
    sym_bound: float
    envelope: np.ndarray

    def dominated(self) -> bool:
        return bool(np.all(self.divergence <= self.envelope + 1e-15))


def perturbation_experiment(q0_point, b, c, t_max: float):
    """Compare full counting dynamics against their anti-symmetric part.

    The symmetric part scales with eps = b - c, so the full flow is a small
    perturbation of the anti-symmetric one.  ``b`` and ``c`` are numbers,
    giving one :class:`DivergenceCurve`, or sequences of them, giving one
    curve per (b, c) pair; the full and anti-symmetric flows of every pair
    are integrated as one ensemble, by RK4 with dt = 1e-3 until ``t_max``
    or 1e-3 from the boundary.  The Lipschitz constant of the
    anti-symmetric field (central-difference Jacobians) and the bound on
    the perturbation are estimated by sampling along the reference
    trajectory, giving the exponential envelope eps*M/K*(exp(Kt) - 1) that
    must dominate the observed divergence.
    """
    from .core import GameParams, build_payoff_vector

    bs, cs = np.broadcast_arrays(np.atleast_1d(b), np.atleast_1d(c))
    pairs = list(zip(bs.tolist(), cs.tolist()))
    if any(b_k < c_k for b_k, c_k in pairs):
        raise ValueError("perturbation experiment needs b >= c")
    columns = []
    for b_k, c_k in pairs:
        # direct construction so eps = 0 (b = c) stays admissible
        f = build_payoff_vector(GameParams(R=b_k - c_k, S=-c_k, T=b_k, P=0.0), 1)
        columns += [
            variant_column(FieldSpec(1, f, v)) for v in ("full", "antisymmetric")
        ]
    columns = np.stack(columns)

    start = np.asarray(q0_point, dtype=float)
    members = integrate_path(
        lambda v: _counting_batch(v, columns),
        np.tile(start, (len(columns), 1)),
        1e-3,
        t_max,
        boundary_margin=1e-3,
        observers={},
    ).members
    curves = [
        _divergence_curve(
            b_k - c_k, *members[2 * k : 2 * k + 2], columns[2 * k : 2 * k + 2]
        )
        for k, (b_k, c_k) in enumerate(pairs)
    ]
    return curves[0] if np.ndim(b) == np.ndim(c) == 0 else curves


def _divergence_curve(eps, full_traj, anti_traj, columns) -> DivergenceCurve:
    """Divergence of the full flow from the anti-symmetric one, with its envelope."""
    anti_col = columns[1]
    common = min(len(full_traj.times), len(anti_traj.times))
    times = full_traj.times[:common]
    gap = np.linalg.norm(
        full_traj.states[:common] - anti_traj.states[:common], axis=1
    )
    samples = anti_traj.states[:: max(1, common // 25)]
    # shifted[i, s, j]: sample i moved along axis j by +step (s = 0) or -step (s = 1)
    shift = _JACOBIAN_STEP * np.eye(3)
    shifted = samples[:, None, None, :] + np.stack([shift, -shift])
    values = _counting_batch(shifted.reshape(-1, 3), anti_col).reshape(-1, 2, 3, 3)
    slopes = (values[:, 0] - values[:, 1]) / (2.0 * _JACOBIAN_STEP)
    jacobians = slopes.transpose(0, 2, 1)  # column j: derivative along axis j
    lipschitz = float(np.linalg.norm(jacobians, 2, axis=(1, 2)).max())
    if eps > 0:
        rows = len(samples)
        split = _counting_batch(
            np.concatenate([samples, samples]), np.repeat(columns, rows, axis=0)
        )
        sym_bound = float(
            (np.linalg.norm(split[:rows] - split[rows:], axis=1) / eps).max()
        )
    else:
        sym_bound = 0.0
    envelope = eps * sym_bound / lipschitz * (np.exp(lipschitz * times) - 1.0)
    return DivergenceCurve(times, gap, eps, lipschitz, sym_bound, envelope)
