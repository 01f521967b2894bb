"""Adaptive-dynamics vector fields, ODE integration, and invariant checks.

The field at a resident strategy ``x`` is the gradient of the mutant payoff
with respect to the mutant's entries, evaluated at mutant = resident, by the
Markov-chain sensitivity formula (Schweitzer 1968; Meyer 1975).  With B =
M - I and its last column set to 1, B^T nu = e_last gives the stationary
distribution nu and B y = -column the Poisson vector h.  Each mutant entry
enters one row of M, so the gradient is nu_i * dM_i . h, where dM_i is that
row's derivative (qb, 1 - qb, -qb, -(1 - qb)) at its quadruple columns.

Variants select the column: the full payoff vector, its player-symmetric
half-sum, its anti-symmetric half-difference, or (for the reparametrised
anti-symmetric flow) f - f∘bar with the gradient scaled by |det B|.  As the
anti-symmetric payoff vanishes at mutant = resident, that is the derivative
of the determinant-quotient numerator oriented by the sign of det B; it
rescales speed, never direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PayoffVector,
    StrategyVector,
    bar_permutation,
    counting_to_full,
    encode_history,
)
from .errors import (
    BoundaryMarginError,
    DegeneracyError,
    InvarianceViolationError,
)
from .markov import (
    build_transition_matrix,
    chain_system,
    payoff_from_column,
    poisson_vector,
    stationary_distribution,
)

VARIANTS = ("full", "symmetric", "antisymmetric", "antisymmetric_reparam")
GRADIENT_METHODS = ("central_difference", "analytic_determinant")
CLOSED_FORMS = (
    "memory1_full",
    "memory1_antisym",
    "counting_antisym",
    "reactive_sym",
    "reactive_antisym",
)

ANALYTIC_MARGIN = 1e-10
COUNTING_INVARIANCE_TOL = 1e-9


@dataclass(frozen=True)
class FieldSpec:
    """Everything needed to evaluate one adaptive-dynamics vector field."""

    n: int
    payoff: PayoffVector
    variant: str = "full"
    gradient_method: str = "analytic_determinant"
    h: float = 1e-5
    closed_form_override: str | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.gradient_method not in GRADIENT_METHODS:
            raise ValueError(f"unknown gradient method {self.gradient_method!r}")
        if not 1e-8 <= self.h <= 1e-4:
            raise ValueError("central-difference step must lie in [1e-8, 1e-4]")
        if self.closed_form_override is not None:
            if self.closed_form_override not in CLOSED_FORMS:
                raise ValueError(
                    f"unknown closed form {self.closed_form_override!r}"
                )
        if self.payoff.n != self.n:
            raise ValueError("payoff vector memory order disagrees with spec")


def variant_column(spec: FieldSpec) -> np.ndarray:
    """Payoff column implied by the field variant."""
    f = spec.payoff.values
    swapped = f[bar_permutation(spec.n)]
    if spec.variant == "full":
        return f.copy()
    if spec.variant == "symmetric":
        return 0.5 * (f + swapped)
    if spec.variant == "antisymmetric":
        return 0.5 * (f - swapped)
    return f - swapped  # antisymmetric_reparam


def _check_margin(x: StrategyVector, margin: float):
    dist = x.boundary_distance()
    if dist < margin:
        raise BoundaryMarginError(
            f"point is {dist:.2e} from the cube boundary; need >= {margin:.2e}"
        )


def _field_analytic(x: StrategyVector, column: np.ndarray, reparam: bool):
    matrix = build_transition_matrix(x, x)
    system = chain_system(matrix)
    nu = stationary_distribution(matrix).weights
    h = poisson_vector(system, column)
    # the quadruple columns of each row, and the derivative of that row
    # with respect to the mutant's entry: (qb, 1 - qb, -qb, -(1 - qb))
    start = 4 * (np.arange(len(x)) % (len(x) // 4))
    qb = x.probs[bar_permutation(x.n)]
    grad = nu * (
        qb * (h[start] - h[start + 2]) + (1.0 - qb) * (h[start + 1] - h[start + 3])
    )
    if reparam:
        sign, log_det = np.linalg.slogdet(system)
        if sign == 0.0:
            raise DegeneracyError("denominator determinant vanished")
        grad *= math.exp(log_det)
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
    resident fixed at ``x``; the analytic method uses the stationary and
    Poisson solves of the module docstring.
    """
    if x.n != spec.n:
        raise ValueError("point and spec memory orders differ")
    if spec.closed_form_override is not None:
        return _closed_form_field(x, spec)
    column = variant_column(spec)
    reparam = spec.variant == "antisymmetric_reparam"
    if spec.gradient_method == "central_difference":
        _check_margin(x, 2.0 * spec.h)
        return _field_central(x, column, spec.h, reparam)
    _check_margin(x, ANALYTIC_MARGIN)
    return _field_analytic(x, column, reparam)


def _closed_form_field(x: StrategyVector, spec: FieldSpec) -> np.ndarray:
    name = spec.closed_form_override
    f = spec.payoff.values
    if name == "memory1_full":
        return memory1_field_closed(x, tuple(f))
    if name == "memory1_antisym":
        return memory1_antisym_field_closed(x, f[1], f[2])
    raise ValueError(f"closed form {name!r} is not a 2^(2n)-dimensional field")


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
    a, x, y, d = p.probs
    shared = (
        2 * d * (a**2 - x * y - 1)
        + d**2 * (-2 * a + x + y + 1)
        - (a - 1) * (a * (x + y - 1) - 2 * x * y + x + y - 1)
    )
    denom = 2 * (x - y - 1) * shared
    if abs(denom) < 1e-300:
        raise DegeneracyError("closed-form denominator vanished")
    w_cc = d * (-d * (x + y) + 2 * x * y + d)
    w_cd = -(a - 1) * d * (a - d + 1)
    w_dd = (a - 1) * (a * (x + y - 1) - 2 * x * y + x + y - 1)
    return (f2 - f3) / denom * np.array([w_cc, w_cd, w_cd, w_dd])


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


def counting_field(
    q2: float,
    q1: float,
    q0: float,
    f: PayoffVector,
    variant: str = "restriction",
) -> np.ndarray:
    """Three-dimensional field on the counting hyperplane p_CD = p_DC.

    ``restriction`` embeds the point into memory 1, evaluates the full
    field, checks that the two middle components agree (the hyperplane is
    invariant), and returns (dq2, dq1, dq0).  ``restriction_sym`` and
    ``restriction_antisym`` restrict those variants instead, and
    ``antisym_closed`` evaluates the printed polynomial form.
    """
    if variant == "antisym_closed":
        return counting_antisym_closed(q2, q1, q0)
    mapping = {
        "restriction": "full",
        "restriction_sym": "symmetric",
        "restriction_antisym": "antisymmetric",
    }
    if variant not in mapping:
        raise ValueError(f"unknown counting variant {variant!r}")
    spec = FieldSpec(n=1, payoff=f, variant=mapping[variant])
    full = adaptive_field(counting_to_full(q2, q1, q0), spec)
    gap = abs(full[1] - full[2])
    if gap > COUNTING_INVARIANCE_TOL:
        raise InvarianceViolationError(
            f"field components across the counting hyperplane differ by {gap:.2e}"
        )
    return np.array([full[0], 0.5 * (full[1] + full[2]), full[3]])


def counting_sign_study(
    b: float, c: float, resolution: int = 50, margin: float = 0.02
) -> dict:
    """Signs of dq2 and dq0 on an interior grid, for both orientations.

    Evaluates the anti-symmetric counting field through the memory-1 closed
    form (vectorized) and the printed polynomial form, and counts the signs
    of the first and last components over a resolution^3 grid.
    """
    from .core import GameParams, build_payoff_vector

    f = build_payoff_vector(GameParams.donation(b, c), 1)
    grid = np.linspace(margin, 1.0 - margin, resolution)
    q2g, q1g, q0g = np.meshgrid(grid, grid, grid, indexing="ij")
    a, x, y, d = q2g, q1g, q1g, q0g
    shared = (
        2 * d * (a**2 - x * y - 1)
        + d**2 * (-2 * a + x + y + 1)
        - (a - 1) * (a * (x + y - 1) - 2 * x * y + x + y - 1)
    )
    denom = 2 * (x - y - 1) * shared
    scale = (f.values[1] - f.values[2]) / denom
    dq2 = scale * d * (-d * (x + y) + 2 * x * y + d)
    dq0 = scale * (a - 1) * (a * (x + y - 1) - 2 * x * y + x + y - 1)
    delta = (
        -2 * q0g * (-(q2g**2) + q1g**2 + 1)
        + q0g**2 * (-2 * q2g + 2 * q1g + 1)
        + (q2g - 1) * (2 * q1g * (-q2g + q1g - 1) + q2g + 1)
    )
    printed_dq2 = -0.5 * q0g * (2 * q1g * (q1g - q0g) + q0g) * delta
    printed_dq0 = (
        0.5 * (q2g - 1) * (2 * q1g * (-q2g + q1g - 1) + q2g + 1) * delta
    )
    total = resolution**3

    def counts(arr):
        return {
            "negative": int((arr < 0).sum()),
            "positive": int((arr > 0).sum()),
            "zero": int((arr == 0).sum()),
        }

    return {
        "grid_points": total,
        "restriction": {"dq2": counts(dq2), "dq0": counts(dq0)},
        "printed": {"dq2": counts(printed_dq2), "dq0": counts(printed_dq0)},
    }


def counting_edge_equilibria(samples: int = 101, tol: float = 1e-12):
    """Zero set of the counting polynomials on the 12 edges of the cube.

    The two coordinates named in each entry are pinned to the stated corner
    values while the third runs over [0, 1].  Returned instead of a
    hardcoded equilibrium edge because the prose descriptions of this edge
    are inconsistent; the polynomial form is evaluable on the closed cube.
    """
    free_values = np.linspace(0.0, 1.0, samples)
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
                        "equilibrium": worst <= tol,
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
    """The three invariants of the memory-1 anti-symmetric flow."""
    probs = p.probs if isinstance(p, StrategyVector) else np.asarray(p)
    a, x, y, d = probs
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


def conserved_pair_difference(p: StrategyVector, suffix) -> float:
    """p[CD.suffix] - p[DC.suffix] for a same-decision suffix.

    The suffix covers the most recent n-1 rounds; every round in it must be
    CC or DD.  These differences are conserved by the anti-symmetric flow.
    """
    suffix = [tuple(r) for r in suffix]
    if len(suffix) != p.n - 1:
        raise ValueError(f"suffix must cover {p.n - 1} rounds")
    for focal, opponent in suffix:
        if focal != opponent:
            raise ValueError("suffix rounds must have equal focal/opponent actions")
    i_cd = encode_history([("C", "D")] + suffix, p.n)
    i_dc = encode_history([("D", "C")] + suffix, p.n)
    return float(p.probs[i_cd] - p.probs[i_dc])


def default_conserved(n: int):
    """Named invariant functions recorded along trajectories."""
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
        out[label] = lambda v, i=i_cd, j=i_dc: float(v[i] - v[j])
    return out


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    step_sizes: np.ndarray
    field_norms: np.ndarray
    cube_distances: np.ndarray
    conserved: dict
    stop_reason: str

    def final_state(self) -> np.ndarray:
        return self.states[-1]


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


def _cube_distance(v: np.ndarray) -> float:
    return float(min(v.min(), 1.0 - v.max()))


_RK45_NODES = (0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
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


def _rk4_step(fn, y, dt, k1):
    k2 = fn(y + 0.5 * dt * k1)
    k3 = fn(y + 0.5 * dt * k2)
    k4 = fn(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk45_step(fn, y, dt, k1):
    ks = [k1]
    for coeffs in _RK45_COEFFS[1:]:
        point = y + dt * sum(c * k for c, k in zip(coeffs, ks))
        ks.append(fn(point))
    fourth = y + dt * sum(c * k for c, k in zip(_RK45_FOURTH, ks))
    fifth = y + dt * sum(c * k for c, k in zip(_RK45_FIFTH, ks))
    return fifth, float(np.linalg.norm(fifth - fourth))


def integrate_path(
    fn,
    y0: np.ndarray,
    dt: float,
    t_max: float,
    method: str = "rk4",
    boundary_margin: float = 1e-6,
    rk45_tol: float = 1e-10,
    observers=None,
):
    """Integrate a field over the unit cube until t_max or the boundary.

    ``observers`` maps names to scalar functions of the state, recorded per
    step.  The field at each accepted state is evaluated once: it gives the
    recorded field norm and the next step's first stage.  The trajectory
    stops when any coordinate comes within ``boundary_margin`` of 0 or 1,
    and the stop reason is recorded.
    """
    observers = observers or {}
    y = np.asarray(y0, dtype=float).copy()
    if _cube_distance(y) < boundary_margin:
        raise BoundaryMarginError("initial point violates the boundary margin")
    times = [0.0]
    states = [y.copy()]
    steps = [0.0]
    slope = fn(y)
    norms = [float(np.abs(slope).max())]
    distances = [_cube_distance(y)]
    conserved = {name: [obs(y)] for name, obs in observers.items()}
    stop_reason = "t_max"
    t = 0.0
    h = dt
    while t < t_max - 1e-15:
        if method == "rk4":
            h = min(dt, t_max - t)
            try:
                candidate = _rk4_step(fn, y, h, slope)
            except BoundaryMarginError:
                stop_reason = "boundary"
                break
            except DegeneracyError:
                stop_reason = "field_error"
                break
        elif method == "rk45-adaptive":
            h = min(h, t_max - t)
            try:
                candidate, err = _rk45_step(fn, y, h, slope)
            except BoundaryMarginError:
                stop_reason = "boundary"
                break
            except DegeneracyError:
                stop_reason = "field_error"
                break
            if err > rk45_tol and h > 1e-8:
                h = max(h * 0.5, 1e-8)
                continue
        else:
            raise ValueError(f"unknown method {method!r}")
        if _cube_distance(candidate) < boundary_margin:
            stop_reason = "boundary"
            break
        y = candidate
        t += h
        times.append(t)
        states.append(y.copy())
        steps.append(h)
        slope = fn(y)
        norms.append(float(np.abs(slope).max()))
        distances.append(_cube_distance(y))
        for name, obs in observers.items():
            conserved[name].append(obs(y))
        if method == "rk45-adaptive" and err < 0.1 * rk45_tol:
            h = min(h * 2.0, dt)
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        step_sizes=np.array(steps),
        field_norms=np.array(norms),
        cube_distances=np.array(distances),
        conserved={k: np.array(v) for k, v in conserved.items()},
        stop_reason=stop_reason,
    )


def field_function(spec: FieldSpec):
    """Plain ndarray -> ndarray field for the integrators.

    Points outside the cube (integrator stages can overshoot) surface as
    boundary events rather than validation errors.
    """

    def fn(v: np.ndarray) -> np.ndarray:
        if v.min() < 0.0 or v.max() > 1.0:
            raise BoundaryMarginError("evaluation point left the cube")
        return adaptive_field(StrategyVector(spec.n, v), spec)

    return fn


def integrate(
    spec: FieldSpec,
    x0: StrategyVector,
    dt: float,
    t_max: float,
    method: str = "rk4",
    boundary_margin: float = 1e-6,
    observers=None,
) -> Trajectory:
    """Integrate the adaptive dynamics from ``x0``; see :func:`integrate_path`."""
    if observers is None:
        observers = default_conserved(spec.n)
    return integrate_path(
        field_function(spec),
        x0.probs,
        dt,
        t_max,
        method=method,
        boundary_margin=boundary_margin,
        observers=observers,
    )


def z2_mirror_check(
    spec: FieldSpec,
    x0: StrategyVector,
    t_max: float,
    dt: float,
    boundary_margin: float = 1e-6,
) -> float:
    """Deviation of the flow from its mirror-and-time-reverse twin.

    One trajectory starts at the label-swapped point and runs forward; the
    other starts at ``x0`` and runs backward (negated field).  If the
    dynamics are equivariant the label swap of the backward path reproduces
    the forward one; the maximum gap over the common interval is returned.
    """
    fn = field_function(spec)
    mirrored_start = 1.0 - x0.probs[::-1]
    forward = integrate_path(
        fn, mirrored_start, dt, t_max,
        boundary_margin=boundary_margin, observers={},
    )
    backward = integrate_path(
        lambda v: -fn(v), x0.probs, dt, t_max,
        boundary_margin=boundary_margin, observers={},
    )
    common = min(len(forward.times), len(backward.times))
    mirrored_backward = 1.0 - backward.states[:common, ::-1]
    return float(np.abs(forward.states[:common] - mirrored_backward).max())


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


def fit_polynomial_invariant(states: np.ndarray, reference: dict | None = None):
    """Cubic polynomials that stay (numerically) constant along a path.

    Returns the conserved subspace found by an SVD of the time-centered
    monomial matrix: a list of (exponent tuple, coefficient) maps, plus the
    projection of ``reference`` (exponent -> coefficient) onto that subspace
    when given.  This is a diagnostic for drift-test failures; it reports an
    empirically conserved candidate instead of silently amending a formula.
    """
    design, exponents = _cubic_monomials(states)
    centered = design - design.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    threshold = max(singular[0] * 1e-9, 1e-14)
    conserved = vt[singular < threshold]
    result = {
        "singular_values": singular,
        "exponents": exponents,
        "conserved_directions": conserved,
    }
    if reference is not None:
        ref = np.array([reference.get(e, 0.0) for e in exponents])
        if conserved.size:
            projected = conserved.T @ (conserved @ ref)
        else:
            projected = np.zeros_like(ref)
        result["reference_projection"] = projected
        result["reference_residual"] = float(np.linalg.norm(ref - projected))
    return result


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


def _counting_jacobian_norm(fn, point: np.ndarray, h: float = 1e-6) -> float:
    jac = np.zeros((3, 3))
    for j in range(3):
        up = point.copy()
        down = point.copy()
        up[j] += h
        down[j] -= h
        jac[:, j] = (fn(up) - fn(down)) / (2.0 * h)
    return float(np.linalg.norm(jac, 2))


def perturbation_experiment(
    q0_point,
    b: float,
    c: float,
    t_max: float,
    dt: float = 1e-3,
    boundary_margin: float = 1e-3,
) -> DivergenceCurve:
    """Compare full counting dynamics against their anti-symmetric part.

    The symmetric part scales with eps = b - c, so the full flow is a small
    perturbation of the anti-symmetric one.  The Lipschitz constant of the
    anti-symmetric field and the bound on the perturbation are estimated by
    sampling along the reference trajectory, giving the exponential envelope
    eps*M/K*(exp(Kt) - 1) that must dominate the observed divergence.
    """
    from .core import GameParams, build_payoff_vector

    if b < c:
        raise ValueError("perturbation experiment needs b >= c")
    eps = b - c
    # direct construction so eps = 0 (b = c) stays admissible
    f = build_payoff_vector(GameParams(R=b - c, S=-c, T=b, P=0.0), 1)

    def full_fn(v):
        return counting_field(v[0], v[1], v[2], f, variant="restriction")

    def anti_fn(v):
        return counting_field(v[0], v[1], v[2], f, variant="restriction_antisym")

    start = np.asarray(q0_point, dtype=float)
    full_traj = integrate_path(
        full_fn, start, dt, t_max, boundary_margin=boundary_margin, observers={}
    )
    anti_traj = integrate_path(
        anti_fn, start, dt, t_max, boundary_margin=boundary_margin, observers={}
    )
    common = min(len(full_traj.times), len(anti_traj.times))
    times = full_traj.times[:common]
    gap = np.linalg.norm(
        full_traj.states[:common] - anti_traj.states[:common], axis=1
    )
    samples = anti_traj.states[:: max(1, common // 25)]
    lipschitz = max(
        _counting_jacobian_norm(anti_fn, point) for point in samples
    )
    if eps > 0:
        sym_bound = max(
            float(np.linalg.norm(full_fn(point) - anti_fn(point)) / eps)
            for point in samples
        )
    else:
        sym_bound = 0.0
    envelope = eps * sym_bound / lipschitz * (np.exp(lipschitz * times) - 1.0)
    return DivergenceCurve(times, gap, eps, lipschitz, sym_bound, envelope)
