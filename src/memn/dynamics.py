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
:func:`field_function` is the one route from a :class:`FieldSpec` to it;
:func:`field_rows` calls it on an array of points and raises for a row
that is not finite, and :func:`adaptive_field` calls :func:`field_rows` on
a batch of one behind the validation of the API edge.  The ``STEPPERS`` of
:func:`integrate_path` advance a whole ensemble of starts in lockstep on
one clock, each member stopping on its own, so the checks that sample
several starts (the mirror check, the conserved drift, the perturbation
envelope) integrate them together, and the checks that sample points
evaluate each check's points in one call.  The printed memory-1 and
counting closed forms are oracles only: the checks compare the kernel
against them, and no integration runs on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    _det_ratio,
    build_transition_matrix,
    chain_system,
    det_magnitude,
    mutant_systems,
    quadruples,
    solve_chain,
    solved,
    stack_blocks,
)
from .tolerances import DEFAULTS

VARIANTS = ("full", "symmetric", "antisymmetric", "antisymmetric_reparam")
GRADIENT_METHODS = ("central_difference", "analytic_determinant")

ANALYTIC_MARGIN = 1e-10
# central differences err by step^2 (truncation) plus rounding / step, and at
# 1e-5 both stay far inside gradient_relative (1e-6), their bound in the checks
CENTRAL_STEP = 1e-5


@dataclass(frozen=True)
class FieldSpec:
    """Everything needed to evaluate one adaptive-dynamics vector field."""

    n: int
    payoff: np.ndarray
    variant: str = "full"
    gradient_method: str = "analytic_determinant"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.gradient_method not in GRADIENT_METHODS:
            raise ValueError(f"unknown gradient method {self.gradient_method!r}")
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


def field_batch(points, column, reparam: bool = False) -> np.ndarray:
    """Analytic field at each row of a (batch, size) array of interior points.

    ``column`` is one payoff column or one per row; ``reparam`` scales each
    gradient by |det B| (the ``antisymmetric_reparam`` variant, given its
    column f - f∘bar), which :func:`markov.det_magnitude` refuses above
    4,096 states before any solve runs.  Rows are neither validated nor
    margin-checked.  nu and h of every row come from one
    :func:`markov.solve_chain`; a row whose solve failed (a singular dense
    chain system below 256 states, or from there up a chain that neither
    the loops nor GMRES settled) comes back NaN.  The gradient is that of
    the module docstring.
    """
    x = np.asarray(points, dtype=float)
    batch, size = x.shape
    # mutant = resident: row i's quadruple is (p, 1 - p) x (qb, 1 - qb)
    qb = x.take(bar_permutation((size.bit_length() - 1) // 2), axis=1)
    quads = quadruples(x, qb)
    scale = det_magnitude(quads)[:, None] if reparam else None
    solve = solve_chain(quads, column)
    # row i reads h at 4 (i mod size/4) + (0, 1, 2, 3), so the four row
    # blocks of qb share (h0 - h2, h1 - h3) from the (size/4, 2, 2) view of h
    h = solve.h.reshape(batch, 1, size // 4, 2, 2)
    spread = h[..., 0, :] - h[..., 1, :]
    qb = qb.reshape(batch, 4, size // 4)
    slope = qb * spread[..., 0] + (1 - qb) * spread[..., 1]
    grad = solve.nu * slope.reshape(batch, size)
    if reparam:
        grad *= scale
    return grad


def _field_central(x: StrategyVector, column: np.ndarray, reparam: bool):
    """Central differences of the determinant quotient in the mutant entries.

    The reparametrised variant differentiates the quotient's numerator alone,
    oriented by the sign of det B at the resident.  The mutants moved up and
    down along each coordinate are stacked, and each stack of quotients is
    one :func:`markov._det_ratio` call, the payoff oracle's quotient: every
    coordinate at once below ``MATRIX_FREE_SIZE`` states and one coordinate
    at a time from there up (:func:`markov.stack_blocks`), where the whole
    stack would take 512 MB at memory 4.
    """
    size = len(x)
    if reparam:
        sign, _ = np.linalg.slogdet(chain_system(build_transition_matrix(x, x)))
        if sign == 0.0:
            raise DegeneracyError("denominator determinant vanished")
    out = np.empty(size)
    for block in stack_blocks(size, size):
        coords = np.arange(size)[block]
        mutants = np.tile(x.probs, (2, len(coords), 1))
        mutants[0, np.arange(len(coords)), coords] += CENTRAL_STEP
        mutants[1, np.arange(len(coords)), coords] -= CENTRAL_STEP
        denominator = mutant_systems(mutants, x)
        numerator = denominator if reparam else denominator.copy()
        numerator[..., -1] = column
        if reparam:
            sign_n, log_n = np.linalg.slogdet(numerator)
            # math.exp, as one mutant at a time took it: np.exp differs
            # from it in the last bit for about one argument in twenty
            magnitude = np.array([math.exp(v) for v in log_n.ravel()])
            value = sign * sign_n * magnitude.reshape(log_n.shape)
        else:
            value = _det_ratio(numerator, denominator)
        out[block] = (value[0] - value[1]) / (2.0 * CENTRAL_STEP)
    return out


def field_function(spec: FieldSpec):
    """(batch, size) -> (batch, size) analytic field of ``spec``, the one
    route from a :class:`FieldSpec` to :func:`field_batch`: it solves with
    the payoffs scaled by a power of two to a max-norm below 1 and scales the
    field back, exact and safe from overflow up to the float limit.  A row
    whose solve failed is NaN, and one whose scale-back overflowed infinite."""
    if spec.gradient_method != "analytic_determinant":
        raise ValueError("integration uses the analytic field")
    exponent = int(np.frexp(np.abs(spec.payoff).max())[1])
    column = variant_column(replace(spec, payoff=np.ldexp(spec.payoff, -exponent)))
    reparam = spec.variant == "antisymmetric_reparam"
    return lambda v: np.ldexp(field_batch(v, column, reparam), exponent)


def adaptive_field(x: StrategyVector, spec: FieldSpec) -> np.ndarray:
    """Mutant-payoff gradient at resident ``x`` for the chosen variant.

    Central differences perturb only the mutant entries, keeping the
    resident fixed at ``x``, and need ``x`` 2 * ``CENTRAL_STEP`` inside the
    cube; the analytic method is :func:`field_rows` on a batch of one and
    needs ``ANALYTIC_MARGIN``.  Either way, a field that is not finite, as
    near the float limit of the payoffs, raises ValueError naming the payoff
    magnitude, after :func:`markov.solved` has named a failed solve.
    """
    if x.n != spec.n:
        raise ValueError("point and spec memory orders differ")
    central = spec.gradient_method == "central_difference"
    margin = 2.0 * CENTRAL_STEP if central else ANALYTIC_MARGIN
    if (distance := x.boundary_distance()) < margin:
        raise BoundaryMarginError(
            f"point is {distance:.2e} from the cube boundary; need >= {margin:.2e}"
        )
    if not central:
        return field_rows(spec, x.probs[None])[0]
    reparam = spec.variant == "antisymmetric_reparam"
    with np.errstate(over="ignore", invalid="ignore"):
        field = _field_central(x, variant_column(spec), reparam)
    if not np.all(np.isfinite(field)):
        raise _overflow(spec)
    return field


def field_rows(spec: FieldSpec, points) -> np.ndarray:
    """The analytic field of ``spec`` at each row of a (k, size) array of
    interior points, by one :func:`field_function` call.

    The rows are neither validated nor margin-checked.  A row that is not
    finite raises as :func:`adaptive_field` says, the first such row first:
    :func:`markov.solved` names a failed solve, and an overflow raises
    ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        field = field_function(spec)(points)
    if not np.isfinite(field).all():
        for row in field:
            if np.isnan(row).any():  # a failed solve; an infinity overflowed
                solved(row)
            if not np.isfinite(row).all():
                raise _overflow(spec)
    return field


def _overflow(spec: FieldSpec) -> ValueError:
    magnitude = float(np.abs(spec.payoff).max())
    return ValueError(f"the field overflows at payoffs of magnitude {magnitude:.3g}")


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


def restrict_to_counting(
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
    restricted = full.take([0, 1, 3], axis=1)
    restricted[:, 1] += full[:, 2]
    restricted[:, 1] *= 0.5
    return restricted


def _counting_batch(points, column) -> np.ndarray:
    """Counting field at each row (q2, q1, q0) of ``points``, by :func:`field_batch`."""
    q = np.asarray(points, dtype=float)
    return restrict_to_counting(field_batch(q.take([0, 1, 1, 2], axis=1), column))


def counting_field(
    q2: float,
    q1: float,
    q0: float,
    f: np.ndarray,
    variant: str = "full",
) -> np.ndarray:
    """Three-dimensional field on the counting hyperplane p_CD = p_DC.

    Embeds the point into memory 1, evaluates the field of the
    :class:`FieldSpec` ``variant`` there, checks that the two middle
    components agree (:func:`restrict_to_counting`; the hyperplane is
    invariant), and returns (dq2, dq1, dq0).
    """
    spec = FieldSpec(n=1, payoff=f, variant=variant)
    full = adaptive_field(counting_to_full(q2, q1, q0), spec)
    return restrict_to_counting(full[None])[0]


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
                coords = np.empty((3, free_values.size))
                coords[fixed[0]] = v1
                coords[fixed[1]] = v2
                coords[free] = free_values
                worst = float(np.abs(counting_antisym_closed(*coords)).max())
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

    ``p`` is one state's probabilities or an array of states (one per row),
    for which each invariant comes back as one value per row.
    """
    a, x, y, d = np.moveaxis(np.asarray(p), -1, 0)
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

    The counts are of an ensemble's shared steps while this member ran:
    ``rejected_steps`` those retried at half the step size, ``floor_steps``
    those accepted at the 1e-8 floor although some running member's error
    estimate exceeded the 1e-10 tolerance.
    """

    times: np.ndarray
    states: np.ndarray
    step_sizes: np.ndarray
    field_norms: np.ndarray
    conserved: dict
    stop_reason: str
    rejected_steps: int = 0
    floor_steps: int = 0


@dataclass
class Ensemble:
    """One lockstep integration: its clock ``times`` and one trajectory per
    row of the starts, whose times are a prefix of the clock."""

    times: np.ndarray
    members: list


def conserved_report(trajectory: Trajectory, quantity: str) -> float:
    """Relative drift of one recorded invariant over a trajectory: its largest
    distance from its first value, over max(|first value|, 1)."""
    values = trajectory.conserved[quantity]
    initial = float(values[0])
    return float(np.abs(values - initial).max()) / max(abs(initial), 1.0)


def _cube_distance(v: np.ndarray) -> np.ndarray:
    """Distance of each row to the cube boundary, negative outside it."""
    return np.minimum(v.min(axis=-1), 1.0 - v.max(axis=-1))


def _cube_margin(v: np.ndarray) -> float:
    """The least :func:`_cube_distance` of the rows, by plain ufunc
    reductions: the array methods add a Python call to each."""
    return min(np.minimum.reduce(v, None), 1.0 - np.maximum.reduce(v, None))


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


# each stepper maps (field, states, step, field at the states) to the new
# states and each member's error estimate, None where there is none
STEPPERS = {"rk4": _rk4_step, "rk45-adaptive": _rk45_step}


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

    ``y0`` is a (batch, size) array of starts, one per row (ValueError for
    any other shape), and the result an :class:`Ensemble` whose members
    advance in lockstep: ``fn`` maps the (batch, size) array of stage points
    to one field row per member.  A start within ``boundary_margin`` of 0 or
    1 raises BoundaryMarginError, and one whose field is not finite
    ValueError.  Each member stops on its own, with stop reason ``t_max``,
    ``boundary`` (an accepted state within ``boundary_margin`` of 0 or 1,
    or a stage point within ``ANALYTIC_MARGIN`` of the boundary or outside
    the cube) or ``field_error`` (a field row that is not finite).  A
    stopped member stays frozen at its last accepted state and keeps its
    row, so rows line up with per-member columns inside ``fn``.

    ``method`` names one of ``STEPPERS``.  The ensemble runs on one clock
    and one step, ``dt`` under RK4.  RK45 halves it, down to 1e-8, while any
    running member's error estimate exceeds 1e-10, and doubles it, up to
    ``dt``, when all are below 1e-11.  So each member's trajectory is the
    first entries of one log, and a run that reaches t_max ends on it exactly.

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
    if method not in STEPPERS:
        raise ValueError(f"unknown method {method!r}")
    step = STEPPERS[method]
    observers = observers or {}
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"need a (batch, size) array of starts; got shape {y.shape}")
    if np.any(_cube_distance(y) < boundary_margin):
        raise BoundaryMarginError("initial point violates the boundary margin")
    batch = len(y)
    stop = np.full(batch, "t_max", dtype=object)
    running = np.ones(batch, dtype=bool)
    everyone = True  # whether every member still runs

    def halt(members, reason):
        nonlocal everyone
        if members.any():
            stop[members] = reason
            running[members] = False
            everyone = False

    def evaluate(points):
        if not _cube_margin(points) >= ANALYTIC_MARGIN:
            halt(running & ~(_cube_distance(points) >= ANALYTIC_MARGIN), "boundary")
        if not everyone:
            if not running.any():
                return np.zeros_like(points)
            points = np.where(running[:, None], points, y)
        k = fn(points)
        if not math.isfinite(np.add.reduce(k, None)):  # finite only if every entry is
            halt(running & ~np.all(np.isfinite(k), axis=1), "field_error")
        return k

    # quiet: a field that is not finite stops its member, and an error
    # estimate that overflows rejects the step
    with np.errstate(over="ignore", invalid="ignore"):
        slope = fn(y)
        norm = np.abs(slope).max(axis=1)
        if not np.isfinite(norm).all():
            raise ValueError("the field is not finite at an initial point")
        t, h = 0.0, float(dt)
        rejected = np.zeros(batch, dtype=int)
        floor = np.zeros(batch, dtype=int)
        length = np.ones(batch, dtype=int)  # each member's entries in the log
        # (time, step, states, field norms) of each round in which a member moved
        log = [(t, 0.0, y, norm)]
        while t < t_max and (everyone or running.any()):
            # each t + h rounds by at most half an ulp of t_max, so k steps of
            # t_max / k leave an error of at most k^2 * 1.1e-16 steps, below 1e-6
            # up to k = 95,000: the last step takes that rounding with it
            last = t_max - t <= h * (1.0 + 1e-6)
            if last:
                h = t_max - t
            candidate, err = step(evaluate, y, h, slope)
            # RK4 has no error estimate, so its step stays dt
            worst = 0.0 if err is None else np.max(err, where=running, initial=0.0)
            if worst > _RK45_TOL and h > _RK45_FLOOR:
                rejected += running
                h = max(h * 0.5, _RK45_FLOOR)
                continue
            if not _cube_margin(candidate) >= boundary_margin:
                halt(running & (_cube_distance(candidate) < boundary_margin), "boundary")
            if everyone:
                y = candidate
            elif running.any():  # running members move; the others keep their rows
                y = np.where(running[:, None], candidate, y)
            else:
                break
            t = t_max if last else t + h
            slope = fn(y)
            norm = np.maximum.reduce(np.abs(slope), 1)
            length += running
            if worst > _RK45_TOL:
                floor += running
            if not math.isfinite(np.add.reduce(norm)):
                halt(running & ~np.isfinite(norm), "field_error")
            log.append((t, h, y, norm))
            if worst < 0.1 * _RK45_TOL:
                h = min(h * 2.0, dt)
    clock, steps, states, norms = (np.array(column) for column in zip(*log))
    members = []
    for k, m in enumerate(length):
        path = states[:m, k]
        members.append(
            Trajectory(
                times=clock[:m],
                states=path,
                step_sizes=steps[:m],
                field_norms=norms[:m, k],
                conserved={
                    name: np.asarray(obs(path), dtype=float)
                    for name, obs in observers.items()
                },
                stop_reason=stop[k],
                rejected_steps=int(rejected[k]),
                floor_steps=int(floor[k]),
            )
        )
    return Ensemble(clock, members)


def _starts(spec: FieldSpec, x0) -> np.ndarray:
    """The (batch, size) array of a sequence of starts' probabilities."""
    if any(x.n != spec.n for x in x0):
        raise ValueError("start and spec memory orders differ")
    return np.array([x.probs for x in x0])


def integrate(
    spec: FieldSpec,
    x0,
    dt: float,
    t_max: float,
    method: str = "rk4",
):
    """Integrate the adaptive dynamics from ``x0``; see :func:`integrate_path`.

    ``x0`` is a sequence of strategies, integrated in lockstep on the field
    of :func:`field_function` into an :class:`Ensemble` with one member per
    start.  The quantities of :func:`default_conserved` are recorded along
    the way.
    """
    return integrate_path(
        field_function(spec),
        _starts(spec, x0),
        dt,
        t_max,
        method=method,
        observers=default_conserved(spec.n),
    )


def z2_mirror_check(
    spec: FieldSpec,
    x0,
    t_max: float,
    dt: float,
) -> tuple[float, float]:
    """Deviation of the flow from its mirror-and-time-reverse twin, and the
    time the comparison reached.

    For each start one trajectory starts at the label-swapped point and runs
    forward; the other starts at the start and runs backward (negated
    field).  If the dynamics are equivariant the label swap of the backward
    path reproduces the forward one.  ``x0`` is a sequence of strategies,
    all integrated as one ensemble.  Returns the largest gap over each
    pair's common interval, and the end time of the shortest path.
    """
    starts = _starts(spec, x0)
    count = len(starts)
    fn = field_function(spec)
    orientation = np.repeat([1.0, -1.0], count)[:, None]
    ensemble = integrate_path(
        lambda v: orientation * fn(v),
        np.concatenate([1.0 - starts[:, ::-1], starts]),
        dt,
        t_max,
    )
    worst = 0.0
    for forward, backward in zip(ensemble.members[:count], ensemble.members[count:]):
        common = min(len(forward.times), len(backward.times))
        mirrored_backward = 1.0 - backward.states[:common, ::-1]
        gap = np.abs(forward.states[:common] - mirrored_backward).max()
        worst = max(worst, float(gap))
    t_end = min(float(member.times[-1]) for member in ensemble.members)
    return worst, t_end


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
# The full and anti-symmetric counting flows share their start and their RK4
# step, so the error of each path, and of their gap, scales as dt^4.  The
# battery's ratio of two gaps at t = 0.9 moved by 1.4e-10 relative between
# dt = 2e-3 and this step.  It reads the ratio at the last state before the
# boundary stop, t = 0.960 here and 0.961 at dt = 1e-3, so it reads 9.842
# where it read 9.840, against the bounds 8 and 12.
PERTURBATION_STEP = 5e-3


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
    perturbation of the anti-symmetric one.  ``b`` and ``c`` are sequences
    of equal length, and one :class:`DivergenceCurve` is returned per
    (b, c) pair; the full and anti-symmetric flows of every pair are
    integrated as one ensemble, by RK4 with dt = ``PERTURBATION_STEP``
    (5e-3) until ``t_max`` or 1e-3 from the boundary.  The Lipschitz
    constant K of the anti-symmetric field (central-difference Jacobians)
    and the bound M on the perturbation are maxima over every state of the
    reference (anti-symmetric) path, giving the exponential envelope
    eps*M/K*(exp(Kt) - 1) that must dominate the observed divergence.
    """
    from .core import GameParams, build_payoff_vector

    pairs = list(zip(b, c, strict=True))
    if any(b_k < c_k for b_k, c_k in pairs):
        raise ValueError("perturbation experiment needs b >= c")
    columns = []
    for b_k, c_k in pairs:
        # direct construction so eps = 0 (b = c) stays admissible
        f = build_payoff_vector(GameParams(R=b_k - c_k, S=-c_k, T=b_k, P=0.0), 1)
        columns += [f, payoff_parts(f)[1]]
    columns = np.stack(columns)

    start = np.asarray(q0_point, dtype=float)
    members = integrate_path(
        lambda v: _counting_batch(v, columns),
        np.tile(start, (len(columns), 1)),
        PERTURBATION_STEP,
        t_max,
        boundary_margin=1e-3,
    ).members
    return [
        _divergence_curve(
            b_k - c_k, *members[2 * k : 2 * k + 2], columns[2 * k : 2 * k + 2]
        )
        for k, (b_k, c_k) in enumerate(pairs)
    ]


def _divergence_curve(eps, full_traj, anti_traj, columns) -> DivergenceCurve:
    """Divergence of the full flow from the anti-symmetric one, with its envelope."""
    common = min(len(full_traj.times), len(anti_traj.times))
    times = full_traj.times[:common]
    gap = np.linalg.norm(
        full_traj.states[:common] - anti_traj.states[:common], axis=1
    )
    states = anti_traj.states
    rows = len(states)
    # shifted[i, s, j]: state i moved along axis j by +step (s = 0) or -step (s = 1)
    shift = _JACOBIAN_STEP * np.eye(3)
    shifted = (states[:, None, None, :] + np.stack([shift, -shift])).reshape(-1, 3)
    # one batch: the shifted states on the anti-symmetric column, then every
    # state on the full column and on the anti-symmetric one
    values = _counting_batch(
        np.concatenate([shifted, states, states]),
        np.repeat(columns[[1, 0, 1]], [6 * rows, rows, rows], axis=0),
    )
    shifted_values, full, anti = np.split(values, [6 * rows, 7 * rows])
    stencil = shifted_values.reshape(-1, 2, 3, 3)
    slopes = (stencil[:, 0] - stencil[:, 1]) / (2.0 * _JACOBIAN_STEP)
    jacobians = slopes.transpose(0, 2, 1)  # column j: derivative along axis j
    lipschitz = float(np.linalg.norm(jacobians, 2, axis=(1, 2)).max())
    largest_split = float(np.linalg.norm(full - anti, axis=1).max())
    sym_bound = largest_split / eps if eps > 0 else 0.0
    envelope = eps * sym_bound / lipschitz * (np.exp(lipschitz * times) - 1.0)
    return DivergenceCurve(times, gap, eps, lipschitz, sym_bound, envelope)
