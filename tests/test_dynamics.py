"""Vector field, integration, and invariant-drift tests."""

import math
import tracemalloc

import numpy as np
import pytest

from memn import dynamics, markov
from memn.battery import EXACT_STEP
from memn.core import (
    GameParams,
    StrategyVector,
    bar_permutation,
    build_payoff_vector,
    counting_to_full,
    encode_history,
    n_states,
    tft_strategy,
)
from memn.dynamics import (
    FieldSpec,
    adaptive_field,
    conserved_quantities_memory1,
    conserved_report,
    counting_antisym_closed,
    counting_field,
    counting_sign_study,
    field_batch,
    fit_polynomial_invariant,
    integrate,
    integrate_path,
    memory1_antisym_field_closed,
    memory1_field_closed,
    perturbation_experiment,
    reactive_fields,
    valid_pair_suffixes,
    variant_column,
    z2_mirror_check,
)
from memn.errors import BoundaryMarginError, DegeneracyError
from memn.markov import (
    build_transition_matrix,
    chain_system,
    ITERATION_BUDGET,
    det_magnitude,
    payoff_from_column,
    quad_columns,
    quadruples,
    solve_chain,
    solve_systems,
)
from memn.tolerances import DEFAULTS

DONATION = GameParams.donation(2.0, 1.0)
F1 = build_payoff_vector(DONATION, 1)
F2 = build_payoff_vector(DONATION, 2)
F5 = build_payoff_vector(DONATION, 5)


def random_point(rng, n, low=0.1, high=0.9):
    return StrategyVector(n, rng.uniform(low, high, n_states(n)))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "variant", ["full", "symmetric", "antisymmetric", "antisymmetric_reparam"]
)
def test_gradient_methods_agree(n, variant):
    rng = np.random.default_rng([n, dynamics.VARIANTS.index(variant)])
    f = build_payoff_vector(DONATION, n)
    analytic = FieldSpec(n, f, variant, "analytic_determinant")
    central = FieldSpec(n, f, variant, "central_difference")
    tolerance = max(1e-6, 1e3 * dynamics.CENTRAL_STEP**2)
    for _ in range(10):
        x = random_point(rng, n)
        a = adaptive_field(x, analytic)
        c = adaptive_field(x, central)
        scale = max(np.abs(a).max(), 1e-12)
        assert np.abs(a - c).max() / scale <= tolerance


def test_gradient_methods_agree_memory4():
    """The Poisson-vector field matches central differences of the
    determinant quotient at n = 4, for every variant."""
    rng = np.random.default_rng(404)
    f = build_payoff_vector(DONATION, 4)
    x = random_point(rng, 4)
    for variant in ("full", "symmetric", "antisymmetric", "antisymmetric_reparam"):
        a = adaptive_field(x, FieldSpec(4, f, variant, "analytic_determinant"))
        c = adaptive_field(x, FieldSpec(4, f, variant, "central_difference"))
        scale = max(np.abs(a).max(), 1e-12)
        assert np.abs(a - c).max() / scale <= DEFAULTS["gradient_relative"]


def central_by_coordinate(x, column, reparam):
    """Central differences of the determinant quotient, one mutant and two
    determinants at a time: the scalar loop the stacked oracle replaces."""
    sign = np.linalg.slogdet(chain_system(build_transition_matrix(x, x)))[0]

    def value(probs):
        mutant = StrategyVector(x.n, probs)
        if not reparam:
            return payoff_from_column(mutant, x, column)
        numerator = chain_system(build_transition_matrix(mutant, x))
        numerator[:, -1] = column
        sign_n, log_n = np.linalg.slogdet(numerator)
        return sign * sign_n * math.exp(log_n)

    out = np.zeros(len(x))
    for i in range(len(x)):
        up, down = x.probs.copy(), x.probs.copy()
        up[i] += dynamics.CENTRAL_STEP
        down[i] -= dynamics.CENTRAL_STEP
        out[i] = (value(up) - value(down)) / (2.0 * dynamics.CENTRAL_STEP)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", dynamics.VARIANTS)
def test_stacked_central_differences_equal_the_scalar_loop(n, variant):
    """The central-difference oracle, which stacks its mutants for one
    slogdet of the numerators and one of the denominators, gives exactly
    what one mutant at a time gives."""
    rng = np.random.default_rng([60, n, dynamics.VARIANTS.index(variant)])
    spec = FieldSpec(n, build_payoff_vector(DONATION, n), variant, "central_difference")
    reparam = variant == "antisymmetric_reparam"
    for _ in range(2):
        x = random_point(rng, n)
        reference = central_by_coordinate(x, variant_column(spec), reparam)
        np.testing.assert_array_equal(adaptive_field(x, spec), reference)


def self_play_quadruples(rng, n, count):
    points = rng.uniform(0.1, 0.9, (count, n_states(n)))
    return quadruples(points, points[:, bar_permutation(n)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_magnitude_matches_one_slogdet_of_the_whole_system(n):
    """|det B| from the two player-swap halves of B matches the slogdet of
    the dense B that chain_system builds."""
    quads = self_play_quadruples(np.random.default_rng(70 + n), n, 3)
    reference = np.exp(np.linalg.slogdet(chain_system(quads))[1])
    np.testing.assert_allclose(det_magnitude(quads), reference, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_det_magnitude_equals_one_member_at_a_time(n):
    quads = self_play_quadruples(np.random.default_rng(70 + n), n, 5)
    reference = [det_magnitude(q[None])[0] for q in quads]
    assert list(det_magnitude(quads)) == reference


def assert_halves_are_the_swap_blocks(n):
    """In the basis S of the player swap's sums e_i + e_bar(i) (e_i where
    bar fixes i) and differences e_i - e_bar(i), each listed by i <= bar
    i, S^-1 B S is block diagonal up to 1e-16, and its diagonal blocks are
    the halves of swap_halves to 1e-15.  The columns of S are orthogonal,
    so S^-1 = S^T scaled row by row."""
    perm = bar_permutation(n)
    states = np.arange(n_states(n))
    cut = np.count_nonzero(states <= perm)
    basis = np.zeros((len(states), len(states)))
    for first, reps, far_end in ((0, states <= perm, 1.0), (cut, states < perm, -1.0)):
        reps = states[reps]
        basis[perm[reps], first + np.arange(len(reps))] = far_end
        basis[reps, first + np.arange(len(reps))] = 1.0
    quads = self_play_quadruples(np.random.default_rng(30 + n), n, 3)
    blocks = basis.T @ chain_system(quads) @ basis / (basis**2).sum(0)[:, None]
    even, odd = markov.swap_halves(quads)
    np.testing.assert_allclose(even, blocks[:, :cut, :cut], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(odd, blocks[:, cut:, cut:], rtol=0.0, atol=1e-15)
    assert np.abs(blocks[:, :cut, cut:]).max() <= 1e-16
    assert np.abs(blocks[:, cut:, :cut]).max() <= 1e-16


@pytest.mark.parametrize("n", [1, 2, 3])
def test_swap_halves_are_the_diagonal_blocks_of_b_in_the_swap_basis(n):
    assert_halves_are_the_swap_blocks(n)


def test_halves_split_by_the_complement_map_fail_the_block_structure(monkeypatch):
    """Split by i -> size - 1 - i in place of the player swap, the halves
    are not the blocks of B, and |det B| from them is wrong by more than
    10 %.  (The identity map is no such fault: its split is trivial, B
    itself and no odd half.)"""
    quads = self_play_quadruples(np.random.default_rng(31), 2, 3)
    reference = np.exp(np.linalg.slogdet(chain_system(quads))[1])

    def identity(size):
        return markov.swap_layout(np.arange(size))

    def complement(size):
        return markov.swap_layout(size - 1 - np.arange(size))

    monkeypatch.setattr(markov, "_player_swap_layout", identity)
    (whole,) = markov.swap_halves(quads)
    np.testing.assert_array_equal(whole, chain_system(quads))

    monkeypatch.setattr(markov, "_player_swap_layout", complement)
    for n in (1, 2, 3):
        with pytest.raises(AssertionError):
            assert_halves_are_the_swap_blocks(n)
    assert (np.abs(det_magnitude(quads) / reference - 1) > 0.1).all()


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("variant", dynamics.VARIANTS)
def test_field_rows_equal_one_row_calls(n, variant):
    """k rows through one field_function call give exactly the k one-row
    calls: each member's solve and determinant are its own."""
    rng = np.random.default_rng([80, n, dynamics.VARIANTS.index(variant)])
    spec = FieldSpec(n, build_payoff_vector(DONATION, n), variant)
    points = rng.uniform(0.1, 0.9, (3, n_states(n)))
    fn = dynamics.field_function(spec)
    rows = fn(points)
    for k, point in enumerate(points):
        np.testing.assert_array_equal(rows[k], fn(point[None])[0])
    np.testing.assert_array_equal(dynamics.field_rows(spec, points), rows)


def test_central_differences_at_memory4_hold_one_coordinate_at_a_time():
    """From 256 states the oracle stacks one coordinate's mutants at a
    time: at memory 4 it peaks far below the 512 MB of the whole stack."""
    rng = np.random.default_rng(90)
    x = random_point(rng, 4)
    column = build_payoff_vector(DONATION, 4)
    tracemalloc.start()
    try:
        dynamics._field_central(x, column, reparam=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reparam_is_scaled_antisymmetric_field(n):
    """antisymmetric_reparam = 2 |det B| * antisymmetric, B = M - I with its
    last column set to 1, built dense."""
    rng = np.random.default_rng(50 + n)
    f = build_payoff_vector(DONATION, n)
    for _ in range(5):
        x = random_point(rng, n)
        anti = adaptive_field(x, FieldSpec(n, f, "antisymmetric"))
        reparam = adaptive_field(x, FieldSpec(n, f, "antisymmetric_reparam"))
        det = np.exp(np.linalg.slogdet(chain_system(build_transition_matrix(x, x)))[1])
        assert det > 0.0
        np.testing.assert_allclose(reparam, 2.0 * det * anti, rtol=1e-9, atol=0.0)


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(1, F1, "sideways")
    with pytest.raises(ValueError):
        FieldSpec(1, F1, "full", "symbolic")
    with pytest.raises(ValueError):
        FieldSpec(2, F1)


def test_margin_errors():
    near_edge = StrategyVector(1, np.array([1e-7, 0.5, 0.5, 0.5]))
    with pytest.raises(BoundaryMarginError):
        adaptive_field(near_edge, FieldSpec(1, F1, "full", "central_difference"))


def test_memory1_closed_form_matches_numeric():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = random_point(rng, 1)
        values = rng.uniform(-2, 3, 4)
        f = values
        numeric = adaptive_field(x, FieldSpec(1, f, "full"))
        closed = memory1_field_closed(x, tuple(values))
        scale = max(np.abs(numeric).max(), 1e-12)
        assert np.abs(numeric - closed).max() / scale <= 1e-6


def test_memory1_closed_form_counting_plane():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, m, d = rng.uniform(0.1, 0.9, 3)
        x = StrategyVector(1, np.array([a, m, m, d]))
        field = memory1_field_closed(x, tuple(F1))
        assert field[1] == pytest.approx(field[2], abs=1e-12)


def test_memory1_closed_form_shift_invariant():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = random_point(rng, 1)
        values = rng.uniform(-2, 3, 4)
        shift = rng.uniform(-5, 5)
        base = memory1_field_closed(x, tuple(values))
        shifted = memory1_field_closed(x, tuple(values + shift))
        np.testing.assert_allclose(shifted, base, atol=1e-10)


def test_antisym_closed_form_matches_numeric():
    rng = np.random.default_rng(7)
    spec = FieldSpec(1, F1, "antisymmetric")
    for _ in range(100):
        x = random_point(rng, 1)
        numeric = adaptive_field(x, spec)
        closed = memory1_antisym_field_closed(x, F1[1], F1[2])
        scale = max(np.abs(numeric).max(), 1e-12)
        assert np.abs(numeric - closed).max() / scale <= 1e-6


def test_antisym_closed_form_middle_components_identical():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = random_point(rng, 1)
        field = memory1_antisym_field_closed(x, -1.0, 2.0)
        assert field[1] == field[2]


def test_antisym_closed_form_zero_when_f2_equals_f3():
    rng = np.random.default_rng(9)
    x = random_point(rng, 1)
    np.testing.assert_array_equal(
        memory1_antisym_field_closed(x, 1.3, 1.3), np.zeros(4)
    )


def invariant_gradients(probs):
    """Oracle: hand-written gradients of the three memory-1 invariants."""
    a, x, y, d = probs
    g1 = np.array([0.0, 1.0, -1.0, 0.0])
    g2 = np.array([1 - a**2, -(y**2), y**2 - 2 * x * y, -(d**2)])
    g3 = np.array([-2 * (1 - a), 2 * x, -2 * (1 - y), 2 * d])
    return g1, g2, g3


def test_conserved_directional_derivatives_vanish():
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = random_point(rng, 1)
        field = memory1_antisym_field_closed(x, F1[1], F1[2])
        for grad in invariant_gradients(x.probs):
            assert abs(grad @ field) <= 1e-8


@pytest.mark.parametrize("n", [1, 2])
def test_field_decomposition(n):
    rng = np.random.default_rng(11 + n)
    f = build_payoff_vector(DONATION, n)
    for _ in range(10):
        x = random_point(rng, n)
        full = adaptive_field(x, FieldSpec(n, f, "full"))
        sym = adaptive_field(x, FieldSpec(n, f, "symmetric"))
        anti = adaptive_field(x, FieldSpec(n, f, "antisymmetric"))
        assert np.abs(full - sym - anti).max() <= 1e-8


def test_symmetric_field_is_half_diagonal_gradient():
    """Gradient flow: the symmetric field equals half the gradient of the
    diagonal map x -> A_s(x, x), estimated by finite differences."""
    from memn.dynamics import variant_column
    from memn.markov import payoff_from_column

    rng = np.random.default_rng(13)
    column = variant_column(FieldSpec(1, F1, "symmetric"))
    h = 1e-6
    for _ in range(5):
        x = random_point(rng, 1, 0.2, 0.8)
        field = adaptive_field(x, FieldSpec(1, F1, "symmetric"))
        for i in range(4):
            up = x.probs.copy()
            down = x.probs.copy()
            up[i] += h
            down[i] -= h
            hi = payoff_from_column(
                StrategyVector(1, up), StrategyVector(1, up), column
            )
            lo = payoff_from_column(
                StrategyVector(1, down), StrategyVector(1, down), column
            )
            assert field[i] == pytest.approx(
                0.5 * (hi - lo) / (2 * h), abs=1e-6
            )


def test_counting_restriction_well_defined():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        q2, q1, q0 = rng.uniform(0.05, 0.95, 3)
        counting_field(q2, q1, q0, F1, "full")


@pytest.mark.parametrize(
    "variant",
    ["full", "symmetric", "antisymmetric"],
    ids=["restriction", "restriction_sym", "restriction_antisym"],
)
def test_counting_hyperplane_invariant_all_variants(variant):
    """Every field variant keeps equal middle components on the hyperplane."""
    rng = np.random.default_rng(24)
    for _ in range(50):
        q2, q1, q0 = rng.uniform(0.05, 0.95, 3)
        counting_field(q2, q1, q0, F1, variant)  # raises beyond 1e-9


def test_counting_closed_collinear_with_restriction():
    """The printed polynomials rescale the restricted anti-symmetric field;
    for donation payoffs the printed orientation is reversed."""
    rng = np.random.default_rng(15)
    for _ in range(50):
        q2, q1, q0 = rng.uniform(0.1, 0.9, 3)
        anti = counting_field(q2, q1, q0, F1, "antisymmetric")
        closed = counting_antisym_closed(q2, q1, q0)
        cosine = anti @ closed / np.linalg.norm(anti) / np.linalg.norm(closed)
        angle = np.arccos(min(abs(cosine), 1.0))
        assert angle <= 1e-6
        assert cosine < 0


def test_counting_sign_study_pattern():
    """The restricted anti-symmetric flow pushes both q2 and q0 down on a
    50^3 interior grid; the printed form carries the opposite sign."""
    study = counting_sign_study(2.0, 1.0)
    total = study["grid_points"]
    assert total == 50**3
    assert study["restriction"]["dq2"]["negative"] == total
    assert study["restriction"]["dq0"]["negative"] == total
    assert study["printed"]["dq2"]["positive"] == total
    assert study["printed"]["dq0"]["positive"] == total


def test_counting_closed_form_shape():
    value = counting_antisym_closed(0.5, 0.5, 0.5)
    assert value.shape == (3,)


def test_counting_equilibrium_edges():
    """Exactly one cube edge is a zero set of the counting polynomials:
    full cooperation after mutual cooperation, none after mutual defection."""
    from memn.dynamics import counting_edge_equilibria

    edges = counting_edge_equilibria()
    assert len(edges) == 12
    zero_edges = [e for e in edges if e["equilibrium"]]
    assert len(zero_edges) == 1
    assert zero_edges[0]["edge"] == "q2=1, q0=0"
    assert zero_edges[0]["free"] == "q1"


def test_counting_edge_equilibria_equal_pointwise_evaluation():
    """Each edge's 51 points, evaluated at once, give the largest field of
    the closed form evaluated one point at a time."""
    from memn.dynamics import counting_edge_equilibria

    names = ("q2", "q1", "q0")
    for edge in counting_edge_equilibria():
        pinned = dict(part.split("=") for part in edge["edge"].split(", "))
        worst = 0.0
        for s in np.linspace(0.0, 1.0, 51):
            coords = [s if k == edge["free"] else float(pinned[k]) for k in names]
            worst = max(worst, float(np.abs(counting_antisym_closed(*coords)).max()))
        assert edge["max_field"] == worst


def test_reactive_fields_conserve_circle():
    rng = np.random.default_rng(16)
    for _ in range(50):
        p1, p2 = rng.uniform(0.05, 0.95, 2)
        sym, anti = reactive_fields(p1, p2, 2.0, 1.0)
        gradient = np.array([-2 * (1 - p1), 2 * p2])
        assert abs(gradient @ np.array(sym)) <= 1e-10
        assert abs(gradient @ np.array(anti)) <= 1e-10


def test_reactive_fields_opposite_rotation():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p1, p2 = rng.uniform(0.1, 0.9, 2)
        sym, anti = reactive_fields(p1, p2, 2.0, 1.0)
        tangent = np.array([-p2, -(1 - p1)])
        assert np.sign(tangent @ np.array(sym)) != np.sign(
            tangent @ np.array(anti)
        )


def test_reactive_fields_degenerate_cases():
    sym, _ = reactive_fields(0.5, 0.5, 1.0, 1.0)
    assert sym == (0.0, 0.0)
    with pytest.raises(DegeneracyError):
        reactive_fields(1.0, 0.0, 2.0, 1.0)


def test_integrate_zero_field_is_constant():
    f = np.zeros(4)
    x0 = StrategyVector(1, np.array([0.6, 0.45, 0.5, 0.4]))
    trajectory = integrate(FieldSpec(1, f, "full"), [x0], dt=1e-2, t_max=0.3).members[0]
    assert trajectory.stop_reason == "t_max"
    np.testing.assert_array_equal(
        trajectory.states, np.tile(x0.probs, (len(trajectory.times), 1))
    )


def test_antisym_trajectory_leaves_cube():
    rng = np.random.default_rng(18)
    spec = FieldSpec(1, F1, "antisymmetric")
    for _ in range(3):
        x0 = random_point(rng, 1, 0.3, 0.7)
        trajectory = integrate(spec, [x0], dt=1e-3, t_max=500.0).members[0]
        assert trajectory.stop_reason == "boundary"
        assert trajectory.times[-1] < 500.0


def test_richardson_step_halving():
    spec = FieldSpec(1, F1, "full")
    x0 = StrategyVector(1, np.array([0.55, 0.5, 0.45, 0.5]))
    finals = [
        integrate(spec, [x0], dt=dt, t_max=0.5).members[0].states[-1]
        for dt in (2e-3, 1e-3, 5e-4)
    ]
    coarse = np.abs(finals[0] - finals[1]).max()
    fine = np.abs(finals[1] - finals[2]).max()
    assert 8.0 <= coarse / fine <= 32.0  # fourth-order: ratio near 16


def test_rk45_matches_rk4():
    spec = FieldSpec(1, F1, "full")
    x0 = StrategyVector(1, np.array([0.55, 0.5, 0.45, 0.5]))
    fine = integrate(spec, [x0], dt=2e-4, t_max=0.5).members[0].states[-1]
    adaptive = integrate(
        spec, [x0], dt=1e-2, t_max=0.5, method="rk45-adaptive"
    ).members[0].states[-1]
    assert np.abs(fine - adaptive).max() <= 1e-8


@pytest.mark.parametrize("method", ["rk4", "rk45-adaptive"])
def test_integrate_path_field_evaluations(method):
    """One evaluation per accepted state, reused as the next first stage:
    RK4 makes 3 more per step and RK45 (no rejections here) 5 more."""
    calls = [0]

    def fn(v):
        calls[0] += 1
        return np.full_like(v, 0.01)

    (trajectory,) = integrate_path(
        fn, np.full((1, 4), 0.5), 1e-2, 0.1, method=method
    ).members
    steps = len(trajectory.times) - 1
    assert steps == 10
    stages = 4 if method == "rk4" else 6
    assert calls[0] == 1 + stages * steps
    np.testing.assert_allclose(trajectory.states[-1], 0.501, rtol=1e-12)


@pytest.mark.parametrize(
    ("method", "dt", "t_max", "steps"),
    [("rk4", 1e-3, 2.0, 2000), ("rk45-adaptive", 0.05, 3.0, 60)],
)
def test_last_step_lands_on_t_max(method, dt, t_max, steps):
    """Rounding in the summed steps adds no sliver of a step at the end: the
    run takes t_max / dt steps and its last time is t_max exactly."""
    (trajectory,) = integrate_path(
        lambda v: np.full_like(v, 0.01), np.full((1, 4), 0.5), dt, t_max, method=method
    ).members
    assert trajectory.stop_reason == "t_max"
    assert len(trajectory.times) - 1 == steps
    assert trajectory.times[-1] == t_max


@pytest.mark.parametrize("n", [1, 2, 3])
def test_field_batch_matches_adaptive_field(n):
    """One batch mixing the full, symmetric and anti-symmetric columns row by
    row (and one reparametrised batch) equals adaptive_field point by point."""
    rng = np.random.default_rng(30 + n)
    f = build_payoff_vector(DONATION, n)
    plain = ["full", "symmetric", "antisymmetric"] * 2
    points = rng.uniform(0.05, 0.95, (len(plain), n_states(n)))
    columns = np.stack([variant_column(FieldSpec(n, f, v)) for v in plain])
    signs = np.where(np.arange(len(plain)) % 2, -1.0, 1.0)
    batched = signs[:, None] * field_batch(points, columns)
    for row, variant, sign, x in zip(batched, plain, signs, points):
        expected = sign * adaptive_field(StrategyVector(n, x), FieldSpec(n, f, variant))
        np.testing.assert_allclose(row, expected, rtol=1e-13, atol=1e-15)
    reparam = FieldSpec(n, f, "antisymmetric_reparam")
    batched = field_batch(points, variant_column(reparam), reparam=True)
    for row, x in zip(batched, points):
        expected = adaptive_field(StrategyVector(n, x), reparam)
        np.testing.assert_allclose(row, expected, rtol=1e-13, atol=1e-15)


def test_field_batch_singular_member_is_nan():
    column = variant_column(FieldSpec(1, F1, "full"))
    points = np.stack([np.full(4, 0.4), tft_strategy(1).probs, np.full(4, 0.6)])
    rows = field_batch(points, column)
    assert np.all(np.isnan(rows[1]))
    for k in (0, 2):
        np.testing.assert_array_equal(
            rows[k], adaptive_field(StrategyVector(1, points[k]), FieldSpec(1, F1))
        )



def dense_field(points, column, reparam=False):
    """The field of each row by dense solves of B from chain_system, row by row."""
    rows = []
    for x in points:
        size = len(x)
        qb = x[bar_permutation((size.bit_length() - 1) // 2)]
        system = chain_system(quadruples(x, qb))
        unit = np.zeros(size)
        unit[-1] = 1.0
        nu = solve_systems(system.T, unit)
        h = solve_systems(system, -column)
        h[-1] = 0.0
        hq = h[quad_columns(size)]
        grad = nu * (qb * (hq[:, 0] - hq[:, 2]) + (1 - qb) * (hq[:, 1] - hq[:, 3]))
        if reparam:
            grad *= np.exp(np.linalg.slogdet(system)[1])
        rows.append(grad)
    return np.array(rows)


def test_field_batch_memory5_matches_dense_formula():
    """At n = 5 the matrix-free field equals the dense formula in every
    variant, and central differences of the determinant quotient (of its
    numerator, oriented by sign det B, for the reparametrised variant) at
    four seeded coordinates."""
    rng = np.random.default_rng(505)
    points = rng.uniform(0.1, 0.9, (2, n_states(5)))
    x = StrategyVector(5, points[0])
    coords = rng.choice(n_states(5), 4, replace=False)
    step = 1e-5
    det_sign = np.linalg.slogdet(chain_system(build_transition_matrix(x, x)))[0]
    for variant in ("full", "symmetric", "antisymmetric", "antisymmetric_reparam"):
        column = variant_column(FieldSpec(5, F5, variant))
        reparam = variant == "antisymmetric_reparam"
        rows = field_batch(points, column, reparam)
        np.testing.assert_allclose(rows, dense_field(points, column, reparam), rtol=1e-10)

        def value(probs):
            mutant = StrategyVector(5, probs)
            if not reparam:
                return payoff_from_column(mutant, x, column)
            numerator = chain_system(build_transition_matrix(mutant, x))
            numerator[:, -1] = column
            sign, log_det = np.linalg.slogdet(numerator)
            return det_sign * sign * np.exp(log_det)

        for i in coords:
            up, down = x.probs.copy(), x.probs.copy()
            up[i] += step
            down[i] -= step
            central = (value(up) - value(down)) / (2 * step)
            scale = np.abs(rows[0]).max()
            assert abs(rows[0][i] - central) <= DEFAULTS["gradient_relative"] * scale


def test_reparam_field_refused_above_4096_states_before_any_solve(monkeypatch):
    """det B is dense: the reparametrised field refuses a memory-7 chain
    (16,384 states) with ValueError before the chain is solved."""
    monkeypatch.setattr(dynamics, "solve_chain", lambda *args: pytest.fail("solved"))
    with pytest.raises(ValueError, match="B = M - I is dense"):
        field_batch(np.full((1, n_states(7)), 0.5), np.zeros(n_states(7)), reparam=True)


def test_slow_member_falls_back_to_krylov_alone():
    """A near-tit-for-tat member (eps = 1e-4) of an n = 5 batch exhausts its
    iteration budget and is solved by GMRES; the other members stay
    matrix-free and equal the dense formula entry by entry to 1e-10
    relative.  The GMRES row equals it to 1e-10 of its largest entry (it
    measured 1.6e-12): its smallest entries, about 1e-17 of that, are
    differences of h values of about 5e3, and there two accurate solves
    agree to about 1e-6 only."""
    rng = np.random.default_rng(506)
    points = np.stack(
        [
            rng.uniform(0.1, 0.9, n_states(5)),
            tft_strategy(5, eps=1e-4).probs,
            rng.uniform(0.1, 0.9, n_states(5)),
        ]
    )
    column = variant_column(FieldSpec(5, F5, "full"))
    solve = solve_chain(quadruples(points, points[:, bar_permutation(5)]), column)
    assert [solve.method(k) for k in range(3)] == ["matrix-free", "krylov", "matrix-free"]
    assert solve.converged.tolist() == [True, False, True]
    assert solve.iterations[1] == ITERATION_BUDGET
    rows, dense = field_batch(points, column), dense_field(points, column)
    np.testing.assert_allclose(rows[[0, 2]], dense[[0, 2]], rtol=1e-10)
    assert np.abs(rows[1] - dense[1]).max() <= 1e-10 * np.abs(dense[1]).max()


# per-member speeds of a smooth test field, and the first coordinate past
# which a member's field is NaN (only member 3 gets there)
_SPEEDS = np.array([0.2, 1.5, -3.0, 0.7, -0.8])
_FAIL_AT = np.array([2.0, 2.0, 2.0, 0.58, 2.0])


def _lockstep_field(rows):
    def fn(v):
        out = _SPEEDS[rows, None] * np.sin(3.0 * v + 1.0) + 0.3 * (0.5 - v)
        out[v[:, 0] > _FAIL_AT[rows]] = np.nan
        return out

    return fn


@pytest.mark.parametrize("method", ["rk4", "rk45-adaptive"])
def test_lockstep_matches_batch_of_one(method):
    """Each ensemble member stops for the reason it stops alone; members stop
    at different steps (boundary) and one member's field fails (field_error)
    while the rest carry on.  Under RK4 each member takes the steps and
    states it takes alone.  Under RK45 the ensemble shares one step, so each
    member's times are a prefix of the ensemble's clock, and a member that
    reaches t_max ends where it ends alone."""
    rows = np.arange(len(_SPEEDS))
    starts = np.tile([0.5, 0.55, 0.45], (len(rows), 1))
    kwargs = dict(method=method, observers={"s": lambda v: v.sum(axis=-1)})
    ensemble = integrate_path(_lockstep_field(rows), starts, 0.05, 3.0, **kwargs)
    reasons = [m.stop_reason for m in ensemble.members]
    assert sorted(reasons) == ["boundary", "boundary", "field_error", "t_max", "t_max"]
    boundary = [m for m in ensemble.members if m.stop_reason == "boundary"]
    assert len(boundary[0].times) != len(boundary[1].times)
    for k, member in enumerate(ensemble.members):
        fn = _lockstep_field(rows[k : k + 1])
        (alone,) = integrate_path(fn, starts[k : k + 1], 0.05, 3.0, **kwargs).members
        assert member.stop_reason == alone.stop_reason
        if method == "rk45-adaptive":
            np.testing.assert_array_equal(
                member.times, ensemble.times[: len(member.times)]
            )
            if member.stop_reason == "t_max":
                np.testing.assert_allclose(
                    member.states[-1], alone.states[-1], rtol=0, atol=1e-10
                )
            continue
        assert len(member.times) == len(alone.times)
        assert member.rejected_steps == alone.rejected_steps
        assert member.floor_steps == alone.floor_steps
        np.testing.assert_allclose(member.states, alone.states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(member.times, alone.times, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            member.conserved["s"], alone.conserved["s"], rtol=0, atol=1e-12
        )
    np.testing.assert_array_equal(
        ensemble.times, np.unique(np.concatenate([m.times for m in ensemble.members]))
    )


def test_rk45_counts_rejected_and_floor_steps():
    """A field that varies on a 1e-6 scale: the first step is halved from
    5e-8 to the 1e-8 floor (three rejections), and every step is then
    accepted at the floor although its error estimate exceeds the tolerance."""

    def fn(v):
        return 1e3 * np.sin(1e6 * v)

    start = np.full((1, 4), 0.5)
    (trajectory,) = integrate_path(fn, start, 1e-2, 5e-8, method="rk45-adaptive").members
    assert trajectory.stop_reason == "t_max"
    assert trajectory.rejected_steps == 3
    assert trajectory.floor_steps == 5
    np.testing.assert_allclose(trajectory.step_sizes[1:], 1e-8, rtol=1e-12)
    (smooth,) = integrate_path(
        lambda v: np.full_like(v, 0.01), start, 1e-2, 0.1, method="rk45-adaptive"
    ).members
    assert (smooth.rejected_steps, smooth.floor_steps) == (0, 0)


def test_z2_mirror_ensemble_equals_single_starts():
    rng = np.random.default_rng(24)
    spec = FieldSpec(1, F1, "full")
    starts = [random_point(rng, 1, 0.3, 0.7) for _ in range(3)]
    singles = [z2_mirror_check(spec, [x0], t_max=0.2, dt=1e-3) for x0 in starts]
    deviation, t_end = z2_mirror_check(spec, starts, t_max=0.2, dt=1e-3)
    assert deviation == max(d for d, _ in singles)
    assert t_end == min(t for _, t in singles)


def test_trajectory_diagnostics_shape():
    spec = FieldSpec(1, F1, "antisymmetric")
    x0 = StrategyVector(1, np.array([0.6, 0.45, 0.5, 0.4]))
    trajectory = integrate(spec, [x0], dt=1e-2, t_max=0.1).members[0]
    steps = len(trajectory.times)
    assert trajectory.states.shape == (steps, 4)
    assert trajectory.field_norms.shape == (steps,)
    assert set(trajectory.conserved) == {"G1", "G2", "G3"}
    assert np.all(np.diff(trajectory.times) > 0)


def test_conserved_quantities_memory1_values():
    g1, g2, g3 = conserved_quantities_memory1(tft_strategy(1).probs)
    assert g3 == 0.0  # trajectories at G3 = const sit at fixed distance to TFT
    assert g1 == -1.0
    p = counting_to_full(0.7, 0.4, 0.2)
    assert conserved_quantities_memory1(p.probs)[0] == 0.0


def test_conserved_drift_memory1():
    spec = FieldSpec(1, F1, "antisymmetric")
    x0 = StrategyVector(1, np.array([0.6, 0.45, 0.5, 0.4]))
    trajectory = integrate(spec, [x0], dt=1e-3, t_max=5.0).members[0]
    duration = trajectory.times[-1]
    for name in ("G1", "G2", "G3"):
        assert conserved_report(trajectory, name) / duration <= 1e-7


def test_conserved_pair_difference_indices():
    rng = np.random.default_rng(19)
    p = random_point(rng, 2)
    pairs = dynamics.default_conserved(2)
    cc = pairs["pair_CC"](p.probs)
    expected = (
        p.probs[encode_history([("C", "D"), ("C", "C")], 2)]
        - p.probs[encode_history([("D", "C"), ("C", "C")], 2)]
    )
    assert cc == pytest.approx(expected)
    dd = pairs["pair_DD"](p.probs)
    expected_dd = (
        p.probs[encode_history([("C", "D"), ("D", "D")], 2)]
        - p.probs[encode_history([("D", "C"), ("D", "D")], 2)]
    )
    assert dd == pytest.approx(expected_dd)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 8)])
def test_valid_pair_suffix_count(n, count):
    suffixes = valid_pair_suffixes(n)
    assert len(suffixes) == count
    for suffix in suffixes:
        assert len(suffix) == n - 1
        assert all(a == b for a, b in suffix)


def test_pair_difference_drift_memory2():
    rng = np.random.default_rng(20)
    spec = FieldSpec(2, F2, "antisymmetric")
    x0 = random_point(rng, 2, 0.35, 0.65)
    trajectory = integrate(spec, [x0], dt=EXACT_STEP, t_max=2.0).members[0]
    duration = trajectory.times[-1]
    for name in ("pair_CC", "pair_DD"):
        assert conserved_report(trajectory, name) / duration <= 1e-7


def test_z2_mirror_memory1():
    rng = np.random.default_rng(21)
    spec = FieldSpec(1, F1, "full")
    for _ in range(5):
        x0 = random_point(rng, 1, 0.3, 0.7)
        deviation, _ = z2_mirror_check(spec, [x0], t_max=1.0, dt=EXACT_STEP)
        assert deviation <= 1e-6


def test_z2_mirror_symmetric_point():
    spec = FieldSpec(1, F1, "full")
    probs = np.array([0.7, 0.45, 0.55, 0.3])  # fixed point of the label swap
    np.testing.assert_allclose(1 - probs[::-1], probs)
    x0 = StrategyVector(1, probs)
    deviation, _ = z2_mirror_check(spec, [x0], t_max=0.5, dt=1e-3)
    assert deviation <= 1e-8


def test_z2_mirror_memory2():
    rng = np.random.default_rng(22)
    spec = FieldSpec(2, F2, "full")
    x0 = random_point(rng, 2, 0.35, 0.65)
    deviation, _ = z2_mirror_check(spec, [x0], t_max=0.25, dt=2e-3)
    assert deviation <= 1e-5


def test_tft_reparam_field_vanishes():
    for n in (1, 2):
        f = build_payoff_vector(DONATION, n)
        spec = FieldSpec(n, f, "antisymmetric_reparam")
        eps_values = np.array([1e-3, 1e-4, 1e-5])
        norms = [
            np.abs(adaptive_field(tft_strategy(n, eps=e), spec)).max()
            for e in eps_values
        ]
        slope = np.polyfit(np.log(eps_values), np.log(norms), 1)[0]
        assert slope >= 1.0


def test_tft_unscaled_field_plateau():
    """The unscaled anti-symmetric field tends to a nonzero constant at the
    tit-for-tat corner: every component approaches -(b+c)/16."""
    limit = -(2.0 + 1.0) / 16.0
    spec = FieldSpec(1, F1, "antisymmetric")
    for eps in (1e-4, 1e-5):
        field = adaptive_field(tft_strategy(1, eps=eps), spec)
        np.testing.assert_allclose(field, limit, rtol=50 * eps)


def test_reparam_positively_collinear():
    rng = np.random.default_rng(23)
    for n in (1, 2):
        f = build_payoff_vector(DONATION, n)
        anti = FieldSpec(n, f, "antisymmetric")
        reparam = FieldSpec(n, f, "antisymmetric_reparam")
        for _ in range(10):
            x = random_point(rng, n)
            a = adaptive_field(x, anti)
            r = adaptive_field(x, reparam)
            cosine = a @ r / np.linalg.norm(a) / np.linalg.norm(r)
            assert cosine >= 1 - 1e-10


def test_perturbation_zero_eps_identical():
    (curve,) = perturbation_experiment((0.55, 0.5, 0.45), b=[1.0], c=[1.0], t_max=1.0)
    assert curve.eps == 0.0
    np.testing.assert_array_equal(curve.divergence, 0.0)


def test_perturbation_linear_scaling_and_envelope():
    start = (0.55, 0.5, 0.45)
    small, large = perturbation_experiment(
        start, b=[1.0005, 1.005], c=[0.9995, 0.995], t_max=2.0
    )
    assert small.dominated()
    assert large.dominated()
    k = min(len(small.divergence), len(large.divergence)) - 1
    ratio = large.divergence[k] / small.divergence[k]
    assert 8.0 <= ratio <= 12.0


def test_perturbation_pairs_equal_single_pairs():
    """Several (b, c) pairs integrate as one ensemble and give, pair by
    pair, the curves of separate runs."""
    start = (0.55, 0.5, 0.45)
    pairs = ((1.0005, 0.9995), (1.005, 0.995), (1.0, 1.0))
    curves = perturbation_experiment(
        start, b=[b for b, _ in pairs], c=[c for _, c in pairs], t_max=0.5
    )
    assert len(curves) == len(pairs)
    for curve, (b, c) in zip(curves, pairs):
        (single,) = perturbation_experiment(start, b=[b], c=[c], t_max=0.5)
        for name in ("times", "divergence", "envelope"):
            np.testing.assert_array_equal(getattr(curve, name), getattr(single, name))
        assert (curve.eps, curve.lipschitz, curve.sym_bound) == (
            single.eps, single.lipschitz, single.sym_bound
        )


def test_perturbation_reads_every_state_of_the_antisymmetric_flow():
    """The Lipschitz constant is the maximum over every state of the
    anti-symmetric flow, which depends on b + c alone: a pair with a large
    eps = b - c, whose full flow separates from that flow, gets the
    constant of the pair with eps = 0 and the same b + c."""
    zero, wide = perturbation_experiment(
        (0.55, 0.5, 0.45), b=(1.0, 1.5), c=(1.0, 0.5), t_max=0.5
    )
    assert wide.divergence[-1] > 0.1
    assert wide.lipschitz == pytest.approx(zero.lipschitz, rel=1e-12)


def test_perturbation_lipschitz_constant_does_not_depend_on_the_step(monkeypatch):
    """K is read at every state of the path, so the RK4 step moves it by
    less than 1e-3 relative between 2.5e-3 and 1e-2; a stride sample of
    the states read 3.84 to 4.64 over these steps."""
    constants = []
    for dt in (2.5e-3, 5e-3, 1e-2):
        monkeypatch.setattr(dynamics, "PERTURBATION_STEP", dt)
        (curve,) = perturbation_experiment(
            (0.55, 0.5, 0.45), b=[1.0005], c=[0.9995], t_max=2.0
        )
        constants.append(curve.lipschitz)
    np.testing.assert_allclose(constants, constants[1], rtol=1e-3)


def test_integrate_path_refuses_a_start_that_is_not_a_batch():
    """Starts are always a (batch, size) array; one start is a batch of one."""
    for start in (np.array([0.5, 0.5]), np.full((1, 2, 2), 0.5)):
        with pytest.raises(ValueError, match=r"need a \(batch, size\) array"):
            integrate_path(lambda v: 0.5 - v, start, 1e-2, 1.0)


def test_integrate_path_rejects_boundary_start():
    with pytest.raises(BoundaryMarginError):
        integrate_path(lambda v: v, np.array([[0.0, 0.5]]), 1e-2, 1.0)


@pytest.mark.parametrize("method", ["rk4", "rk45-adaptive"])
def test_integrate_path_rejects_start_whose_field_is_not_finite(method):
    """A start whose field row is NaN (a failed solve) or infinite (an
    overflow) is refused, for one start and for an ensemble that holds it,
    rather than ending as a one-row run stopped by field_error."""

    def fn(v):
        out = 0.5 - v
        out[v[:, 0] < 0.3] = np.nan
        out[v[:, 0] > 0.7] = np.inf
        return out

    for start in ([[0.2, 0.5]], [[0.8, 0.5]], [[0.5, 0.5], [0.2, 0.5]]):
        with pytest.raises(ValueError, match="not finite"):
            integrate_path(fn, np.array(start), 1e-2, 1.0, method=method)
    (inside,) = integrate_path(
        fn, np.array([[0.5, 0.4]]), 1e-2, 1.0, method=method
    ).members
    assert inside.stop_reason == "t_max"


@pytest.mark.parametrize("method", ["rk4", "rk45-adaptive"])
@pytest.mark.parametrize(
    "dt, t_max",
    [(0.0, 1.0), (-1e-3, 1.0), (float("nan"), 1.0), (1e-2, float("inf")), (1e-2, -1.0)],
)
def test_integrate_path_rejects_bad_step(dt, t_max, method):
    """A zero step never advances time; a negative or NaN one must not run,
    and neither may a run that ends before it starts."""
    with pytest.raises(ValueError):
        integrate_path(lambda v: v, np.array([[0.5, 0.5]]), dt, t_max, method=method)


def test_fit_polynomial_invariant_diagnostic():
    """The SVD diagnostic recognises the cubic invariant subspace."""
    spec = FieldSpec(1, F1, "antisymmetric")
    x0 = StrategyVector(1, np.array([0.6, 0.45, 0.5, 0.4]))
    trajectory = integrate(spec, [x0], dt=1e-3, t_max=0.5).members[0]
    g2_coeffs = {
        (3, 0, 0, 0): -1 / 3,
        (1, 0, 0, 0): 1.0,
        (0, 1, 2, 0): -1.0,
        (0, 0, 3, 0): 1 / 3,
        (0, 0, 0, 3): -1 / 3,
    }
    fit = fit_polynomial_invariant(trajectory.states, reference=g2_coeffs)
    assert len(fit["conserved_directions"]) >= 3
    assert fit["reference_residual"] <= 1e-4
