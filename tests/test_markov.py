"""Transition matrix, stationary distribution, and payoff tests."""

import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from memn import markov
from memn.battery import _BATTERY
from memn.cli import main
from memn.core import (
    GameParams,
    bar_permutation,
    StrategyVector,
    build_payoff_vector,
    n_states,
    reactive_strategy,
    tft_strategy,
)
from memn.dynamics import FieldSpec, field_rows
from memn.errors import ConvergenceError, DegeneracyError
from memn.markov import (
    build_transition_matrix,
    build_transition_matrix_recursive,
    decompose_payoff,
    dense_matrix,
    iterate_chain,
    payoff,
    payoff_from_column,
    payoff_solve,
    poisson_vector,
    quad_columns,
    reactive_payoff,
    solve_chain,
    solved,
    stationary_distribution,
)

DONATION = GameParams.donation(2.0, 1.0)


def random_pair(rng, n, low=0.05, high=0.95):
    size = n_states(n)
    return (
        StrategyVector(n, rng.uniform(low, high, size)),
        StrategyVector(n, rng.uniform(low, high, size)),
    )


def test_memory1_matrix_row_cd():
    rng = np.random.default_rng(0)
    p, q = random_pair(rng, 1)
    m = dense_matrix(build_transition_matrix(p, q))
    p_cd = p.probs[1]
    q_dc = q.probs[2]  # the co-player reads CD as DC
    np.testing.assert_allclose(
        m[1],
        [p_cd * q_dc, p_cd * (1 - q_dc), (1 - p_cd) * q_dc, (1 - p_cd) * (1 - q_dc)],
    )


def test_uniform_strategies_give_uniform_rows():
    half = StrategyVector(1, np.full(4, 0.5))
    m = dense_matrix(build_transition_matrix(half, half))
    np.testing.assert_array_equal(m, np.full((4, 4), 0.25))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structure_invariants(n):
    """Row sums exactly 1 within 1e-12, quadruple sparsity, quadruple values."""
    rng = np.random.default_rng(n)
    size = n_states(n)
    rows = np.arange(size)
    start = 4 * (rows % (size // 4))
    mask = np.zeros((size, size), dtype=bool)
    for k in range(4):
        mask[rows, start + k] = True
    for _ in range(100):
        p, q = random_pair(rng, n, 0.0, 1.0)
        m = build_transition_matrix(p, q)
        assert np.abs(dense_matrix(m).sum(axis=1) - 1).max() <= 1e-12
        assert not dense_matrix(m)[~mask].any()
        cols = quad_columns(len(m))[3]
        assert cols[0] == 4 * (3 % (size // 4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_recursive_construction_bit_exact(n):
    rng = np.random.default_rng(2 * n)
    for _ in range(20):
        p, q = random_pair(rng, n, 0.0, 1.0)
        direct = dense_matrix(build_transition_matrix(p, q))
        recursive = build_transition_matrix_recursive(p, q)
        assert np.array_equal(direct, recursive)


def test_dimension_mismatch():
    p = StrategyVector(1, np.full(4, 0.5))
    q = StrategyVector(2, np.full(16, 0.5))
    with pytest.raises(ValueError):
        build_transition_matrix(p, q)


def test_stationary_uniform():
    half = StrategyVector(1, np.full(4, 0.5))
    m = build_transition_matrix(half, half)
    nu = stationary_distribution(m)
    np.testing.assert_allclose(nu, np.full(4, 0.25), atol=1e-14)
    assert np.abs(nu @ dense_matrix(m) - nu).max() < 1e-12


def test_stationary_near_absorbing_cooperation():
    eps = 1e-6
    p = StrategyVector(1, np.full(4, 1 - eps))
    m = build_transition_matrix(p, p)
    nu = stationary_distribution(m)
    assert nu[0] >= 1 - 5 * eps


@pytest.mark.parametrize("n", [2, 3])
def test_power_iteration_agrees_with_solve(n):
    rng = np.random.default_rng(3)
    for _ in range(5):
        p, q = random_pair(rng, n)
        m = build_transition_matrix(p, q)
        direct = stationary_distribution(m)
        solve = iterate_chain(m[None])
        iterated = solve.nu[0]
        assert solve.converged[0]
        assert np.abs(direct - iterated).max() <= 1e-9
        assert iterated.sum() == pytest.approx(1.0, abs=1e-10)
        assert solve.residual[0] < 1e-9


def test_singular_solve_raises_degeneracy():
    """The exact tit-for-tat chain has three recurrent classes, so the
    stationary system is rank deficient and the solve must refuse."""
    tft = tft_strategy(1)
    m = build_transition_matrix(tft, tft)
    with pytest.raises(DegeneracyError):
        stationary_distribution(m)


def test_payoff_mutual_cooperation():
    eps = 1e-6
    allc = StrategyVector(1, np.full(4, 1 - eps))
    f = build_payoff_vector(DONATION, 1)
    assert payoff(allc, allc, f) == pytest.approx(1.0, abs=1e-4)


def test_payoff_uniform_strategies():
    half = StrategyVector(1, np.full(4, 0.5))
    f = build_payoff_vector(DONATION, 1)
    assert payoff(half, half, f) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_payoff_methods_agree(n):
    rng = np.random.default_rng(5 + n)
    f = build_payoff_vector(DONATION, n)
    for _ in range(30):
        p, q = random_pair(rng, n)
        d = payoff(p, q, f, method="determinant")
        s = payoff(p, q, f, method="stationary")
        assert abs(d - s) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_poisson_vector_solves_poisson_equation(n):
    """(I - M) h = f - A 1 with h pinned to 0 at the last state, where A is
    the determinant-quotient payoff."""
    rng = np.random.default_rng(31 + n)
    f = build_payoff_vector(DONATION, n)
    p, q = random_pair(rng, n)
    m = build_transition_matrix(p, q)
    h = poisson_vector(m, f)
    value = payoff_from_column(p, q, f)
    assert h[-1] == 0.0
    residual = h - dense_matrix(m) @ h - (f - value)
    assert np.abs(residual).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_payoff_split_matches_determinant_quotients(n):
    rng = np.random.default_rng(37 + n)
    f = build_payoff_vector(DONATION, n)
    swapped = f[bar_permutation(n)]
    for _ in range(5):
        p, q = random_pair(rng, n)
        a, a_s, a_a = payoff_solve(p, q, f)[0]
        assert a == pytest.approx(payoff(p, q, f, method="determinant"), abs=1e-10)
        assert a_s == pytest.approx(
            payoff_from_column(p, q, 0.5 * (f + swapped)), abs=1e-10
        )
        assert a_a == pytest.approx(
            payoff_from_column(p, q, 0.5 * (f - swapped)), abs=1e-10
        )


def test_payoff_constant_shift():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        f = build_payoff_vector(DONATION, n)
        for _ in range(10):
            p, q = random_pair(rng, n)
            shift = rng.uniform(-4, 4)
            assert payoff(p, q, f + shift) == pytest.approx(
                payoff(p, q, f) + shift, abs=1e-10
            )


def test_payoff_boundary_interiorization_gate():
    f = build_payoff_vector(DONATION, 1)
    tft = tft_strategy(1)
    with pytest.raises(DegeneracyError):
        payoff(tft, tft, f)


def test_decompose_payoff_antisymmetric_on_diagonal():
    rng = np.random.default_rng(11)
    f = build_payoff_vector(DONATION, 1)
    p = StrategyVector(1, rng.uniform(0.1, 0.9, 4))
    _, a_a = decompose_payoff(p, p, f)
    assert abs(a_a) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_decompose_payoff_properties(n):
    rng = np.random.default_rng(13 + n)
    f = build_payoff_vector(DONATION, n)
    for _ in range(20):
        p, q = random_pair(rng, n)
        total = payoff(p, q, f)
        a_s, a_a = decompose_payoff(p, q, f)
        b_s, b_a = decompose_payoff(q, p, f)
        assert a_s + a_a == pytest.approx(total, abs=1e-10)
        assert a_s == pytest.approx(b_s, abs=1e-10)
        assert a_a == pytest.approx(-b_a, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2])
def test_antisymmetric_payoff_vanishes_toward_tft(n):
    """A_a(p, tft(eps)) scales like eps: log-log slope close to 1."""
    rng = np.random.default_rng(17 + n)
    f = build_payoff_vector(DONATION, n)
    p = StrategyVector(n, rng.uniform(0.2, 0.8, n_states(n)))
    eps_values = np.array([1e-3, 1e-4, 1e-5])
    gaps = []
    for eps in eps_values:
        _, a_a = decompose_payoff(p, tft_strategy(n, eps=eps), f)
        gaps.append(abs(a_a))
    slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
    assert slope >= 0.9
    assert gaps[-1] <= 10 * (DONATION.T - DONATION.S) * 1e-5


def test_reactive_payoff_corners():
    assert reactive_payoff(1, 1, 1, 1, 2.0, 1.0) == pytest.approx(1.0)
    assert reactive_payoff(0, 0, 0, 0, 2.0, 1.0) == pytest.approx(0.0)


def test_reactive_payoff_matches_pipeline():
    f = build_payoff_vector(DONATION, 1)
    rng = np.random.default_rng(19)
    for _ in range(25):
        p1, p2, q1, q2 = rng.uniform(0.05, 0.95, 4)
        closed = reactive_payoff(p1, p2, q1, q2, 2.0, 1.0)
        full = payoff(reactive_strategy(p1, p2), reactive_strategy(q1, q2), f)
        assert closed == pytest.approx(full, abs=1e-10)
    closed = reactive_payoff(0.8, 0.2, 0.6, 0.3, 2.0, 1.0)
    full = payoff(reactive_strategy(0.8, 0.2), reactive_strategy(0.6, 0.3), f)
    assert closed == pytest.approx(full, abs=1e-10)


def test_reactive_payoff_degenerate_denominator():
    with pytest.raises(DegeneracyError):
        reactive_payoff(1, 0, 1, 0, 2.0, 1.0)
    with pytest.raises(ValueError):
        reactive_payoff(1.5, 0, 1, 0, 2.0, 1.0)


def test_sparse_rows_schema(tmp_path, capsys):
    """``memn matrix`` writes each row as its (column, value) pairs."""
    rng = np.random.default_rng(23)
    p, q = random_pair(rng, 1)
    paths = []
    for name, x in (("p", p), ("q", q)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"n": 1, "probs": x.probs.tolist()}))
    assert main(["matrix", "--n", "1", "--p", str(paths[0]), "--q", str(paths[1])]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 4
    for i, row in enumerate(rows):
        assert [col for col, _ in row] == list(quad_columns(4)[i])
        assert sum(v for _, v in row) == pytest.approx(1.0, abs=1e-12)


def sticky_strategy(n, leave_c=1e-6, leave_d=1e-5):
    """Repeat one's own last action, leaving C with probability ``leave_c``
    and D with ``leave_d``: by default an interior chain that mixes in about
    1e5 rounds, while the uniform start is far from its stationary
    distribution."""
    own_c = (np.arange(n_states(n)) >> 1) & 1 == 0
    return StrategyVector(n, np.where(own_c, 1 - leave_c, leave_d))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_iterate_chain_matches_dense_solves(n):
    """The matrix-free nu and h of each member of a stack, with a column per
    member, equal the dense solves: nu to 1e-12 and h to 1e-11 relative."""
    rng = np.random.default_rng(60 + n)
    f = build_payoff_vector(DONATION, n)
    swapped = f[bar_permutation(n)]
    columns = np.stack([f, 0.5 * (f + swapped), 0.5 * (f - swapped)])
    pairs = [random_pair(rng, n) for _ in columns]
    quads = np.stack([build_transition_matrix(p, q) for p, q in pairs])
    solve = iterate_chain(quads, columns)
    assert solve.converged.all() and not solve.products.any()
    assert np.all((solve.iterations > 0) & (solve.iterations < markov.ITERATION_BUDGET))
    assert np.all(solve.residual <= 1e-13)
    for k, (p, q) in enumerate(pairs):
        m = build_transition_matrix(p, q)
        nu = stationary_distribution(m)
        h = poisson_vector(m, columns[k])
        assert np.abs(solve.nu[k] - nu).max() <= 1e-12 * nu.max()
        assert np.abs(solve.h[k] - h).max() <= 1e-11 * np.abs(h).max()


@pytest.mark.parametrize(
    "call",
    [payoff, lambda p, q, f: payoff(p, q, f, method="determinant"), payoff_solve,
     decompose_payoff],
    ids=["payoff", "payoff-determinant", "payoff_solve", "decompose_payoff"],
)
@pytest.mark.parametrize("mismatch", ["f", "q"])
def test_payoff_calls_refuse_differing_memory_orders(call, mismatch):
    """Every payoff entry point names differing memory orders of p, q and f
    before any matrix product sees them."""
    p1, q1 = random_pair(np.random.default_rng(47), 1)
    q2, _ = random_pair(np.random.default_rng(48), 2)
    f = build_payoff_vector(DONATION, 2 if mismatch == "f" else 1)
    q = q1 if mismatch == "f" else q2
    with pytest.raises(ValueError, match="memory orders of p, q, f must agree"):
        call(p1, q, f)


def test_power_iteration_does_not_settle_on_a_two_cycle():
    """A memory-2 boundary chain with period 2: the focal player defects
    after mutual cooperation and cooperates otherwise, against unconditional
    cooperation, so play alternates CC, DC.  The uniform start feeds 3/4 of
    its mass to one phase, and M^2 fixes that uneven split from the fourth
    round on, so the stride's stop test passes at once.  The one averaging
    round that ends the loop, (nu + nu M) / 2, evens the two phases: the
    member converges on the stationary split (1/2, 1/2), not the start's
    (1/4, 3/4), and nu M equals nu exactly."""
    states = np.arange(n_states(2))
    p = StrategyVector(2, np.where(states & 3 == 0, 0.0, 1.0))
    q = StrategyVector(2, np.ones(n_states(2)))
    m = build_transition_matrix(p, q)
    solve = iterate_chain(m[None])
    assert solve.converged[0] and solve.iterations[0] == 2 * markov.STRIDE + 1
    nu = solve.nu[0]
    assert sorted(nu[nu > 0]) == [0.5, 0.5]
    np.testing.assert_array_equal(nu @ dense_matrix(m), nu)


@pytest.mark.parametrize("n", [5, 6])
def test_two_round_power_iteration_near_tit_for_tat(n):
    """Two rounds a step, on a stack holding a near-tit-for-tat chain (eps =
    1e-4, an eigenvalue near -1): each nu equals the dense solve to 1e-12,
    and one more round moves it by at most the 4 eps stop tolerance."""
    rng = np.random.default_rng(70 + n)
    tft = tft_strategy(n, eps=1e-4)
    interior = random_pair(rng, n)
    pairs = [interior, (tft, tft), (interior[0], tft)]
    chains = [build_transition_matrix(p, q) for p, q in pairs]
    solve = iterate_chain(np.stack(chains))
    assert solve.converged.all()
    for nu, m in zip(solve.nu, chains):
        dense = stationary_distribution(m)
        assert np.abs(nu - dense).max() <= 1e-12
        step = np.zeros_like(nu)
        np.add.at(step, quad_columns(len(nu)), nu[:, None] * m)
        assert np.abs(step / step.sum() - nu).sum() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solve_chain_below_memory4_is_one_dense_solve(n):
    """Below 256 states every member of a stack, with a column per member,
    is solved dense; a singular member (tit-for-tat against itself) comes
    back NaN alone, and the others equal the dense oracles and satisfy
    their equations."""
    rng = np.random.default_rng(40 + n)
    f = build_payoff_vector(DONATION, n)
    swapped = f[bar_permutation(n)]
    columns = np.stack([f, 0.5 * (f + swapped), 0.5 * (f - swapped)])
    pairs = [random_pair(rng, n), (tft_strategy(n), tft_strategy(n)), random_pair(rng, n)]
    quads = np.stack([build_transition_matrix(p, q) for p, q in pairs])
    solve = solve_chain(quads, columns)
    assert {solve.method(k) for k in range(3)} == {"dense"}
    assert not solve.converged.any() and not solve.iterations.any() and not solve.products.any()
    assert np.isnan(solve.nu[1]).all() and np.isnan(solve.h[1]).all()
    residual = solve.residual
    for k in (0, 2):
        m = build_transition_matrix(*pairs[k])
        nu = stationary_distribution(m)
        h = poisson_vector(m, columns[k])
        np.testing.assert_allclose(solve.nu[k], nu, rtol=1e-13, atol=0)
        np.testing.assert_allclose(solve.h[k], h, rtol=1e-13, atol=1e-15)
        assert residual[k] <= 1e-13
    # the residual is computed when read, from the h it is read with
    solve.h[0, 0] += 1e-6
    assert solve.residual[0] > 1e-8


def test_memory4_stack_is_matrix_free_with_krylov_fallback():
    """At 256 states a stack with a column per member is iterated: the
    interior members are matrix-free and equal the dense solves, nu to
    1e-12 and h to 1e-11 relative, and tit-for-tat against itself (a
    singular chain) exhausts its budget, goes to GMRES alone, and its h
    comes back NaN: GMRES refuses the huge h of a system singular to
    working precision, and solved names the failure.  (Its nu settles on
    one of the reducible chain's many stationary vectors.)"""
    rng = np.random.default_rng(44)
    f = build_payoff_vector(DONATION, 4)
    swapped = f[bar_permutation(4)]
    columns = np.stack([f, 0.5 * (f + swapped), 0.5 * (f - swapped)])
    pairs = [random_pair(rng, 4), (tft_strategy(4), tft_strategy(4)), random_pair(rng, 4)]
    quads = np.stack([build_transition_matrix(p, q) for p, q in pairs])
    solve = solve_chain(quads, columns)
    assert [solve.method(k) for k in range(3)] == ["matrix-free", "krylov", "matrix-free"]
    assert solve.converged.tolist() == [True, False, True]
    assert solve.iterations[1] == markov.ITERATION_BUDGET
    assert solve.products[1] > 0 and solve.products[[0, 2]].tolist() == [0, 0]
    assert np.isnan(solve.h[1]).all()
    with pytest.raises(ConvergenceError):
        solved(solve.h[1])
    for k in (0, 2):
        m = build_transition_matrix(*pairs[k])
        nu = stationary_distribution(m)
        h = poisson_vector(m, columns[k])
        assert np.abs(solve.nu[k] - nu).max() <= 1e-12 * nu.max()
        assert np.abs(solve.h[k] - h).max() <= 1e-11 * np.abs(h).max()


def test_poisson_series_does_not_settle_on_a_hidden_two_cycle():
    """A memory-4 chain with period 2: the focal player reverses its own
    last action against unconditional cooperation, so play alternates CC,
    DC.  M has the eigenvalue -1, which (I + M) removes from the paired
    series: its terms vanish after one stride while the partial sum misses
    its alternating part.  The damped round that ends the series, (v + h +
    M h) / 2, restores that part, so the member is solved matrix-free, and
    converged, in its first stride, and h equals the dense Poisson vector."""
    states = np.arange(n_states(4))
    p = StrategyVector(4, np.where((states >> 1) & 1 == 0, 0.0, 1.0))
    q = StrategyVector(4, np.ones(n_states(4)))
    m = build_transition_matrix(p, q)
    column = np.random.default_rng(45).uniform(-1.0, 1.0, n_states(4))
    solve = solve_chain(m[None], column)
    assert solve.method() == "matrix-free" and solve.converged[0]
    assert solve.iterations[0] == 2 * markov.STRIDE + 2
    np.testing.assert_allclose(solve.nu[0], stationary_distribution(m), rtol=0, atol=1e-15)
    h = poisson_vector(m, column)
    assert np.abs(solve.h[0] - h).max() <= 1e-12 * np.abs(h).max()


def test_nu_settles_at_the_first_stride_whose_last_pair_passes(monkeypatch):
    """The stop rule compares the last two two-round iterates of a stride,
    not the stride's ends: on a chain that mixes in hundreds of rounds the
    member settles, and ends its run, at the first stride whose last
    two-round product moves the normalised nu by at most ITERATION_TOL."""
    products = []

    def recorded(weights, blocks):
        out = two_round_product(weights, blocks)
        products.append(out.copy())
        return out

    two_round_product = markov._two_round_product
    monkeypatch.setattr(markov, "_two_round_product", recorded)
    x = sticky_strategy(3, 0.05, 0.1)
    solve = iterate_chain(build_transition_matrix(x, x)[None])
    stride = 2 * markov.STRIDE
    strides = (solve.iterations[0] - 1) // stride
    assert solve.converged[0] and solve.iterations[0] == stride * strides + 1
    assert len(products) == markov.STRIDE * strides

    def moved(k):
        """The 1-norm move of nu in the last product of stride ``k``."""
        last = markov.STRIDE * k
        nu, nxt = (v / v.sum() for v in products[last - 2 : last])
        return np.abs(nxt - nu).sum()

    assert strides > 8
    assert moved(strides) <= markov.ITERATION_TOL < moved(strides - 1)


@pytest.mark.parametrize("with_column", [False, True])
def test_a_member_settles_within_its_budget_and_not_past_it(monkeypatch, with_column):
    """A member that needs R chain rounds settles within a budget of R and
    not within R - 1, where it keeps the budget as its rounds: no stride or
    check may take it past the budget."""
    rng = np.random.default_rng(46)
    p, q = random_pair(rng, 4)
    quads = build_transition_matrix(p, q)[None]
    column = build_payoff_vector(DONATION, 4) if with_column else None
    needed = iterate_chain(quads, column).iterations[0]
    for budget, settles in ((needed, True), (needed - 1, False)):
        monkeypatch.setattr(markov, "ITERATION_BUDGET", budget)
        solve = iterate_chain(quads, column)
        assert solve.converged[0] == settles
        assert solve.iterations[0] == (needed if settles else budget)


@pytest.mark.parametrize("n", [4, 5])
def test_each_member_of_a_stack_equals_its_solo_solve(n):
    """A stack is iterated one member at a time: each member's nu, h,
    rounds and convergence equal its solve alone bit for bit, with a
    column per member, including a near-tit-for-tat member (eps = 0.01)
    that exhausts its budget."""
    rng = np.random.default_rng(80 + n)
    f = build_payoff_vector(DONATION, n)
    swapped = f[bar_permutation(n)]
    columns = np.stack(
        [f, 0.5 * (f + swapped), 0.5 * (f - swapped), f]
    )
    tft = tft_strategy(n, eps=0.01)
    pairs = [random_pair(rng, n), (tft, tft), random_pair(rng, n), random_pair(rng, n)]
    quads = np.stack([build_transition_matrix(p, q) for p, q in pairs])
    stack = iterate_chain(quads, columns)
    assert stack.converged.tolist() == [True, False, True, True]
    for k in range(len(pairs)):
        alone = iterate_chain(quads[k : k + 1], columns[k])
        np.testing.assert_array_equal(stack.nu[k], alone.nu[0])
        np.testing.assert_array_equal(stack.h[k], alone.h[0])
        assert stack.iterations[k] == alone.iterations[0]
        assert stack.converged[k] == alone.converged[0]


@pytest.mark.parametrize("n", range(1, 7))
def test_self_play_solve_is_symmetric_under_the_player_swap(n):
    """At mutant = resident the chain commutes with the player swap bar, so
    nu∘bar = nu, and for the anti-symmetric column c (c∘bar = -c, drift 0)
    h + h∘bar solves the homogeneous Poisson equation and is constant:
    both to 1e-13 relative, dense below memory 4 and matrix-free from
    there up, at seeded interior points."""
    rng = np.random.default_rng(90 + n)
    bar = bar_permutation(n)
    f = build_payoff_vector(DONATION, n)
    anti = 0.5 * (f - f[bar])
    points = rng.uniform(0.05, 0.95, (3, n_states(n)))
    quads = np.stack([markov.quadruples(x, x[bar]) for x in points])
    solve = solve_chain(quads, anti)
    assert {solve.method(k) for k in range(3)} == {"dense" if n < 4 else "matrix-free"}
    for nu, h in zip(solve.nu, solve.h):
        assert np.abs(nu[bar] - nu).max() <= 1e-13 * nu.max()
        assert np.ptp(h + h[bar]) <= 1e-13 * np.abs(h).max()


def test_payoff_split_memory5_matches_determinant_quotients():
    rng = np.random.default_rng(75)
    f = build_payoff_vector(DONATION, 5)
    swapped = f[bar_permutation(5)]
    columns = (f, 0.5 * (f + swapped), 0.5 * (f - swapped))
    for _ in range(2):
        p, q = random_pair(rng, 5)
        values, solve = payoff_solve(p, q, f)
        assert solve.method() == "matrix-free"
        assert payoff_solve(p, q, f)[0] == values
        for value, column in zip(values, columns):
            assert value == pytest.approx(payoff_from_column(p, q, column), abs=1e-12)


def test_memory6_residuals_on_the_quadruples():
    """nu and h satisfy their equations at n = 6, checked on the quadruples
    by scattering and gathering at their columns, with no dense matrix."""
    rng = np.random.default_rng(66)
    f = build_payoff_vector(DONATION, 6)
    p, q = random_pair(rng, 6)
    quads = build_transition_matrix(p, q)
    solve = solve_chain(quads[None], f)
    assert solve.method() == "matrix-free" and solve.converged[0]
    nu, h = solve.nu[0], solve.h[0]
    cols = quad_columns(len(nu))
    nu_m = np.zeros_like(nu)
    np.add.at(nu_m, cols, nu[:, None] * quads)
    m_h = (quads * h[cols]).sum(axis=1)
    assert nu.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.abs(nu_m - nu).max() <= 1e-15
    assert h[-1] == 0.0
    assert np.abs(h - m_h - (f - nu @ f)).max() <= 1e-12


def test_slow_chain_falls_back_to_krylov_at_memory5():
    """A chain that mixes too slowly for the iteration budget is solved by
    GMRES, and its payoff still equals the determinant quotient."""
    p = sticky_strategy(5)
    f = build_payoff_vector(DONATION, 5)
    (value, _, _), solve = payoff_solve(p, p, f)
    assert solve.method() == "krylov" and not solve.converged[0]
    assert solve.iterations[0] == markov.ITERATION_BUDGET and solve.products[0] > 0
    assert value == pytest.approx(payoff_from_column(p, p, f), abs=1e-10)


def tft_chain(n, eps=0.0):
    x = tft_strategy(n, eps=eps)
    return build_transition_matrix(x, x)


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("n", [4, 5])
def test_krylov_solve_matches_the_dense_references(n, eps):
    """Near tit-for-tat the loops do not settle within their budget, and
    GMRES's nu and h equal the dense references to 1e-12 relative."""
    quads = tft_chain(n, eps)
    f = build_payoff_vector(DONATION, n)
    solve = solve_chain(quads[None], f)
    assert solve.method() == "krylov" and not solve.converged[0]
    nu, h = stationary_distribution(quads), poisson_vector(quads, f)
    assert np.abs(solve.nu[0] - nu).max() <= 1e-12 * nu.max()
    assert np.abs(solve.h[0] - h).max() <= 1e-12 * np.abs(h).max()


@pytest.mark.parametrize("eps", [1e-3, 1e-10])
@pytest.mark.parametrize("n", [6, 7])
def test_krylov_residuals_on_the_quadruples(n, eps):
    """GMRES's nu and h satisfy their equations to 1e-13 relative at n = 6
    and 7, checked on the quadruples by scattering and gathering at their
    columns, also 1e-10 from tit-for-tat, the analytic field's margin,
    where |h| is about 5e9."""
    quads = tft_chain(n, eps)
    f = build_payoff_vector(DONATION, n)
    solve = solve_chain(quads[None], f)
    assert solve.method() == "krylov"
    nu, h = solve.nu[0], solve.h[0]
    cols = quad_columns(len(nu))
    nu_m = np.zeros_like(nu)
    np.add.at(nu_m, cols, nu[:, None] * quads)
    m_h = (quads * h[cols]).sum(axis=1)
    assert nu.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.abs(nu_m - nu).max() <= 1e-13 * nu.max()
    assert h[-1] == 0.0
    assert np.abs(h - m_h - (f - nu @ f)).max() <= 1e-13 * np.abs(h).max()


def test_krylov_member_with_a_zero_column_has_h_zero():
    """A member whose nu needs GMRES also takes h from it, though a zero
    column settles the Poisson series at once: GMRES starts from 0, which
    solves B y = 0 exactly, so h is 0, not NaN."""
    probs = np.where(np.arange(n_states(4)) & 1 == 0, 1 - 1e-3, 2e-3)
    x = StrategyVector(4, probs)
    solve = solve_chain(build_transition_matrix(x, x)[None], np.zeros(n_states(4)))
    assert solve.method() == "krylov"
    np.testing.assert_array_equal(solve.h[0], 0.0)


def test_nonconverging_chain_at_memory7_raises_without_dense_matrix():
    """Exact tit-for-tat self-play with the donation column has a singular
    B: GMRES's relative residual would pass on an h of about 1e16, so it
    refuses that h, the member comes back NaN, and solved raises
    ConvergenceError, at n = 4, 5 and 7, with no dense B (2.1 GB at n =
    7) allocated."""
    for n in (4, 5, 7):
        f = build_payoff_vector(DONATION, n)
        tracemalloc.start()
        try:
            solve = solve_chain(tft_chain(n)[None], f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solve.method() == "krylov" and not np.isfinite(solve.h[0]).any()
        with pytest.raises(ConvergenceError):
            solved(solve.h[0])
        assert peak < 100e6


def test_field_raises_convergence_error_without_dense_fallback():
    """A field whose chain neither the loops nor GMRES can settle raises
    ConvergenceError, not DegeneracyError: exact tit-for-tat at memory 4,
    evaluated without the margin check."""
    x = tft_strategy(4).probs[None]
    with pytest.raises(ConvergenceError):
        field_rows(FieldSpec(4, build_payoff_vector(DONATION, 4)), x)


@pytest.mark.parametrize("method", ["determinant", "reference"])
def test_dense_chain_system_refused_above_4096_states(method):
    """B is dense, 2.1 GB at memory 7 (16,384 states): the determinant
    payoff and the dense reference raise ValueError where chain_system
    would build it, before anything of that size is allocated."""
    rng = np.random.default_rng(77)
    p, q = random_pair(rng, 7)
    f = build_payoff_vector(DONATION, 7)
    m = build_transition_matrix(p, q)
    calls = {
        "determinant": lambda: payoff(p, q, f, method="determinant"),
        "reference": lambda: stationary_distribution(m),
    }
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="refused above 4096 states"):
            calls[method]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def _references(path: Path, names) -> set:
    """(name, module, scope) for each use of one of ``names`` in ``path``:
    a name, an attribute or an import, in the top-level function or class
    ``scope``, or ``<module>`` outside them."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        scope = getattr(node, "name", "<module>")
        for sub in ast.walk(node):
            used = [getattr(sub, "id", None), getattr(sub, "attr", None)]
            if isinstance(sub, ast.ImportFrom):
                used += [alias.name for alias in sub.names]
            found |= {(name, path.stem, scope) for name in used if name in names}
    return found


def test_chains_are_solved_through_solve_chain_alone():
    """Across the package, iterate_chain, GMRES and the dense solve are used
    only inside markov.solve_chain: there is one solve path, and the dense
    references do not take it."""
    names = {"iterate_chain", "_dense_solve", "_krylov", "_gmres"}
    found = set()
    for path in sorted(Path(markov.__file__).parent.glob("*.py")):
        found |= _references(path, names)
    assert found == {
        ("iterate_chain", "markov", "solve_chain"),
        ("_dense_solve", "markov", "solve_chain"),
        ("_krylov", "markov", "solve_chain"),
        ("_gmres", "markov", "_krylov"),
    }


# the oracles by module: the determinant quotient, the dense references,
# the block recursions, the printed closed forms and central differences
ORACLES = {
    "markov": {
        "build_transition_matrix_recursive", "payoff_from_column", "_det_ratio",
        "mutant_systems", "poisson_vector", "stationary_distribution",
    },
    "dynamics": {
        "_field_central", "memory1_field_closed", "memory1_antisym_field_closed",
        "counting_antisym_closed", "_antisym_terms",
    },
    "symmetry": {"build_j_recursive", "admissible_set_bruteforce_memory1"},
}


def test_oracles_are_named_only_by_oracles_and_checks():
    """Every function of the package that names an oracle is an oracle, a
    printed-form study, a battery check, or one of the two dispatches that
    still select an oracle (markov.payoff's determinant method and
    dynamics.adaptive_field's central differences).  A module imports an
    oracle only where one of its functions uses it, so the package root
    exports none."""
    names = set().union(*ORACLES.values())
    allowed = {(module, name) for module, group in ORACLES.items() for name in group}
    allowed |= {("battery", entry[2].__name__) for entry in _BATTERY}
    allowed |= {
        ("dynamics", "counting_sign_study"), ("dynamics", "counting_edge_equilibria"),
        ("markov", "payoff"), ("dynamics", "adaptive_field"),
    }
    found = set()
    for path in sorted(Path(markov.__file__).parent.glob("*.py")):
        found |= _references(path, names)
    used = {(name, module) for name, module, scope in found if scope != "<module>"}
    strays = {
        (name, module, scope) for name, module, scope in found
        if (module, scope) not in allowed
        and (scope != "<module>" or (name, module) not in used)
    }
    assert strays == set()
    assert ("memory1_field_closed", "battery", "check_closed_forms") in found
