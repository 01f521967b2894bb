"""Permutation group, conjugation identities, and admissibility tests."""

from itertools import permutations as all_permutations

import numpy as np
import pytest

from memn.core import (
    GameParams,
    StrategyVector,
    bar_index,
    build_payoff_vector,
    k_constant,
    label_swap,
    n_states,
)
from memn.markov import (
    build_transition_matrix,
    dense_matrix,
    quad_columns,
    stationary_distribution,
)
from memn.symmetry import (
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

# the eight 4x4 permutation matrices, written as row -> column index maps
MEMORY1_MAPS = {
    "J1": [0, 1, 2, 3],
    "J2": [0, 2, 1, 3],
    "J3": [1, 0, 3, 2],
    "J4": [1, 3, 0, 2],
    "J5": [2, 0, 3, 1],
    "J6": [2, 3, 0, 1],
    "J7": [3, 1, 2, 0],
    "J8": [3, 2, 1, 0],
}

# the 16x16 block layout of the opponent-flip permutation at memory 2
J3_MEMORY2_MAP = [5, 4, 7, 6, 1, 0, 3, 2, 13, 12, 15, 14, 9, 8, 11, 10]


@pytest.mark.parametrize("kind", KINDS)
def test_memory1_matrices(kind):
    assert build_j(kind, 1).tolist() == MEMORY1_MAPS[kind]


def test_j8_reverses_indices():
    assert build_j("J8", 1).tolist() == [3, 2, 1, 0]
    for n in (2, 3):
        size = n_states(n)
        assert build_j("J8", n).tolist() == list(range(size - 1, -1, -1))


def test_j2_is_player_swap():
    for n in (1, 2, 3):
        j2 = build_j("J2", n)
        expected = [bar_index(i, n) for i in range(n_states(n))]
        assert j2.tolist() == expected


def test_j3_memory2_block_form():
    assert build_j("J3", 2).tolist() == J3_MEMORY2_MAP


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_recursive_equals_bit_operations(n, kind):
    np.testing.assert_array_equal(
        build_j(kind, n), build_j_recursive(kind, n)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_closure_and_size(n):
    group = full_group(n)
    maps = {kind: tuple(j.tolist()) for kind, j in group.items()}
    assert len(set(maps.values())) == 8
    values = set(maps.values())
    for a in group.values():
        for b in group.values():
            assert tuple(compose(a, b).tolist()) in values


def test_generator_algebra():
    group = full_group(2)
    identity = tuple(group["J1"].tolist())
    for kind in ("J1", "J2", "J3", "J6", "J7", "J8"):
        squared = compose(group[kind], group[kind])
        assert tuple(squared.tolist()) == identity
    # the two swap-and-single-flip elements have order four
    j8_map = tuple(group["J8"].tolist())
    assert tuple(compose(group["J4"], group["J4"]).tolist()) == j8_map
    assert tuple(compose(group["J5"], group["J5"]).tolist()) == j8_map
    assert tuple(compose(group["J4"], group["J5"]).tolist()) == identity


def test_product_relations():
    for n in (1, 2):
        group = full_group(n)
        for left, right, result in (
            ("J4", "J8", "J5"),
            ("J3", "J8", "J6"),
            ("J2", "J8", "J7"),
        ):
            np.testing.assert_array_equal(
                compose(group[left], group[right]), group[result]
            )


def test_conjugation_identity_is_noop():
    rng = np.random.default_rng(0)
    p = StrategyVector(1, rng.uniform(0, 1, 4))
    q = StrategyVector(1, rng.uniform(0, 1, 4))
    m = build_transition_matrix(p, q)
    np.testing.assert_array_equal(
        dense_matrix(conjugate_matrix(m, build_j("J1", 1))), dense_matrix(m)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugation_identities_exact(n):
    """Player swap and action relabeling, 50 random pairs, zero tolerance."""
    rng = np.random.default_rng(n)
    j2 = build_j("J2", n)
    j8 = build_j("J8", n)
    for _ in range(50):
        p = StrategyVector(n, rng.uniform(0, 1, n_states(n)))
        q = StrategyVector(n, rng.uniform(0, 1, n_states(n)))
        m = build_transition_matrix(p, q)
        assert np.array_equal(
            dense_matrix(conjugate_matrix(m, j2)),
            dense_matrix(build_transition_matrix(q, p)),
        )
        assert np.array_equal(
            dense_matrix(conjugate_matrix(m, j8)),
            dense_matrix(build_transition_matrix(label_swap(p), label_swap(q))),
        )


def test_conjugate_matrix_refuses_a_permutation_that_does_not_fit():
    """A relabeling that breaks the quadruple layout, one that keeps it but
    not product form (memory-1 (0, 1, 3, 2): its rows would be (pq,
    p(1-q), (1-p)(1-q), (1-p)q)), and one of another size than the chain
    raise ValueError."""
    rng = np.random.default_rng(8)
    p = StrategyVector(2, rng.uniform(0.05, 0.95, 16))
    m = build_transition_matrix(p, p)
    broken = np.arange(16)
    broken[[0, 1]] = [1, 0]
    with pytest.raises(ValueError, match="quadruple layout"):
        conjugate_matrix(m, broken)
    m1 = build_transition_matrix(*(StrategyVector(1, rng.uniform(0.05, 0.95, 4)) for _ in "pq"))
    with pytest.raises(ValueError, match="quadruple layout"):
        conjugate_matrix(m1, np.array([0, 1, 3, 2]))
    with pytest.raises(ValueError, match="dimensions differ"):
        conjugate_matrix(m, build_j("J2", 1))


@pytest.mark.parametrize("kind", KINDS)
def test_payoff_invariance_under_conjugation(kind):
    """Transforming (nu, M, f) together leaves the average payoff unchanged."""
    rng = np.random.default_rng(7)
    n = 2
    f = build_payoff_vector(GameParams.donation(2, 1), n)
    j = build_j(kind, n)
    for _ in range(5):
        p = StrategyVector(n, rng.uniform(0.05, 0.95, 16))
        q = StrategyVector(n, rng.uniform(0.05, 0.95, 16))
        m = build_transition_matrix(p, q)
        nu = stationary_distribution(m)
        base = float(nu @ f)
        conjugated = conjugate_matrix(m, j)
        nu_conj = stationary_distribution(conjugated)
        transformed = float(nu_conj @ f[j])
        assert transformed == pytest.approx(base, abs=1e-10)
        np.testing.assert_allclose(nu_conj, nu[j], atol=1e-10)


def test_reflection_identity_memory1():
    params = GameParams(R=3.0, S=1.5, T=2.5, P=1.0)
    f = build_payoff_vector(params, 1)
    k = params.R + params.P
    np.testing.assert_allclose(
        -f + k, f[::-1], atol=1e-14
    )
    assert payoff_vector_reflection_residual(f) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reflection_residual_donation(n):
    f = build_payoff_vector(GameParams.donation(2, 1), n)
    assert payoff_vector_reflection_residual(f) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reflection_residual_unnormalized_donation(n):
    """An unnormalized vector reflects onto n (R + P) - f, and the residual
    reads K off the vector, so the identity holds there too; in a normalized
    vector the all-CC and all-DD entries sum to the constant K."""
    params = GameParams.donation(2, 1)
    f = build_payoff_vector(params, n, normalized=False)
    assert payoff_vector_reflection_residual(f) <= 1e-14
    g = build_payoff_vector(params, n)
    assert g[0] + g[-1] == pytest.approx(k_constant(params, n), abs=1e-14)


def test_reflection_residual_flags_unequal_gains():
    f = build_payoff_vector(GameParams(R=3, S=0, T=5, P=1), 2)
    assert payoff_vector_reflection_residual(f) > 0.1


def test_bruteforce_memory1_admissible_set():
    passing = admissible_set_bruteforce_memory1()
    assert len(passing) == 8
    expected = sorted(tuple(m) for m in MEMORY1_MAPS.values())
    assert sorted(passing) == expected


def test_all_eight_pass_memory2():
    for kind in KINDS:
        assert check_admissible(build_j(kind, 2), 2)


def test_random_non_j_permutations_fail_memory2():
    rng = np.random.default_rng(2)
    j_maps = {tuple(build_j(k, 2).tolist()) for k in KINDS}
    tested = 0
    while tested < 50:
        perm = rng.permutation(16)
        if tuple(perm.tolist()) in j_maps:
            continue
        tested += 1
        assert not check_admissible(perm, 2)


def test_roundwise_relabelings_at_memory2():
    """Of the 576 relabelings sigma1 x sigma2 that permute the older and the
    newer round's outcome each on its own, exactly 24 keep the quadruple
    layout and exactly the eight J's are admissible: the other 16 break
    product form alone, which random permutations never reach."""
    cols = quad_columns(16)
    layout_kept = 0
    admissible = set()
    for older in all_permutations(range(4)):
        for newer in all_permutations(range(4)):
            perm = (4 * np.array(older)[:, None] + np.array(newer)).ravel()
            k = perm[cols] - cols[perm, 0][:, None]
            layout_kept += bool(k.min() >= 0 and k.max() <= 3)
            if check_admissible(perm, 2):
                admissible.add(tuple(perm.tolist()))
    assert layout_kept == 24
    assert admissible == {tuple(build_j(kind, 2).tolist()) for kind in KINDS}


def test_check_admissible_rejects_non_bijection():
    with pytest.raises(ValueError):
        check_admissible(np.array([0, 0, 1, 2]), 1)


def count_bar_cycles(n):
    """Oracle: explicit 2-cycle count of the pair swap on indices."""
    seen = set()
    two_cycles = 0
    for i in range(n_states(n)):
        j = bar_index(i, n)
        if i == j or i in seen:
            continue
        seen.update((i, j))
        two_cycles += 1
    return two_cycles


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_j2_eigenvalue_multiplicities(n):
    minus, plus = j2_eigenvalue_multiplicities(n)
    assert minus == count_bar_cycles(n)
    size = n_states(n)
    assert minus == size // 2 - 2 ** (n - 1)
    assert plus == size // 2 + 2 ** (n - 1)
    assert minus + plus == size


def test_j2_multiplicity_examples():
    assert j2_eigenvalue_multiplicities(1) == (1, 3)
    assert j2_eigenvalue_multiplicities(2) == (6, 10)
    assert j2_eigenvalue_multiplicities(3) == (28, 36)


def test_j2_eigenvector_base_case():
    j2 = np.zeros((4, 4))
    j2[np.arange(4), build_j("J2", 1)] = 1.0
    vec = np.array([0.0, 1.0, -1.0, 0.0])
    np.testing.assert_array_equal(j2 @ vec, -vec)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_j2_fixed_point_count(n):
    fixed = sum(1 for i in range(n_states(n)) if bar_index(i, n) == i)
    assert fixed == 2**n


def test_build_j_rejects_bad_input():
    with pytest.raises(ValueError):
        build_j("J9", 1)
    with pytest.raises(ValueError):
        build_j("J1", 0)
