"""Indexing, strategy, and payoff-vector construction tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memn.core import (
    GameParams,
    StrategyVector,
    bar_index,
    build_payoff_vector,
    complement_index,
    counting_to_full,
    decode_history,
    encode_history,
    k_constant,
    label_swap,
    n_states,
    payoff_parts,
    reactive_strategy,
    tft_strategy,
)


def lexicographic_rank(word: str) -> int:
    """Oracle: position of a C/D word among all words of its length."""
    n = len(word)
    universe = ["".join(w) for w in itertools.product("CD", repeat=n)]
    return universe.index(word)


def test_encode_memory1_corners():
    assert encode_history([("C", "C")], 1) == 0
    assert encode_history([("D", "D")], 1) == 3


def test_encode_memory3_example():
    # binary 000110 = 6 for the word CCCDDC
    idx = encode_history([("C", "C"), ("C", "D"), ("D", "C")], 3)
    assert idx == 6
    assert idx == lexicographic_rank("CCCDDC")


def test_encode_memory2_against_enumeration():
    idx = encode_history([("D", "C"), ("C", "D")], 2)
    assert idx == lexicographic_rank("DCCD") == 9


def test_encode_rejects_bad_input():
    with pytest.raises(ValueError):
        encode_history([("C", "C")], 2)
    with pytest.raises(ValueError):
        encode_history([("C", "X")], 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encode_decode_roundtrip(n):
    for idx in range(n_states(n)):
        assert encode_history(decode_history(idx, n), n) == idx


def test_lexicographic_order_is_numeric_order():
    for n in (1, 2, 3):
        words = ["".join(w) for w in itertools.product("CD", repeat=2 * n)]
        for idx, word in enumerate(words):
            rounds = [(word[2 * k], word[2 * k + 1]) for k in range(n)]
            assert encode_history(rounds, n) == idx


@given(st.integers(min_value=1, max_value=4), st.data())
def test_history_roundtrip_random(n, data):
    rounds = data.draw(
        st.lists(
            st.tuples(st.sampled_from("CD"), st.sampled_from("CD")),
            min_size=n,
            max_size=n,
        )
    )
    assert decode_history(encode_history(rounds, n), n) == rounds


def test_bar_index_examples():
    # CDDD <-> DCDD and CDCD <-> DCDC at memory 2
    assert bar_index(0b0111, 2) == 0b1011
    assert bar_index(0b0101, 2) == 0b1010


def test_bar_fixes_equal_pairs():
    for n in (1, 2, 3):
        for idx in range(n_states(n)):
            rounds = decode_history(idx, n)
            if all(a == b for a, b in rounds):
                assert bar_index(idx, n) == idx


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bar_and_complement_commuting_involutions(n):
    for idx in range(n_states(n)):
        assert bar_index(bar_index(idx, n), n) == idx
        assert complement_index(complement_index(idx, n), n) == idx
        assert bar_index(complement_index(idx, n), n) == complement_index(
            bar_index(idx, n), n
        )


def test_label_swap_tft_fixed_point():
    tft = tft_strategy(1)
    swapped = label_swap(tft)
    # oracle: entrywise definition
    expected = np.array(
        [1.0 - tft.probs[complement_index(i, 1)] for i in range(4)]
    )
    np.testing.assert_array_equal(swapped.probs, expected)
    np.testing.assert_array_equal(swapped.probs, tft.probs)


def test_label_swap_constant_strategies():
    allc = StrategyVector(1, np.ones(4))
    np.testing.assert_array_equal(label_swap(allc).probs, np.zeros(4))


def test_label_swap_general_memory1():
    a, b, c, d = 0.1, 0.7, 0.3, 0.9
    p = StrategyVector(1, np.array([a, b, c, d]))
    np.testing.assert_allclose(
        label_swap(p).probs, [1 - d, 1 - c, 1 - b, 1 - a]
    )


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31),
)
def test_label_swap_involution(n, seed):
    rng = np.random.default_rng(seed)
    p = StrategyVector(n, rng.uniform(0, 1, n_states(n)))
    np.testing.assert_array_equal(label_swap(label_swap(p)).probs, p.probs)


def test_payoff_vector_memory1_donation():
    f = build_payoff_vector(GameParams.donation(2, 1), 1)
    np.testing.assert_array_equal(f, [1.0, -1.0, 2.0, 0.0])


def test_payoff_vector_memory2_leading_block():
    params = GameParams(R=3.0, S=0.5, T=5.0, P=1.0)
    f = build_payoff_vector(params, 2)
    r, s, t, p = params.as_tuple()
    np.testing.assert_allclose(
        f[:4], [(r + r) / 2, (r + s) / 2, (r + t) / 2, (r + p) / 2]
    )


def round_payoff(focal: str, opponent: str, params: GameParams) -> float:
    """Oracle: one-round payoff of the focal player."""
    table = {
        ("C", "C"): params.R,
        ("C", "D"): params.S,
        ("D", "C"): params.T,
        ("D", "D"): params.P,
    }
    return table[(focal, opponent)]


def test_payoff_vector_memory3_single_entry():
    params = GameParams(R=3.0, S=0.0, T=5.0, P=1.0)
    f = build_payoff_vector(params, 3)
    idx = encode_history([("C", "C"), ("C", "D"), ("D", "C")], 3)
    assert f[idx] == pytest.approx(
        (params.R + params.S + params.T) / 3, abs=1e-14
    )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("normalized", [True, False])
def test_payoff_vector_matches_enumeration(n, normalized):
    """Every entry equals the (mean of the) per-round payoffs it encodes."""
    params = GameParams(R=2.5, S=-1.5, T=4.0, P=0.5)
    f = build_payoff_vector(params, n, normalized=normalized)
    for idx in range(n_states(n)):
        rounds = decode_history(idx, n)
        total = sum(round_payoff(a, b, params) for a, b in rounds)
        expected = total / n if normalized else total
        assert f[idx] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_payoff_parts_split_under_the_player_swap(n):
    """The parts reassemble f; the player swap fixes the symmetric part and
    negates the anti-symmetric one."""
    f = build_payoff_vector(GameParams(R=2.5, S=-1.5, T=4.0, P=0.5), n)
    sym, anti = payoff_parts(f)
    swap = [bar_index(i, n) for i in range(n_states(n))]
    np.testing.assert_allclose(sym + anti, f, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(sym[swap], sym)
    np.testing.assert_array_equal(anti[swap], -anti)


def test_k_constant_memory1():
    params = GameParams(R=3.0, S=1.5, T=2.5, P=1.0)
    assert k_constant(params, 1) == pytest.approx(params.R + params.P)


def test_k_constant_donation_all_orders():
    params = GameParams.donation(2, 1)
    for n in range(1, 11):
        assert k_constant(params, n) == pytest.approx(1.0, abs=1e-12)


def test_k_constant_generic_equal_gains():
    params = GameParams(R=3.0, S=1.5, T=2.5, P=1.0)  # S + T = R + P = 4
    assert k_constant(params, 5) == pytest.approx(4.0, abs=1e-12)


def test_k_constant_requires_equal_gains():
    with pytest.raises(ValueError):
        k_constant(GameParams(R=3, S=0, T=5, P=1), 2)


def test_tft_memory1():
    np.testing.assert_array_equal(tft_strategy(1).probs, [1, 0, 1, 0])


def test_tft_memory2_reacts_to_last_opponent_bit():
    tft = tft_strategy(2)
    for idx in range(16):
        expected = 1.0 if idx % 2 == 0 else 0.0
        assert tft.probs[idx] == expected
    entry = encode_history([("D", "D"), ("D", "C")], 2)
    assert tft.probs[entry] == 1.0


def test_tft_interiorization():
    eps = 1e-4
    tft = tft_strategy(2, eps=eps)
    assert tft.boundary_distance() >= eps / 2
    assert tft.probs.min() == pytest.approx(eps)
    assert tft.probs.max() == pytest.approx(1 - eps)


def test_counting_to_full():
    np.testing.assert_array_equal(counting_to_full(1, 0, 0).probs, [1, 0, 0, 0])
    np.testing.assert_array_equal(
        counting_to_full(0.5, 0.5, 0.5).probs, [0.5] * 4
    )
    np.testing.assert_array_equal(
        counting_to_full(0.9, 0.5, 0.1).probs, [0.9, 0.5, 0.5, 0.1]
    )
    with pytest.raises(ValueError):
        counting_to_full(1.2, 0.5, 0.5)


def test_reactive_strategy_layout():
    np.testing.assert_array_equal(
        reactive_strategy(0.8, 0.2).probs, [0.8, 0.2, 0.8, 0.2]
    )


def test_strategy_validation():
    with pytest.raises(ValueError):
        StrategyVector(1, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        StrategyVector(1, np.array([0.5, 0.5, 0.5, 1.5]))
    with pytest.raises(ValueError):
        StrategyVector(1, np.array([0.5, np.nan, 0.5, 0.5]))
    with pytest.raises(ValueError):
        StrategyVector(1, np.array([0.5, np.inf, 0.5, 0.5]))
    with pytest.raises(ValueError, match="memory order must be >= 1"):
        StrategyVector(0, np.array([0.5]))


def test_strategy_interior_predicate():
    p = StrategyVector(1, np.array([0.1, 0.5, 0.5, 0.9]))
    assert p.boundary_distance() == pytest.approx(0.1)
    assert p.boundary_distance() < 0.2


def test_game_params_flags():
    donation = GameParams.donation(2, 1)
    assert donation.has_equal_gains()
    with pytest.raises(ValueError):
        GameParams.donation(1, 2)
