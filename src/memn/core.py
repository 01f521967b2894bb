"""History indexing, strategy vectors, payoff vectors, and canonical strategies.

A joint history of the last ``n`` rounds is stored as a ``2n``-bit unsigned
integer.  Bit value 0 means cooperate (C), 1 means defect (D).  Within each
round pair the focal player's action occupies the higher bit, and the oldest
round occupies the most significant pair.  With this packing, lexicographic
order of the C/D index strings (C before D) coincides with numeric order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

COOPERATE = "C"
DEFECT = "D"

_ACTION_BIT = {COOPERATE: 0, DEFECT: 1, 0: 0, 1: 1}


def n_states(n: int) -> int:
    """Number of joint histories for memory order ``n``."""
    return 1 << (2 * n)


def _focal_mask(n: int) -> int:
    # binary 1010...10: the focal player's bit in every pair
    return int("10" * n, 2)


def _opponent_mask(n: int) -> int:
    return int("01" * n, 2)


def encode_history(rounds, n: int) -> int:
    """Pack ``n`` (focal, opponent) action pairs into a history index.

    ``rounds[0]`` is the oldest remembered round; actions are 'C'/'D'
    (0/1 also accepted).
    """
    if len(rounds) != n:
        raise ValueError(f"expected {n} rounds, got {len(rounds)}")
    bits = 0
    for focal, opponent in rounds:
        try:
            a, b = _ACTION_BIT[focal], _ACTION_BIT[opponent]
        except KeyError as exc:
            raise ValueError(f"invalid action {exc.args[0]!r}") from None
        bits = (bits << 2) | (a << 1) | b
    return bits


def decode_history(index: int, n: int):
    """Inverse of :func:`encode_history`; returns a list of (focal, opponent) pairs."""
    if not 0 <= index < n_states(n):
        raise ValueError(f"index {index} out of range for n={n}")
    rounds = []
    for k in range(n - 1, -1, -1):
        pair = (index >> (2 * k)) & 0b11
        rounds.append(("CD"[pair >> 1], "CD"[pair & 1]))
    return rounds


def bar_index(index, n: int):
    """Swap focal and opponent bits within every round pair, of one index
    or an integer array of them.

    The result indexes the same sequence of events from the co-player's
    perspective; the map is an involution.
    """
    hi = _focal_mask(n)
    lo = _opponent_mask(n)
    return ((index & hi) >> 1) | ((index & lo) << 1)


def complement_index(index: int, n: int) -> int:
    """Flip every action in the history (C <-> D for both players)."""
    return index ^ (n_states(n) - 1)


@lru_cache(maxsize=None)
def bar_permutation(n: int) -> np.ndarray:
    """The pair-swap map over all indices, as a read-only array."""
    perm = bar_index(np.arange(n_states(n)), n)
    perm.flags.writeable = False
    return perm


@dataclass(frozen=True)
class StrategyVector:
    """Cooperation probabilities conditioned on each of the 2^(2n) histories."""

    n: int
    probs: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("memory order must be >= 1")
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (n_states(self.n),):
            raise ValueError(
                f"strategy for n={self.n} needs {n_states(self.n)} entries, "
                f"got shape {probs.shape}"
            )
        if not (probs.min() >= 0.0 and probs.max() <= 1.0):  # NaN fails both
            if not np.isfinite(probs).all():
                raise ValueError("strategy entries must be finite")
            raise ValueError("strategy entries must lie in [0, 1]")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.shape[0]

    def boundary_distance(self) -> float:
        """Smallest distance of any entry to {0, 1}."""
        return float(min(self.probs.min(), 1.0 - self.probs.max()))


def label_swap(p: StrategyVector) -> StrategyVector:
    """Exchange the roles of cooperation and defection.

    Entry ``i`` of the result is ``1 - p[complement(i)]``; since the full
    complement reverses the index order, this is an entrywise-flipped
    reversal.  Applying the map twice returns the original strategy.
    """
    return StrategyVector(p.n, 1.0 - p.probs[::-1])


@dataclass(frozen=True)
class GameParams:
    """One-round payoffs (R, S, T, P) for the focal player."""

    R: float
    S: float
    T: float
    P: float

    @classmethod
    def donation(cls, b: float, c: float) -> "GameParams":
        """Donation game: pay cost ``c`` to grant benefit ``b`` (b > c > 0)."""
        if not b > c > 0:
            raise ValueError(f"donation game needs b > c > 0, got b={b}, c={c}")
        return cls(R=b - c, S=-c, T=b, P=0.0)

    def has_equal_gains(self) -> bool:
        return abs((self.R + self.P) - (self.T + self.S)) <= 1e-12

    def as_tuple(self):
        return (self.R, self.S, self.T, self.P)


def build_payoff_vector(
    params: GameParams, n: int, normalized: bool = True
) -> np.ndarray:
    """Per-history average one-round payoff of the focal player, as a
    read-only array of length 4^n.

    The length-4 base case is (R, S, T, P).  Each recursion step prepends one
    more remembered round: the four stacked copies gain R, S, T and P
    respectively.  When ``normalized`` entry ``i`` is the mean of the ``n``
    one-round payoffs encoded by history ``i``; otherwise their plain sum.
    """
    if n < 1:
        raise ValueError("memory order must be >= 1")
    base = np.array(params.as_tuple(), dtype=float)
    if not np.all(np.isfinite(base)):
        raise ValueError(f"game payoffs (R, S, T, P) must be finite, got {params.as_tuple()}")
    values = base.copy()
    with np.errstate(over="ignore"):  # an overflow is refused below
        for level in range(2, n + 1):
            if normalized:
                values = np.concatenate(
                    [(level - 1) / level * values + payoff / level for payoff in base]
                )
            else:
                values = np.concatenate([values + payoff for payoff in base])
    if not np.all(np.isfinite(values)):
        raise ValueError(f"game payoffs (R, S, T, P) = {params.as_tuple()} overflow memory {n}")
    values.flags.writeable = False
    return values


def payoff_parts(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The player-symmetric and anti-symmetric columns 0.5 (f ± f∘bar) of a
    payoff vector, which split the payoff and select the field variants;
    halving first is exact and overflows nothing."""
    half = 0.5 * f
    swapped = half[bar_permutation((len(f).bit_length() - 1) // 2)]
    return half + swapped, half - swapped


def k_constant(params: GameParams, n: int) -> float:
    """Constant K of the reflection identity -f + K 1 = J8 f of a normalized
    payoff vector: R + P at every memory order, under equal gains from
    switching alone."""
    if not params.has_equal_gains():
        raise ValueError("constant requires R + P = T + S")
    return params.R + params.P


def tft_strategy(n: int, eps: float = 0.0) -> StrategyVector:
    """Tit-for-tat: cooperate iff the opponent cooperated in the last round.

    The exact strategy sits on the boundary of the cube; pass ``eps`` to get
    the interiorized version clamp(., eps, 1-eps).
    """
    idx = np.arange(n_states(n))
    probs = np.where(idx & 1 == 0, 1.0, 0.0)
    if eps:
        probs = np.clip(probs, eps, 1.0 - eps)
    return StrategyVector(n, probs)


def counting_to_full(q2: float, q1: float, q0: float) -> StrategyVector:
    """Embed a counting strategy (indexed by cooperator count) into memory 1."""
    for name, value in (("q2", q2), ("q1", q1), ("q0", q0)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name}={value} outside [0, 1]")
    return StrategyVector(1, np.array([q2, q1, q1, q0]))


def reactive_strategy(r1: float, r2: float) -> StrategyVector:
    """Memory-1 strategy reacting only to the co-player's last action.

    ``r1`` is the cooperation probability after the co-player cooperated,
    ``r2`` after they defected.
    """
    return StrategyVector(1, np.array([r1, r2, r1, r2]))
