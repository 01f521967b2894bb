"""The eight admissible index permutations and their conjugation identities.

A permutation is admissible when conjugating by it maps every chain to a
chain.  That is index arithmetic, decided exactly by
:func:`_conjugation_layout`: no chain is built and nothing is sampled.
Exactly the eight relabelings below are admissible.  Each is generated by
up to three involutions on history indices: flipping the focal player's
action labels, flipping the co-player's labels, and swapping the two
players' roles within every round.  Flips are applied first, then the swap.
A permutation is its read-only index array ``perm``, with the convention
that the corresponding permutation matrix J has ``J[i, perm[i]] = 1``, so
``J v`` is ``v[perm]`` and conjugation ``J M J^T`` relabels both axes of a
chain's quadruples.
"""

from __future__ import annotations

from itertools import permutations as all_permutations

import numpy as np

from .core import _focal_mask, _opponent_mask, bar_permutation, n_states
from .markov import quad_columns

KINDS = ("J1", "J2", "J3", "J4", "J5", "J6", "J7", "J8")

# (flip_focal, flip_opponent, swap_players) per kind.
GENERATORS = {
    "J1": (False, False, False),
    "J2": (False, False, True),
    "J3": (False, True, False),
    "J4": (True, False, True),
    "J5": (False, True, True),
    "J6": (True, False, False),
    "J7": (True, True, True),
    "J8": (True, True, False),
}

# Index maps at memory 1, row -> column of the single 1 in each row.
_BASE_MAPS = {
    "J1": (0, 1, 2, 3),
    "J2": (0, 2, 1, 3),
    "J3": (1, 0, 3, 2),
    "J4": (1, 3, 0, 2),
    "J5": (2, 0, 3, 1),
    "J6": (2, 3, 0, 1),
    "J7": (3, 1, 2, 0),
    "J8": (3, 2, 1, 0),
}


def build_j(kind: str, n: int) -> np.ndarray:
    """One of the eight admissible permutations at memory ``n``, as its
    read-only index array."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if n < 1:
        raise ValueError("memory order must be >= 1")
    flip_focal, flip_opponent, swap = GENERATORS[kind]
    mask = 0
    if flip_focal:
        mask |= _focal_mask(n)
    if flip_opponent:
        mask |= _opponent_mask(n)
    idx = np.arange(n_states(n)) ^ mask
    if swap:
        idx = bar_permutation(n)[idx]
    idx.flags.writeable = False
    return idx


def build_j_recursive(kind: str, n: int) -> np.ndarray:
    """Block-recursive construction (test oracle for :func:`build_j`).

    The memory-``n`` matrix replaces each 1 of the memory-1 matrix with a
    copy of the memory-``(n-1)`` matrix and each 0 with a zero block; on
    index maps this is digit-wise application of the base map.
    """
    base = _BASE_MAPS[kind]
    perm = np.array(base, dtype=int)
    for level in range(2, n + 1):
        sub = n_states(level - 1)
        size = 4 * sub
        new = np.empty(size, dtype=int)
        for prefix in range(4):
            block = slice(prefix * sub, (prefix + 1) * sub)
            new[block] = base[prefix] * sub + perm
        perm = new
    perm.flags.writeable = False
    return perm


def full_group(n: int) -> dict:
    return {kind: build_j(kind, n) for kind in KINDS}


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index map of the matrix product a . b."""
    return b[a]


def _conjugation_layout(perm: np.ndarray) -> np.ndarray | None:
    """Where J M J^T takes each quadruple entry from, or None when J M J^T
    is not a chain for every M.

    Row ``i`` of J M J^T is row ``perm[i]`` of M with its columns relabeled;
    its quadruple columns ``c`` read M at column ``perm[c]``, which is entry
    ``k = perm[c] - (first quadruple column of row perm[i])`` of that row's
    quadruple e = (pq, p(1-q), (1-p)q, (1-p)(1-q)).  Every ``k`` in [0, 3]
    keeps the quadruple layout; the row e[k] is then nonnegative with unit
    sum, and of product form for every p and q iff e[k0] e[k3] = e[k1] e[k2].
    Of the six pair products of e only e0 e3 and e1 e2 are equal, so that
    holds iff k0 + k3 = 3.  Under both rules ``quads[perm[:, None], k]``
    are the conjugate's quadruples.
    """
    cols = quad_columns(len(perm))
    k = perm[cols] - cols[perm, 0][:, None]
    fits = k.min() >= 0 and k.max() <= 3 and np.all(k[:, 0] + k[:, 3] == 3)
    return k if fits else None


def conjugate_matrix(quads: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """J M J^T of a chain's quadruples as a pure relabeling (no arithmetic).

    Raises ValueError when ``perm`` has another size than the chain or does
    not map every chain to a chain (:func:`_conjugation_layout`), such as
    memory-1 (0, 1, 3, 2), which keeps the layout but not product form.
    """
    if len(perm) != len(quads):
        raise ValueError("permutation and matrix dimensions differ")
    k = _conjugation_layout(perm)
    if k is None:
        raise ValueError("the permutation does not keep the quadruple layout of a chain")
    return quads[perm[:, None], k]


def payoff_vector_reflection_residual(f: np.ndarray) -> float:
    """Max-norm defect of -f + K 1 = J8 f, with K = f[0] + f[-1].

    The all-CC and all-DD entries sum to R + P in a normalized payoff vector
    and to n (R + P) in an unnormalized one.  The residual vanishes for
    payoff vectors built under equal gains from switching; for other payoffs
    it is positive and reports how far the reflection identity fails.
    """
    return float(np.abs(-f + (f[0] + f[-1]) - f[::-1]).max())


def check_admissible(perm: np.ndarray, n: int) -> bool:
    """Whether conjugating by ``perm`` maps every memory-``n`` chain to a
    chain, decided exactly by :func:`_conjugation_layout`."""
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(n_states(n))):
        raise ValueError("perm is not a bijection on the index set")
    return _conjugation_layout(perm) is not None


def admissible_set_bruteforce_memory1():
    """All permutations of the 4 memory-1 states that pass admissibility."""
    return [perm for perm in all_permutations(range(4)) if check_admissible(np.array(perm), 1)]


def j2_eigenvalue_multiplicities(n: int) -> tuple[int, int]:
    """Eigenvalue multiplicities (-1 count, +1 count) of the player swap.

    Computed from the cycle structure of the involution: every 2-cycle
    contributes one -1 eigenvector, every fixed point a +1 eigenvector.
    """
    size = n_states(n)
    fixed = int(np.count_nonzero(bar_permutation(n) == np.arange(size)))
    minus = (size - fixed) // 2
    return minus, size - minus
