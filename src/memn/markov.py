"""Transition matrices, stationary distributions, and payoff functionals.

The state of a memory-``n`` game is the joint history of the last ``n``
rounds.  Each row of the transition matrix has exactly four nonzero entries:
at history ``i`` the next state is obtained by dropping the oldest round and
appending the new joint action, so the nonzeros of row ``i`` sit at columns
``4*(i mod 2^(2n-2)) + {0,1,2,3}`` and factor as

    (p_i * qb, p_i * (1-qb), (1-p_i) * qb, (1-p_i) * (1-qb))

where ``qb`` is the co-player's cooperation probability at the mirrored
history ``bar(i)``.

A chain is these (size, 4) quadruples, a plain array, and nothing else;
this is the only module that knows where they sit.  The dense matrix is
derived on demand (:func:`dense_matrix`) for the oracles and tests alone.

Payoffs, their split and the adaptive field need the stationary
distribution nu, nu (M - I) = 0, and the Poisson vector h, (I - M) h =
column - (nu . column) 1 with h[-1] = 0.  :func:`solve_chain` alone gives
both, for a stack of chains, and alone chooses how.  Below
``MATRIX_FREE_SIZE`` states (memory 4) the stack is one dense solve of B =
M - I with its last column set to 1 (:func:`chain_system`).  From there up
:func:`iterate_chain` takes one chain at a time through two plain loops on
the (size/16, 16, 16) blocks of M^2, each step O(size), with ``STRIDE``
two-round products per stop test: nu by power iteration, and h by the
paired Poisson series h = sum_j M^(2j) (I + M) v.  M^2 and (I + M) hide an
eigenvalue -1, so each loop ends with one damped round, (I + M)/2 (Stewart
1994): nu' = (nu + nu M)/2 has nu' M - nu' = (nu M^2 - nu)/2, and h' = (v +
h + M h)/2 the Poisson defect M^2 w/2 + const, w the series' last term, so
each stop test bounds the returned vector's own residual, above a rounding
floor of a few eps |h|_inf for h.  Budgets and iteration counts are in
chain rounds.  A member that has not settled within ``ITERATION_BUDGET``
rounds (a slowly mixing chain near the boundary), at any size, is solved
by restarted GMRES (:func:`_krylov`) on the same B^T nu = e_last and B y =
-column, B applied from the quadruples, and comes back NaN where that does
not converge, as at a chain system singular to working precision;
:func:`solved` names the error.  :func:`dense_matrix`, the one dense
scatter and the base of :func:`chain_system`, refuses a chain above
``DENSE_LIMIT`` states.  |det B| of a self-play chain
(:func:`det_magnitude`) is taken without B: there M commutes with the
player swap ``bar``, so B splits into a bar-even and a bar-odd half
(:func:`swap_halves`), each scattered dense from the quadruples, and det B
is the product of their determinants.  The determinant quotient, the dense
references :func:`stationary_distribution` and :func:`poisson_vector`, and
the block recursion are kept as oracles.
"""

from __future__ import annotations

import contextlib
from functools import lru_cache

import numpy as np

from .core import (
    StrategyVector,
    bar_index,
    bar_permutation,
    n_states,
    payoff_parts,
)
from .errors import ConvergenceError, DegeneracyError

INTERIOR_THRESHOLD = 1e-12
# The dense LU costs O(size^3), an iteration O(size).  Measured in-process on
# a 2-core host, nu and h of one chain took 2.0-2.4 ms by the stacked (B^T,
# B) LU against 0.8-1.3 ms iterated at 256 states (memory 4), and 0.09-0.15
# ms against 1.2 ms at 64 states (memory 3).
MATRIX_FREE_SIZE = 256
# the largest chain whose dense M or B is ever built: 134 MB at 4,096 states
DENSE_LIMIT = 4096
ITERATION_TOL = 4 * np.finfo(float).eps
# Two-round products per stop test.  nu + h of one chain, median over five
# interior chains in two in-process runs on a 2-core host, took 0.90-1.02,
# 0.85-0.86 and 0.91-0.97 ms at a stride of 4, 8 and 16 at memory 4,
# 1.95-2.05, 1.82-1.97 and 1.92-1.94 ms at memory 5, and 4.9-5.1, 4.4-4.8
# and 4.9-5.4 ms at memory 6: a stop test costs about as much as a product,
# and a longer stride overshoots by up to 2 STRIDE rounds.
STRIDE = 8
# Chain rounds of each loop before a member goes to GMRES, at every size.
# Random interior chains settle in 82-98 rounds (quartiles of 200 drawn
# from uniform(0.05, 0.95), donation column, memory 4); the slowest took
# 242, and at memory 8 one of eight seeded chains took 213.  GMRES took
# 140-180 products on such chains, 4-10 times the loops' time (memory 4-7).
ITERATION_BUDGET = 350
# GMRES(m): basis vectors a cycle, and cycles.  41 vectors of 262,144
# states take 86 MB at memory 9.  Near tit-for-tat one cycle settles nu
# and one h, 20-36 products in all at memory 4-9; eight seeded random
# interior chains, forced past the loops, took at most 4 cycles.
KRYLOV_BASIS = 40
KRYLOV_CYCLES = 8
# GMRES's stop test on the chain's own max-norm residual, relative to the
# solution's max norm.  At 4 eps one of those eight chains used up its
# cycles; at 16 eps all of them settled.
KRYLOV_TOL = 16 * np.finfo(float).eps


@lru_cache(maxsize=None)
def quad_columns(size: int) -> np.ndarray:
    """(size, 4) read-only array of the columns of each row's quadruple."""
    cols = 4 * (np.arange(size) % (size // 4))[:, None] + np.arange(4)
    cols.flags.writeable = False
    return cols


@lru_cache(maxsize=32)
def _pair_layout(size: int, members: int, systems: int):
    """Flat indices into a (members, systems, size, size + 1) stack of each
    member's augmented systems (B^T | e_last) and, with two systems, (B |
    -column), for :func:`_dense_solve`: the diagonals; the quadruple
    entries; the entries that are 1, which are the last row of B^T, e_last's
    last entry and the last column of B; and the offset each quadruple entry
    takes, -1 on the diagonal and 0 off it."""
    width = size + 1
    rows = np.arange(size).repeat(4)
    cols = quad_columns(size).ravel()
    starts = size * width * np.arange(members * systems).reshape(members, systems, 1)
    entries = np.stack([width * cols + rows, width * rows + cols])[:systems]
    ones = [width * (size - 1) + np.arange(width), width * np.arange(size) + size - 1]
    offset = np.where(rows == cols, -1.0, 0.0)
    return (
        (starts + (width + 1) * np.arange(size)).ravel(),
        (starts + entries).ravel(),
        np.concatenate([starts[:, k] + ones[k] for k in range(systems)], axis=1).ravel(),
        np.tile(offset, (systems, 1)),
    )


def _refuse_dense(size: int) -> None:
    if size > DENSE_LIMIT:
        raise ValueError(f"B = M - I is dense; refused above {DENSE_LIMIT} states")


def stack_blocks(count: int, size: int):
    """Slices that cut ``count`` dense (size, size) systems into the blocks
    that are built at once: all of them below ``MATRIX_FREE_SIZE`` states,
    where a system takes at most 32 KB, and one at a time from there up,
    where it takes 512 KB or more."""
    step = max(count, 1) if size < MATRIX_FREE_SIZE else 1
    return [slice(k, k + step) for k in range(0, count, step)]


def quadruples(p: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """(..., size, 4) row quadruples of focal probabilities ``p`` against the
    co-player's probabilities ``qb`` read at the mirrored histories."""
    out = np.empty(np.shape(p) + (4,))
    not_p, not_qb = 1 - p, 1 - qb
    np.multiply(p, qb, out[..., 0])
    np.multiply(p, not_qb, out[..., 1])
    np.multiply(not_p, qb, out[..., 2])
    np.multiply(not_p, not_qb, out[..., 3])
    return out


def _left_product(weights: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """nu M without the dense M: row i's weight lands on its quadruple columns.

    ``weights`` is (..., size) and ``quads`` (..., size, 4), one chain or a
    stack.  Rows i and i + size/4 share their columns, so the (4, size/4, 4)
    view sums over its first axis.
    """
    *lead, size, _ = quads.shape
    spread = (weights[..., None] * quads).reshape(*lead, 4, size // 4, 4)
    return spread.sum(-3).reshape(*lead, size)


def _right_product(quads: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v without the dense M: row i reads ``v`` at its quadruple columns.

    The contraction of the (4, size/4, 4) view with ``v`` as (size/4, 4);
    einsum takes a third of the time of a product and a sum over the last
    axis at 4,096 states.
    """
    *lead, size, _ = quads.shape
    tiles = quads.reshape(*lead, 4, size // 4, 4)
    product = np.einsum("...ajk,...jk->...aj", tiles, v.reshape(*lead, size // 4, 4))
    return product.reshape(*lead, size)


def _two_round_blocks(quads: np.ndarray) -> np.ndarray:
    """M^2 of one chain's (size, 4) quadruples, memory 2 up, as (size/16,
    16, 16) blocks.

    A state is (a1, a2, m), m its last n - 2 rounds.  Two rounds take it to
    (m, k1, k2) with probability q[(a1 a2 m), k1] q[(a2 m k1), k2], so block m
    maps the 16 values of (a1 a2) to the 16 of (k1 k2): 4 times the memory
    of the quadruples.
    """
    size = len(quads)
    first = quads.reshape(4, 4, size // 16, 4).transpose(2, 0, 1, 3)
    second = quads.reshape(4, size // 16, 4, 4).transpose(1, 0, 2, 3)
    blocks = first[..., None] * second[:, None]
    return blocks.reshape(size // 16, 16, 16)


def _two_round_product(weights: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """nu M^2 from the blocks of :func:`_two_round_blocks`: nu as (16,
    size/16), one row per block, in one batched matmul."""
    span = len(blocks)
    return (weights.reshape(16, span).T[:, None] @ blocks).reshape(16 * span)


def _two_round_right(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M^2 v from the blocks of :func:`_two_round_blocks`: block m maps v
    at the 16 states (m, k1, k2) to the 16 states (a1, a2, m)."""
    span = len(blocks)
    return (blocks @ v.reshape(span, 16, 1)).reshape(span, 16).T.reshape(16 * span)


def build_transition_matrix(p: StrategyVector, q: StrategyVector) -> np.ndarray:
    """The chain of ``p`` against ``q``: its (size, 4) row quadruples."""
    if p.n != q.n:
        raise ValueError(f"memory orders differ: {p.n} vs {q.n}")
    return quadruples(p.probs, q.probs.take(bar_permutation(p.n)))


def build_transition_matrix_recursive(
    p: StrategyVector, q: StrategyVector
) -> np.ndarray:
    """Dense block-recursive construction, used as the structural test oracle.

    The memory-``n`` matrix is assembled from four memory-``(n-1)`` matrices,
    one per prefix round CC/CD/DC/DD: each is cut into four horizontal strips
    which are placed block-diagonally, with the strip index selecting the
    block column.  The co-player's sub-strategy for prefix ``t`` is the slice
    at the mirrored prefix ``bar(t)``.
    """
    if p.n != q.n:
        raise ValueError(f"memory orders differ: {p.n} vs {q.n}")
    n = p.n
    if n == 1:
        # row i: the joint actions against q at the mirrored history bar(i)
        a, b = p.probs[:, None], q.probs[[0, 2, 1, 3], None]
        return np.hstack([a * b, a * (1 - b), (1 - a) * b, (1 - a) * (1 - b)])
    sub = n_states(n - 1)
    strip = sub // 4
    size = n_states(n)
    entries = np.zeros((size, size))
    prefix_bar = [bar_index(t, 1) for t in range(4)]
    for t in range(4):
        p_slice = StrategyVector(n - 1, p.probs[t * sub : (t + 1) * sub])
        tb = prefix_bar[t]
        q_slice = StrategyVector(n - 1, q.probs[tb * sub : (tb + 1) * sub])
        block = build_transition_matrix_recursive(p_slice, q_slice)
        for s in range(4):
            row0 = (4 * t + s) * strip
            col0 = s * sub
            entries[row0 : row0 + strip, col0 : col0 + sub] = block[
                s * strip : (s + 1) * strip, :
            ]
    return entries


def dense_matrix(quads: np.ndarray) -> np.ndarray:
    """The dense M of one chain's (size, 4) quadruples, or a (batch, size,
    size) stack of M from a (batch, size, 4) stack: the only dense scatter.

    Above ``DENSE_LIMIT`` states, where one M takes gigabytes, it is
    refused (``ValueError``) before anything is allocated.
    """
    quads = np.asarray(quads)
    *lead, size, _ = quads.shape
    _refuse_dense(size)
    out = np.zeros((*lead, size, size))
    out[..., np.arange(size)[:, None], quad_columns(size)] = quads
    return out


def chain_system(quads: np.ndarray) -> np.ndarray:
    """B = M - I with its last column set to 1, from the quadruples.

    ``quads`` is one chain's (size, 4) array or a (batch, size, 4) stack,
    giving B or a (batch, size, size) stack of B.  B is the
    determinant-quotient denominator and the one matrix behind the
    stationary and Poisson solves: nu B = e_last says nu (M - I) = 0 and
    nu . 1 = 1.  :func:`dense_matrix` refuses it above
    ``DENSE_LIMIT`` states.
    """
    out = dense_matrix(quads)
    size = out.shape[-1]
    out.reshape(-1, size * size)[:, :: size + 1] -= 1.0  # the diagonal
    out[..., -1] = 1.0
    return out


def swap_layout(perm: np.ndarray):
    """How B splits under an involution ``perm`` of the states, for
    :func:`swap_halves`: for the even half and, unless ``perm`` fixes every
    state, the odd half, its order d; for each quadruple entry it sums, the
    flat source in a chain's (size, 4) quadruples, the flat destination in
    the (d, d) half and the sign; and the flat places and sums there of B's
    constant entries.

    With the orbits {i, perm i} listed by i <= perm i, the even basis is
    s_b = e_i + e_perm(i) (e_i at a fixed point) and the odd basis d_b =
    e_i - e_perm(i) (i < perm i).  If B commutes with perm (which then
    fixes the last state, as B's last column is all 1), B s_b and B d_b
    stay in their halves, and row i_a of each reads B_even[a, b] = sum_(j
    in orbit b) B[i_a, j] and B_odd[a, b] = B[i_a, i_b] - B[i_a, perm i_b].
    So the entries of row i_a of B, its quadruple entries, -1 on the
    diagonal and 1 in the last column (which replaces the others there),
    land in their orbit's column, signed by their end of the orbit in the
    odd half, where a fixed column drops out; det B = det B_even det B_odd.
    """
    perm = np.asarray(perm)
    size = len(perm)
    states = np.arange(size)
    last = size - 1
    layout = []
    for reps, far_end in ((states[states <= perm], 1.0), (states[states < perm], -1.0)):
        d = len(reps)
        if d == 0:
            continue
        index = np.zeros(size, dtype=int)
        index[reps] = index[perm[reps]] = np.arange(d)
        sign = np.zeros(size)
        sign[perm[reps]] = far_end
        sign[reps] = 1.0
        columns = quad_columns(size)[reps]
        weight = np.where(columns == last, 0.0, sign[columns])
        keep = weight != 0.0
        source = 4 * reps[:, None] + np.arange(4)
        destination = d * np.arange(d)[:, None] + index[columns]
        diagonal = np.flatnonzero(reps != last)
        spots = np.concatenate([(d + 1) * diagonal, d * np.arange(d) + index[last]])
        values = np.concatenate([np.full(len(diagonal), -1.0), np.full(d, sign[last])])
        held = values != 0.0
        entries = source[keep], destination[keep], weight[keep]
        layout.append((d, *entries, spots[held], values[held]))
    return layout


@lru_cache(maxsize=None)
def _player_swap_layout(size: int):
    """:func:`swap_layout` under the player swap ``bar``, which commutes
    with every self-play M and fixes the last state, all-DD."""
    return swap_layout(bar_permutation((size.bit_length() - 1) // 2))


def swap_halves(quads: np.ndarray):
    """The bar-even and then the bar-odd half of B for each self-play chain
    of a (batch, size, 4) stack, as (batch, d, d) stacks of orders size/2 +
    2^(n-1) and size/2 - 2^(n-1), without B (:func:`swap_layout`).

    For each half one bincount sums the quadruple entries of the orbit
    representatives' rows into their places, and B's constant entries are
    added after them, as :func:`chain_system` sets them after the
    quadruples.  The halves are yielded one at a time: at 256 states, in a
    loop of reparametrised ``memn field`` calls, building both before the
    first ``slogdet`` took 75-110 minor page faults a call, and yielding
    them takes none.
    """
    batch, size, _ = quads.shape
    values = quads.reshape(batch, 4 * size)
    for d, source, destination, weight, spots, constants in _player_swap_layout(size):
        flat = destination + d * d * np.arange(batch)[:, None]
        half = np.bincount(flat.ravel(), (values[:, source] * weight).ravel(), batch * d * d)
        half = half.reshape(batch, d * d)
        half[:, spots] += constants
        yield half.reshape(batch, d, d)


def det_magnitude(quads: np.ndarray) -> np.ndarray:
    """|det B| of each self-play chain of a (batch, size, 4) stack, NaN
    where B is singular.

    M commutes with the player swap at mutant = resident (and in general
    only there), so det B is the product of the determinants of its two
    halves (:func:`swap_halves`), built dense without B or M: the whole
    stack goes through one ``np.linalg.slogdet`` per half below
    ``MATRIX_FREE_SIZE`` states, and one member at a time from there up
    (:func:`stack_blocks`).  Like :func:`chain_system`, it refuses a chain
    above ``DENSE_LIMIT`` states before anything is built.
    """
    quads = np.asarray(quads, dtype=float)
    batch, size, _ = quads.shape
    _refuse_dense(size)
    logs, singular = np.zeros(batch), np.zeros(batch, dtype=bool)
    for block in stack_blocks(batch, size):
        for half in swap_halves(quads[block]):
            sign, log = np.linalg.slogdet(half)
            logs[block] += log
            singular[block] |= sign == 0.0
    return np.where(singular, np.nan, np.exp(logs))


def solve_systems(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on one system or a stack of them.

    A singular system's solution comes back all NaN; the other members of
    a stack are still solved.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(np.shape(b), np.nan)
        for k in np.ndindex(a.shape[:-2]):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[k] = np.linalg.solve(a[k], b[k])
        return out


def solved(x: np.ndarray) -> np.ndarray:
    """``x``, one chain's nu, h or field, unless its solve failed and left
    it not finite.  The error names the path that ran at its size: below
    ``MATRIX_FREE_SIZE`` states a singular dense chain system
    (``DegeneracyError``), from there up a chain that neither the loops nor
    GMRES settled, singular to working precision or mixing too slowly
    (``ConvergenceError``).  The dense references, which take no other
    path, name a singular B by the same rule."""
    if np.isfinite(x).all():
        return x
    if len(x) < MATRIX_FREE_SIZE:
        raise DegeneracyError("singular chain system; strategies are degenerate")
    raise ConvergenceError(
        "the chain solve did not converge: the chain system is singular to "
        "working precision or mixes too slowly"
    )


def _dense_solve(quads: np.ndarray, column=None):
    """nu and h (None without a column) of a (batch, size, 4) stack by one
    stacked dense LU, below ``MATRIX_FREE_SIZE`` states.

    B^T nu = e_last and B y = -column with B as :func:`chain_system` builds
    it, as one :func:`solve_systems` call on a (batch, 2, size, size + 1)
    array of each member's augmented (B^T | e_last) and (B | -column),
    filled in place from the flat indices of the quadruples
    (:func:`_pair_layout`); h is y with its last entry zeroed, as in
    :func:`poisson_vector`.  Without a column B^T nu = e_last is solved
    alone.  A singular member's nu and h come back all NaN.
    """
    batch, size, _ = quads.shape
    systems = 1 if column is None else 2
    augmented = np.zeros((batch, systems, size, size + 1))
    # filled in runs of about 1,024 rows, so that the cached layouts do not
    # grow with the batch: about 100 KB a run
    run = max(1, 1024 // size)
    for first in range(0, batch, run):
        members = quads[first : first + run]
        diagonal, entries, ones, offset = _pair_layout(size, len(members), systems)
        flat = augmented[first : first + run].reshape(-1)
        flat[diagonal] = -1.0
        flat[entries] = (members.reshape(len(members), 1, 4 * size) + offset).reshape(-1)
        flat[ones] = 1.0
    if column is not None:
        np.negative(column, out=augmented[:, 1, :, -1])
    solution = solve_systems(augmented[..., :-1], augmented[..., -1:])[..., 0]
    if column is None:
        return solution[:, 0], None
    nu, h = solution[:, 0], solution[:, 1]
    h[:, -1] -= h[:, -1]  # 0, except that a singular member's NaN stays
    return nu, h


class ChainSolve:
    """nu and h of a (batch, size, 4) stack of chains, one row per member.

    ``h`` is None when no column was given.  Per member: the chain rounds
    of :func:`iterate_chain`'s loops as ``iterations`` (the longer of the
    nu and h runs; 0 below ``MATRIX_FREE_SIZE``), whether they
    ``converged``, the matrix-vector ``products`` of the GMRES solve that
    took over where they did not (0 where it did not run), and the
    max-norm ``residual`` of nu M = nu and, with h, of (I - M) h = column -
    (nu . column) 1.  The residual is computed when read: the field never
    reads it.  A converged member's defects are (nu M^2 - nu)/2 and M^2 w/2
    + const, which its stop tests bound (:func:`iterate_chain`), above
    rounding; a GMRES member's are bounded by ``KRYLOV_TOL`` relative
    (:func:`_gmres`).  :meth:`method` names what solved a member.
    """

    def __init__(self, quads, column, nu, h, iterations, converged, products):
        self._chains = quads, column
        self.nu, self.h = nu, h
        self.iterations, self.converged, self.products = iterations, converged, products

    @property
    def residual(self) -> np.ndarray:
        quads, column = self._chains
        return _residual(quads, self.nu, column, self.h)

    def method(self, member: int = 0) -> str:
        """``"dense"``, ``"matrix-free"`` (the loops) or ``"krylov"``."""
        if self.nu.shape[-1] < MATRIX_FREE_SIZE:
            return "dense"
        return "krylov" if self.products[member] else "matrix-free"


def _residual(quads, nu, column, h) -> np.ndarray:
    """Max-norm defects of nu M = nu and of the Poisson equation, per row."""
    residual = np.abs(_left_product(nu, quads) - nu).max(-1)
    if h is not None:
        column = np.broadcast_to(column, h.shape)
        drift = (nu * column).sum(-1, keepdims=True)
        defect = h - _right_product(quads, h) - column + drift
        residual = np.maximum(residual, np.abs(defect).max(-1))
    return residual


def _averaged(nu, quads):
    """(nu + nu M)/|nu + nu M|_1, the damped round that ends a nu solve."""
    nu = nu + _left_product(nu, quads)
    return nu / nu.sum()


def _damped(h, v, quads):
    """(v + h + M h)/2 shifted to end in 0, the damped round that ends an h
    solve, ``v`` the column shifted to end in 0."""
    h = 0.5 * (v + h + _right_product(quads, h))
    return h - h[-1]


def _power_iteration(quads, blocks, max_iter: int):
    """nu of one chain, the chain rounds it took (``max_iter`` if it did not
    settle) and whether it settled, as :func:`iterate_chain` says."""
    nu = np.full(len(quads), 1.0 / len(quads))
    rounds = 0
    while rounds + 2 * STRIDE < max_iter:  # the stride and its damped round fit the budget
        for _ in range(STRIDE - 1):
            nu = _two_round_product(nu, blocks)
        nu /= nu.sum()
        nxt = _two_round_product(nu, blocks)
        nxt /= nxt.sum()
        rounds += 2 * STRIDE
        if np.abs(nxt - nu).sum() <= ITERATION_TOL:
            return _averaged(nu, quads), rounds + 1, True
        nu = nxt
    return nu, max_iter, False


def _poisson_series(quads, blocks, column, max_iter: int):
    """h of one chain, the chain rounds it took (``max_iter`` if it did not
    settle) and whether it settled, as :func:`iterate_chain` says."""
    v = column - column[-1]
    w = v + _right_product(quads, v)
    w -= w[-1]
    h = w.copy()
    rounds = 1
    while rounds + 2 * STRIDE < max_iter:  # the stride and its damped round fit the budget
        for _ in range(STRIDE):
            w = _two_round_right(blocks, w)
            h += w
        w -= w[-1]
        h -= h[-1]
        rounds += 2 * STRIDE
        if np.ptp(w) <= ITERATION_TOL * np.abs(h).max():
            return _damped(h, v, quads), rounds + 1, True
    return h, max_iter, False


def iterate_chain(quads, column=None) -> ChainSolve:
    """Matrix-free nu and h of each chain of a (batch, size, 4) stack,
    memory 2 up, one member at a time, by two plain loops alone.

    Each member runs two plain loops on the blocks of its M^2 from
    :func:`_two_round_blocks`, ``STRIDE`` two-round products per stop test.
    nu is iterated as nu <- nu M^2 / |nu M^2|_1 from the uniform start,
    normalised before the last product of a stride, until that last
    product moves nu by at most ``ITERATION_TOL`` in the 1-norm.  M^2 hides
    a period-2 mode (an eigenvalue near -1), so a periodic chain passes
    that test on a vector that is not stationary; one averaging round ends
    the loop, and nu' = (nu + nu M) / |nu + nu M|_1 is returned.  In exact
    arithmetic nu' M - nu' = (nu M^2 - nu)/2, so |nu' M - nu'|_1 <=
    ``ITERATION_TOL``/2.  Given a ``column`` (one, or one per member), h is
    the paired Poisson series h = sum_j M^(2j) u with u = (I + M) v and v =
    column - column[-1]: the terms w <- M^2 w are summed into h, each
    stride's last term and h shifted by their last entries, until the span
    of w is at most ``ITERATION_TOL`` times |h|_inf.  The drift nu . column
    is constant across states, so it cancels without being known.  (I + M)
    hides the same eigenvalue from the series, so one damped round ends it:
    h' = (v + h + M h)/2, shifted so that h'[-1] = 0, is returned.  Its
    Poisson defect v + M h' - h' is M^2 w/2 + const, so it spans at most
    ``ITERATION_TOL``/2 times |h|_inf, above a rounding floor that measured
    3-6 eps |h|_inf (memory 4-7, random and near-tit-for-tat chains).
    ``iterations`` counts chain rounds, the longer of the two loops: a
    two-round product counts 2, u and the damped round 1 each.  Each loop
    stays within ``ITERATION_BUDGET`` rounds, one constant at every size,
    starting no stride that the budget could not hold with the damped
    round; a member that has not settled keeps its last iterate,
    ``converged`` False and ``iterations`` the budget, for
    :func:`solve_chain` to hand to GMRES.  A member's result does not
    depend on the other members.
    """
    quads = np.asarray(quads, dtype=float)
    batch, size, _ = quads.shape
    nu = np.empty((batch, size))
    iterations = np.empty(batch, dtype=int)
    converged = np.empty(batch, dtype=bool)
    h = columns = None
    if column is not None:
        h = np.empty((batch, size))
        columns = np.broadcast_to(np.asarray(column, dtype=float), (batch, size))
    for k, chain in enumerate(quads):
        blocks = _two_round_blocks(chain)
        nu[k], iterations[k], converged[k] = _power_iteration(chain, blocks, ITERATION_BUDGET)
        if h is not None:
            h[k], rounds, settled = _poisson_series(chain, blocks, columns[k], ITERATION_BUDGET)
            iterations[k] = max(iterations[k], rounds)
            converged[k] &= settled
    return ChainSolve(
        quads, column, nu, h, iterations, converged, np.zeros(batch, dtype=int)
    )


def _gmres(apply, b, own=lambda r: r):
    """x with apply(x) = b by restarted GMRES(``KRYLOV_BASIS``) from x = 0,
    and the matrix-vector products it took; x is all NaN where it failed.

    Each cycle builds an orthonormal Krylov basis by classical Gram-Schmidt
    applied twice (CGS2) and keeps its least-squares problem triangular by
    Givens rotations, whose last entry g is the 2-norm, and so a bound of
    the max norm, of the residual (Saad & Schultz, SIAM J. Sci. Stat.
    Comput. 7, 1986).  A cycle ends once |g| is at most ``KRYLOV_TOL``
    times the max norm of its iterate x, or after ``KRYLOV_BASIS``
    products.  Then the residual r = b - apply(x) is taken, and ``own``
    maps it to the chain's own residual: x is accepted once that is at most
    ``KRYLOV_TOL`` |x|_inf, and otherwise the next cycle starts from x, up
    to ``KRYLOV_CYCLES`` cycles.  A relative test alone accepts a singular
    system's huge x: at exact tit-for-tat self-play GMRES settled on |h|
    about 1e16 with a relative residual of 6e-16.  So an x with |x|_inf >
    |b|_inf / (size eps) fails: |B^-1|_inf is then above 1/(size eps), the
    rank-deficiency threshold of ``np.linalg.matrix_rank``.  Chains at
    eps = 1e-10 from tit-for-tat, the analytic field's margin, have |h|
    about 5e9 and pass at every size up to memory 9.
    """
    size = len(b)
    x, r = np.zeros(size), b
    limit = np.abs(b).max() / (size * np.finfo(float).eps)
    basis = np.empty((KRYLOV_BASIS + 1, size))
    products = 0
    # A zero norm leaves NaN: after an exact breakdown, |g| is 0 and the
    # cycle ends before the NaN vector is read; otherwise the tests below
    # fail on it.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(KRYLOV_CYCLES):
            hess = np.zeros((KRYLOV_BASIS + 1, KRYLOV_BASIS))
            cos, sin = np.zeros(KRYLOV_BASIS), np.zeros(KRYLOV_BASIS)
            g = np.zeros(KRYLOV_BASIS + 1)
            g[0] = np.linalg.norm(r)
            if not g[0]:  # x = 0 solves b = 0 exactly
                return x, products
            basis[0] = r / g[0]
            for j in range(KRYLOV_BASIS):
                w = apply(basis[j])
                for _ in range(2):
                    c = basis[: j + 1] @ w
                    w -= c @ basis[: j + 1]
                    hess[: j + 1, j] += c
                col = hess[: j + 2, j]
                col[j + 1] = np.linalg.norm(w)
                basis[j + 1] = w / col[j + 1]
                for i in range(j):
                    col[i : i + 2] = (
                        cos[i] * col[i] + sin[i] * col[i + 1],
                        cos[i] * col[i + 1] - sin[i] * col[i],
                    )
                d = np.hypot(col[j], col[j + 1])
                cos[j], sin[j] = col[j] / d, col[j + 1] / d
                col[j : j + 2] = d, 0.0
                g[j : j + 2] = cos[j] * g[j], -sin[j] * g[j]
                y = solve_systems(hess[: j + 1, : j + 1], g[: j + 1])
                step = x + y @ basis[: j + 1]
                if abs(g[j + 1]) <= KRYLOV_TOL * np.abs(step).max():
                    break
            x = step
            r = b - apply(x)
            products += j + 2
            scale = np.abs(x).max()
            if not scale <= limit:  # singular to working precision, or NaN
                break
            if np.abs(own(r)).max() <= KRYLOV_TOL * scale:
                return x, products
    return np.full(size, np.nan), products


def _krylov(quads, column=None):
    """nu, h (None without a column) and the products of one chain by
    :func:`_gmres` on the systems that the dense solve factors, with B
    applied from the quadruples: B^T nu = e_last, B^T x being x M - x with
    its last entry replaced by x . 1, and B y = -column, B y being M y - y
    + (1 - M e_last + e_last) y_last, since B's last column is 1.

    The residual of B y = -column is the Poisson defect of h, y with its
    last entry zeroed, at the drift -y_last.  That of B^T nu = e_last holds
    the chain's own defect nu M - nu with flipped signs, except at the last
    state, where it holds 1 - nu . 1; the defect there is minus the sum of
    the others, so the stop test reads the sum of the residual's other
    entries in its place.  Each solve ends with the loops' damped round.
    """
    size = len(quads)
    e_last = np.zeros(size)
    e_last[-1] = 1.0

    def left(x):
        out = _left_product(x, quads) - x
        out[-1] = x.sum()
        return out

    nu, products = _gmres(left, e_last, lambda r: np.append(r[:-1], r[:-1].sum()))
    nu = _averaged(nu, quads)
    if column is None:
        return nu, None, products + 1
    lift = 1.0 - _right_product(quads, e_last) + e_last
    y, more = _gmres(lambda y: _right_product(quads, y) - y + lift * y[-1], -column)
    y[-1] = 0.0
    return nu, _damped(y, column - column[-1], quads), products + more + 2


def solve_chain(quads, column=None) -> ChainSolve:
    """nu and, given a column, h of each chain of a (batch, size, 4) stack.

    The only solve of production code; it alone decides how each member is
    solved (:meth:`ChainSolve.method`).  Below ``MATRIX_FREE_SIZE`` states
    the whole stack is one stacked dense solve, and a singular member comes
    back NaN.  From there up each member is iterated (:func:`iterate_chain`);
    a member that does not converge within ``ITERATION_BUDGET`` rounds is
    solved by GMRES (:func:`_krylov`), alone, nu and h both, and comes back
    NaN where GMRES does not converge either (see :func:`solved`).  No
    dense matrix is built from ``MATRIX_FREE_SIZE`` states up.
    """
    quads = np.asarray(quads, dtype=float)
    batch, size, _ = quads.shape
    if size < MATRIX_FREE_SIZE:
        zeros = np.zeros(batch, dtype=int)
        return ChainSolve(
            quads, column, *_dense_solve(quads, column), zeros, zeros.astype(bool), zeros
        )
    solve = iterate_chain(quads, column)
    columns = None if column is None else np.broadcast_to(column, (batch, size))
    for k in np.flatnonzero(~solve.converged):
        nu, h, solve.products[k] = _krylov(quads[k], None if columns is None else columns[k])
        solve.nu[k] = nu
        if h is not None:
            solve.h[k] = h
    return solve


def stationary_distribution(quads: np.ndarray) -> np.ndarray:
    """Left unit eigenvector of one chain's M, normalized to sum 1, by the
    dense solve of B^T nu = e_last with B from :func:`chain_system`, apart
    from :func:`solve_chain`, which tests compare against it.  A singular B
    raises as :func:`solved` says.
    """
    e_last = np.zeros(len(quads))
    e_last[-1] = 1.0
    return solved(solve_systems(chain_system(quads).T, e_last))


def _require_game(p: StrategyVector, q: StrategyVector, f: np.ndarray):
    if p.n != q.n or len(f) != n_states(p.n):
        raise ValueError("memory orders of p, q, f must agree")
    dist = min(p.boundary_distance(), q.boundary_distance())
    if dist < INTERIOR_THRESHOLD:
        raise DegeneracyError(
            f"strategies within {dist:.2e} of the cube boundary; "
            "interiorize (clamp) them"
        )


def _det_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """det(numerator)/det(denominator) of one system or a stack via sign and
    log-magnitude: 0 for a singular numerator, DegeneracyError for any
    singular denominator."""
    sign_n, log_n = np.linalg.slogdet(numerator)
    sign_d, log_d = np.linalg.slogdet(denominator)
    if np.any(sign_d == 0.0):
        raise DegeneracyError("denominator determinant vanished")
    return np.where(sign_n == 0.0, 0.0, sign_n * sign_d * np.exp(log_n - log_d))


def poisson_vector(quads: np.ndarray, column: np.ndarray) -> np.ndarray:
    """h of one chain with (I - M) h = column - (nu . column) * 1 and h[-1]
    = 0, the dense reference.

    It is the solution y of B y = -column, B from :func:`chain_system`, with
    its last entry zeroed: that entry multiplies the all-ones column of B and
    equals -(nu . column).
    """
    h = solved(solve_systems(chain_system(quads), -column))
    h[-1] = 0.0
    return h


def mutant_systems(mutants: np.ndarray, q: StrategyVector) -> np.ndarray:
    """B of each row of an (..., size) array of mutant probabilities against
    ``q``, stacked: the denominators of the determinant quotient, built as
    :func:`build_transition_matrix` builds one chain (oracle)."""
    return chain_system(quadruples(mutants, q.probs.take(bar_permutation(q.n))))


def payoff_from_column(
    p: StrategyVector, q: StrategyVector, column: np.ndarray
) -> float:
    """Determinant-quotient payoff with an arbitrary final column (oracle)."""
    denominator = chain_system(build_transition_matrix(p, q))
    numerator = denominator.copy()
    numerator[:, -1] = column
    return float(_det_ratio(numerator, denominator))


def payoff(
    p: StrategyVector,
    q: StrategyVector,
    f: np.ndarray,
    method: str = "stationary",
) -> float:
    """Long-run average payoff of the focal player.

    ``stationary`` is the inner product of the invariant distribution from
    :func:`payoff_solve` with the payoff vector; ``determinant`` computes
    the quotient of two determinants obtained by replacing the last column
    of (M - I) with the payoff vector and with the all-ones vector, and is
    kept as the oracle.  Both refuse strategies within
    ``INTERIOR_THRESHOLD`` of the cube boundary (``DegeneracyError``).
    """
    if method == "determinant":
        _require_game(p, q, f)
        return payoff_from_column(p, q, f)
    if method == "stationary":
        return payoff_solve(p, q, f)[0][0]
    raise ValueError(f"unknown method {method!r}")


def payoff_solve(
    p: StrategyVector, q: StrategyVector, f: np.ndarray
) -> tuple[tuple[float, float, float], ChainSolve]:
    """(A, A_s, A_a) from one stationary solve, and that solve.

    A solve that failed raises as :func:`solved` says.
    """
    _require_game(p, q, f)
    solve = solve_chain(build_transition_matrix(p, q)[None])
    nu = solved(solve.nu[0])
    sym, anti = payoff_parts(f)
    return (float(nu @ f), float(nu @ sym), float(nu @ anti)), solve


def decompose_payoff(
    p: StrategyVector, q: StrategyVector, f: np.ndarray
) -> tuple[float, float]:
    """Split the payoff into player-symmetric and anti-symmetric parts.

    Returns (A_s, A_a) where A_s(p,q) = A_s(q,p), A_a(p,q) = -A_a(q,p) and
    A_s + A_a equals the payoff; the parts are the stationary averages of
    the columns of :func:`core.payoff_parts`.
    """
    return payoff_solve(p, q, f)[0][1:]


def reactive_payoff(
    p1: float, p2: float, q1: float, q2: float, b: float, c: float
) -> float:
    """Closed-form donation-game payoff when both players are reactive.

    ``p1``/``q1`` are cooperation probabilities after the co-player
    cooperated, ``p2``/``q2`` after a defection.
    """
    for name, value in (("p1", p1), ("p2", p2), ("q1", q1), ("q2", q2)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name}={value} outside [0, 1]")
    denominator = 1.0 - (p1 - p2) * (q1 - q2)
    if abs(denominator) < 1e-14:
        raise DegeneracyError("reactive payoff undefined: (p1-p2)(q1-q2) = 1")
    numerator = b * ((q1 - q2) * p2 + q2) - c * (p2 + (p1 - p2) * q2)
    return numerator / denominator
