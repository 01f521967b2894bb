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
chain rounds.  A member that does not converge within its budget (a slowly
mixing chain near the boundary) is solved dense alone up to
``DENSE_FALLBACK_SIZE`` states and comes back NaN above, where B would take
gigabytes; :func:`solved` names the error.  :func:`dense_matrix`, the one
dense scatter and the base of :func:`chain_system`, refuses a chain above
that size.  The determinant quotient, the dense references
:func:`stationary_distribution` and :func:`poisson_vector`, and the block
recursion are kept as oracles.
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
DENSE_FALLBACK_SIZE = 4096
ITERATION_TOL = 4 * np.finfo(float).eps
# Two-round products per stop test.  nu + h of one chain, median over five
# interior chains in two in-process runs on a 2-core host, took 0.90-1.02,
# 0.85-0.86 and 0.91-0.97 ms at a stride of 4, 8 and 16 at memory 4,
# 1.95-2.05, 1.82-1.97 and 1.92-1.94 ms at memory 5, and 4.9-5.1, 4.4-4.8
# and 4.9-5.4 ms at memory 6: a stop test costs about as much as a product,
# and a longer stride overshoots by up to 2 STRIDE rounds.
STRIDE = 8
# At 256 states a round of nu and h costs about 5.7 us and the dense pair
# 2.5 ms, so 350 rounds cost about one dense solve, and a member that
# exhausts them costs about twice that (4.7 ms).  Random interior chains
# settle in 82-98 rounds (quartiles of 200 drawn from uniform(0.05, 0.95),
# donation column); the slowest took 242.
SMALL_CHAIN_BUDGET = 350


@lru_cache(maxsize=None)
def quad_columns(size: int) -> np.ndarray:
    """(size, 4) read-only array of the columns of each row's quadruple."""
    cols = 4 * (np.arange(size) % (size // 4))[:, None] + np.arange(4)
    cols.flags.writeable = False
    return cols


def quadruples(p: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """(..., size, 4) row quadruples of focal probabilities ``p`` against the
    co-player's probabilities ``qb`` read at the mirrored histories."""
    out = np.empty(np.shape(p) + (4,))
    not_p, not_qb = 1 - p, 1 - qb
    np.multiply(p, qb, out=out[..., 0])
    np.multiply(p, not_qb, out=out[..., 1])
    np.multiply(not_p, qb, out=out[..., 2])
    np.multiply(not_p, not_qb, out=out[..., 3])
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
    return quadruples(p.probs, q.probs[bar_permutation(p.n)])


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
        return dense_matrix(build_transition_matrix(p, q))
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

    Above ``DENSE_FALLBACK_SIZE`` states, where one M takes gigabytes, it is
    refused (``ValueError``) before anything is allocated.
    """
    quads = np.asarray(quads)
    *lead, size, _ = quads.shape
    if size > DENSE_FALLBACK_SIZE:
        raise ValueError(
            f"B = M - I is dense; refused above {DENSE_FALLBACK_SIZE} states"
        )
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
    ``DENSE_FALLBACK_SIZE`` states.
    """
    out = dense_matrix(quads)
    size = out.shape[-1]
    out.reshape(-1, size * size)[:, :: size + 1] -= 1.0  # the diagonal
    out[..., -1] = 1.0
    return out


def det_magnitude(quads: np.ndarray) -> np.ndarray:
    """|det B| of each chain of a (batch, size, 4) stack, NaN where B is
    singular.

    There is no matrix-free determinant: B is built dense, one member at a
    time, so :func:`chain_system` refuses it above ``DENSE_FALLBACK_SIZE``
    states.
    """
    quads = np.asarray(quads, dtype=float)
    signs, logs = np.array([np.linalg.slogdet(chain_system(q)) for q in quads]).T
    return np.where(signs == 0.0, np.nan, np.exp(logs))


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
    it not finite: above ``DENSE_FALLBACK_SIZE`` states a matrix-free solve
    that did not converge (``ConvergenceError``), up to it a singular chain
    system (``DegeneracyError``)."""
    if np.all(np.isfinite(x)):
        return x
    if len(x) > DENSE_FALLBACK_SIZE:
        raise ConvergenceError(
            "the matrix-free solve did not converge; "
            f"no dense fallback above {DENSE_FALLBACK_SIZE} states"
        )
    raise DegeneracyError("singular chain system; strategies are degenerate")


def _dense_solve(quads: np.ndarray, column=None):
    """nu and h (None without a column) of a (batch, size, 4) stack by one
    stacked dense LU.

    B^T nu = e_last and B y = -column with B from :func:`chain_system`, as
    one :func:`solve_systems` call on a (2 batch, size, size) array holding
    B^T and B; h is y with its last entry zeroed, as in
    :func:`poisson_vector`.  Without a column B^T nu = e_last is solved
    alone.  A singular member's nu and h come back all NaN.  The pair is
    allocated before B: with B allocated first, malloc could return the
    large blocks to the system after each call and fault them in again on
    the next.  That costs page faults only for the one-member fallbacks of
    :func:`solve_chain` from ``MATRIX_FREE_SIZE`` states up; the stacked
    solves below it hold B in at most 32 KB a member.
    """
    batch, size, _ = quads.shape
    if column is None:
        rhs = np.zeros((batch, size, 1))
        rhs[:, -1] = 1.0
        return solve_systems(chain_system(quads).swapaxes(1, 2), rhs)[..., 0], None
    pair = np.empty((2 * batch, size, size))
    pair[batch:] = chain_system(quads)
    pair[:batch] = pair[batch:].swapaxes(1, 2)
    rhs = np.zeros((2 * batch, size, 1))
    rhs[:batch, -1] = 1.0
    rhs[batch:, :, 0] = -np.asarray(column, dtype=float)
    solution = solve_systems(pair, rhs)[..., 0]
    nu, h = solution[:batch], solution[batch:]
    h[:, -1] -= h[:, -1]  # 0, except that a singular member's NaN stays
    return nu, h


class ChainSolve:
    """nu and h of a (batch, size, 4) stack of chains, one row per member.

    ``h`` is None when no column was given.  Per member: the chain rounds
    of the matrix-free solve as ``iterations`` (the longer of the nu and h
    runs; 0 below ``MATRIX_FREE_SIZE``), whether it ``converged``, whether
    the member was solved ``dense`` instead, and the max-norm ``residual``
    of nu M = nu and, with h, of (I - M) h = column - (nu . column) 1.  The
    residual is computed when read: the field never reads it.  A converged
    matrix-free member's defects are (nu M^2 - nu)/2 and M^2 w/2 + const,
    which its stop tests bound (:func:`iterate_chain`), above rounding.
    """

    def __init__(self, quads, column, nu, h, iterations, converged, dense):
        self._chains = quads, column
        self.nu, self.h = nu, h
        self.iterations, self.converged, self.dense = iterations, converged, dense

    @property
    def residual(self) -> np.ndarray:
        quads, column = self._chains
        return _residual(quads, self.nu, column, self.h)

    def method(self, member: int = 0) -> str:
        return "dense" if self.dense[member] else "matrix-free"


def iteration_budget(size: int) -> int:
    """Chain rounds a chain of ``size`` states gets before it counts as not
    converged: 1,000 per 1,024 states from memory 5 up, about what the
    dense solve it replaces costs (and far less than it from 4,096 states
    up), and ``SMALL_CHAIN_BUDGET`` below.  A two-round product spends 2 of
    them, so a stride spends 2 ``STRIDE``, and the damped round that ends a
    loop, with residual (nu M^2 - nu)/2 or M^2 w/2 + const, 1 more."""
    return max(SMALL_CHAIN_BUDGET, 1000 * (size // 1024))


def _residual(quads, nu, column, h) -> np.ndarray:
    """Max-norm defects of nu M = nu and of the Poisson equation, per row."""
    residual = np.abs(_left_product(nu, quads) - nu).max(-1)
    if h is not None:
        column = np.broadcast_to(column, h.shape)
        drift = (nu * column).sum(-1, keepdims=True)
        defect = h - _right_product(quads, h) - column + drift
        residual = np.maximum(residual, np.abs(defect).max(-1))
    return residual


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
            nu += _left_product(nu, quads)
            return nu / nu.sum(), rounds + 1, True
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
            h = 0.5 * (v + h + _right_product(quads, h))
            return h - h[-1], rounds + 1, True
    return h, max_iter, False


def iterate_chain(quads, column=None) -> ChainSolve:
    """Matrix-free nu and h of each chain of a (batch, size, 4) stack,
    memory 2 up, one member at a time.

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
    stays within :func:`iteration_budget` rounds, starting no stride that
    the budget could not hold with the damped round; a member that has not
    settled keeps its last iterate, ``converged`` False and ``iterations``
    the budget.  A member's result does not depend on the other members,
    and no member is solved dense.
    """
    quads = np.asarray(quads, dtype=float)
    batch, size, _ = quads.shape
    max_iter = iteration_budget(size)
    nu = np.empty((batch, size))
    iterations = np.empty(batch, dtype=int)
    converged = np.empty(batch, dtype=bool)
    h = columns = None
    if column is not None:
        h = np.empty((batch, size))
        columns = np.broadcast_to(np.asarray(column, dtype=float), (batch, size))
    for k, chain in enumerate(quads):
        blocks = _two_round_blocks(chain)
        nu[k], iterations[k], converged[k] = _power_iteration(chain, blocks, max_iter)
        if h is not None:
            h[k], rounds, settled = _poisson_series(chain, blocks, columns[k], max_iter)
            iterations[k] = max(iterations[k], rounds)
            converged[k] &= settled
    return ChainSolve(
        quads, column, nu, h, iterations, converged, np.zeros(batch, dtype=bool)
    )


def solve_chain(quads, column=None) -> ChainSolve:
    """nu and, given a column, h of each chain of a (batch, size, 4) stack.

    The only solve of production code; it alone decides dense against
    matrix-free.  Below ``MATRIX_FREE_SIZE`` states the whole stack is one
    stacked dense solve.  From there up each member is iterated
    (:func:`iterate_chain`); a member that does not converge within its
    budget is solved dense, alone, so that at most one B is held, up to
    ``DENSE_FALLBACK_SIZE`` states, and comes back NaN above.  A singular
    member of a dense solve comes back NaN as well (see :func:`solved`).
    """
    quads = np.asarray(quads, dtype=float)
    batch, size, _ = quads.shape
    if size < MATRIX_FREE_SIZE:
        converged = np.zeros(batch, dtype=bool)
        return ChainSolve(
            quads, column, *_dense_solve(quads, column),
            np.zeros(batch, dtype=int), converged, ~converged,
        )
    solve = iterate_chain(quads, column)
    failed = np.flatnonzero(~solve.converged)
    if size > DENSE_FALLBACK_SIZE:
        solve.nu[failed] = np.nan
        if solve.h is not None:
            solve.h[failed] = np.nan
        return solve
    columns = None if column is None else np.broadcast_to(column, (batch, size))
    for k in failed:
        member = slice(k, k + 1)
        nu, h = _dense_solve(quads[member], None if columns is None else columns[member])
        solve.nu[member] = nu
        if h is not None:
            solve.h[member] = h
    solve.dense[failed] = True
    return solve


def stationary_distribution(quads: np.ndarray) -> np.ndarray:
    """Left unit eigenvector of one chain's M, normalized to sum 1, by the
    dense solve of B^T nu = e_last with B from :func:`chain_system`: the
    reference that tests compare :func:`solve_chain` against.  A singular B
    raises as :func:`solved` says.
    """
    nu, _ = _dense_solve(quads[None])
    return solved(nu[0])


def _require_game(p: StrategyVector, q: StrategyVector, f: np.ndarray):
    if p.n != q.n or len(f) != n_states(p.n):
        raise ValueError("memory orders of p, q, f must agree")
    dist = min(p.boundary_distance(), q.boundary_distance())
    if dist < INTERIOR_THRESHOLD:
        raise DegeneracyError(
            f"strategies within {dist:.2e} of the cube boundary; "
            "interiorize (clamp) them"
        )


def _det_ratio(numerator: np.ndarray, denominator: np.ndarray) -> float:
    """det(numerator)/det(denominator) via sign and log-magnitude."""
    sign_n, log_n = np.linalg.slogdet(numerator)
    sign_d, log_d = np.linalg.slogdet(denominator)
    if sign_d == 0.0:
        raise DegeneracyError("denominator determinant vanished")
    if sign_n == 0.0:
        return 0.0
    return float(sign_n * sign_d * np.exp(log_n - log_d))


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


def payoff_from_column(
    p: StrategyVector, q: StrategyVector, column: np.ndarray
) -> float:
    """Determinant-quotient payoff with an arbitrary final column (oracle)."""
    denominator = chain_system(build_transition_matrix(p, q))
    numerator = denominator.copy()
    numerator[:, -1] = column
    return _det_ratio(numerator, denominator)


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
