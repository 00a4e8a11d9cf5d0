"""Slow, obviously correct twins of ``ofrp``'s boundary recursion.

``ofrp`` builds no transition matrix.  These oracles do:

- ``build_chain`` assembles one user's chain explicitly from the arcs of
  ``model.transition_table``, and ``assemble`` a stack of them;
- ``solve_stationary`` solves pi = pi P for a row-stochastic P: one balance
  equation is replaced by the normalization constraint and the dense system
  goes to LAPACK, for chains of up to ``DIRECT_SOLVE_MAX_STATES`` states.
  Chains with no unique stationary distribution, those with more than one
  recurrent class, are rejected up front: an iterative Tarjan scan (Tarjan
  1972, "Depth-first search and linear graph algorithms", SIAM J. Comput.
  1(2)) finds the strongly connected components of the p > 0 graph in time
  linear in its edges, and the recurrent classes are the components that no
  edge leaves;
- ``exact_metrics`` solves the same chain in rational arithmetic on the
  double inputs (``fractions.Fraction``) and ``exact_cost`` prices it, to
  settle ties and limit boundaries that rounding decides in floating point.
  They are meant for caps 2-6 (at most 16 states);
- ``grid_points`` builds the whole search grid at once and ``select``
  prices and masks a whole table at once, the twins of ``ofrp``'s
  blockwise ``_grid_block`` and ``_select``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from aoisched import ofrp
from aoisched.model import EVENTS, event_code, transition_table

# Largest chain the dense solve takes: P and the one copy its system is built
# in hold 50 MB each.
DIRECT_SOLVE_MAX_STATES = 2500


def validate_stochastic(matrix: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Return the matrix as a float array, or raise if it is not row-stochastic."""
    p = np.asarray(matrix, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {p.shape}")
    if p.size == 0:
        raise ValueError("transition matrix must be non-empty")
    if not np.all(np.isfinite(p)):
        raise ValueError("transition matrix has non-finite (NaN or inf) entries")
    if np.any(p < -1e-12):
        raise ValueError("transition matrix has negative entries")
    bad = np.max(np.abs(p.sum(axis=1) - 1.0))
    if bad > tol:
        raise ValueError(f"rows must sum to 1 (max deviation {bad:.3e})")
    return p


def recurrent_class_count(matrix: np.ndarray) -> int:
    """Number of recurrent communicating classes of the chain: the strongly
    connected components of the p > 0 graph that no edge leaves."""
    p = np.asarray(matrix)
    n = p.shape[0]
    rows, cols = np.nonzero(p > 0.0)
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    targets = cols.tolist()
    succ = [targets[a:b] for a, b in zip(bounds, bounds[1:])]

    # Iterative Tarjan.  index[v] is v's discovery number and low[v] the
    # smallest discovery number v's DFS subtree reaches by one edge into the
    # stack; a discovered node is on the stack until its component is labelled.
    index = [-1] * n
    low = [0] * n
    labels = [-1] * n
    stack = []
    found = 0
    n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = found
        found += 1
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = found
                    found += 1
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if labels[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        labels[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1

    # A class is recurrent iff no edge leaves it.
    labels = np.array(labels)
    leaves = np.zeros(n_comp, dtype=bool)
    cross = labels[rows] != labels[cols]
    leaves[labels[rows[cross]]] = True
    return int(n_comp - np.count_nonzero(leaves))


def finalize(pi: np.ndarray) -> np.ndarray:
    """Clamp solver noise below zero and renormalize each distribution
    along the last axis."""
    pi = np.where(pi < 0.0, 0.0, pi)
    return pi / pi.sum(axis=-1, keepdims=True)


def direct_stationary(matrix: np.ndarray) -> np.ndarray:
    """Solve the balance equations with the last one replaced by normalization,
    for one (n, n) chain or each chain of a stack (..., n, n).  P^T - I is
    the transposed view of one copy of P with 1 taken off its diagonal."""
    p = np.array(matrix, dtype=float)
    diagonal = np.arange(p.shape[-1])
    p[..., diagonal, diagonal] -= 1.0
    a = np.swapaxes(p, -1, -2)
    a[..., -1, :] = 1.0
    b = np.zeros(p.shape[:-1] + (1,))
    b[..., -1, 0] = 1.0
    return np.linalg.solve(a, b)[..., 0]


def solve_stationary(matrix: np.ndarray,
                     tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """Unique stationary distribution of a row-stochastic matrix and its
    residual max |pi P - pi|.

    Raises ValueError for non-stochastic input, for chains with no unique
    stationary distribution (zero or multiple recurrent classes) and for
    chains above ``DIRECT_SOLVE_MAX_STATES`` states, and RuntimeError if the
    residual is not below ``tol``.
    """
    p = validate_stochastic(matrix)
    n = p.shape[0]
    if n > DIRECT_SOLVE_MAX_STATES:
        raise ValueError(f"chain has {n} states, above the dense solve's "
                         f"limit of {DIRECT_SOLVE_MAX_STATES}")
    classes = recurrent_class_count(p)
    if classes != 1:
        raise ValueError(
            f"chain is reducible: {classes} recurrent classes, so no unique "
            "stationary distribution exists")
    pi = finalize(direct_stationary(p))
    residual = float(np.max(np.abs(pi @ p - pi)))
    if not residual < tol:
        raise RuntimeError(f"residual {residual:.3e} is not below {tol:g}")
    return pi, residual


# ──────────────────────────────────────────────────────────────────────────
#  the explicit chain
# ──────────────────────────────────────────────────────────────────────────

# The chain's seven events as table events (``event_code`` of the action if
# empty, the action if cached, hit), in ``ofrp._coefficients`` order: from an
# empty cache 0 sample delivered, 1 sample lost, 2 idle; from a cached one
# 3 sample delivered, 4 sample lost, 5 resend delivered, 6 idle, where a
# failed resend lands too.
CHAIN_EVENTS = tuple(event_code(*e) for e in (
    (1, 0, 1), (1, 0, 0), (0, 0, 0), (0, 1, 1), (0, 1, 0), (0, 2, 1), (0, 0, 0)))


@lru_cache(maxsize=16)
def layout(cap: int):
    """States, metric vectors and per-event (row, col) arcs for one cap:
    event g leads each empty (g < 3) or cached state to its table successor
    at ``CHAIN_EVENTS[g]``.  ``assemble`` adds the events in this order."""
    table = transition_table(cap)
    successor = table.next_state.reshape(-1, EVENTS)
    empty = table.kind[0, ::EVENTS]
    sources = (np.flatnonzero(empty),) * 3 + (np.flatnonzero(~empty),) * 4
    events = tuple((rows, successor[rows, code])
                   for rows, code in zip(sources, CHAIN_EVENTS))
    return table.states, table.age.astype(float), empty.astype(float), events


def assemble(coeff: tuple, cap: int) -> np.ndarray:
    """Transition matrices (m, s, s) from ``ofrp._coefficients`` output,
    whose entries are scalars (m = 1) or (m,) arrays."""
    states, _, _, events = layout(cap)
    weights = np.column_stack(coeff)
    mats = np.zeros((len(weights), len(states), len(states)))
    for g, (rows, cols) in enumerate(events):
        # Each event has one arc per source, so fancy-index addition is safe;
        # overlaps *between* events accumulate across passes.
        mats[:, rows, cols] += weights[:, g:g + 1]
    return mats


def build_chain(user: ofrp.OfrpUserParams, success_prob: float,
                cap: int) -> np.ndarray:
    """Transition matrix of one user's (cache, waiting time, age) chain, over
    the states of ``transition_table(cap)`` in their order."""
    coeff = ofrp._coefficients(user.alpha, user.sample_occupied,
                               user.retransmit_old, user.sample_empty,
                               success_prob)
    if cap < 2:
        raise ValueError("cap must be at least 2")
    return assemble(coeff, cap)[0]


# ──────────────────────────────────────────────────────────────────────────
#  the exact chain
# ──────────────────────────────────────────────────────────────────────────

def exact_stationary(coeff: tuple, cap: int) -> list[Fraction]:
    """Stationary vector of one chain whose seven event probabilities
    ``coeff`` are Fractions: Gauss-Jordan elimination on the balance
    equations, the last replaced by normalization."""
    states, _, _, events = layout(cap)
    n = len(states)
    # row i: sum_j pi_j P[j, i] - pi_i = 0, then the right-hand side
    system = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for weight, (rows, cols) in zip(coeff, events):
        for j, i in zip(rows.tolist(), cols.tolist()):
            system[i][j] += weight
    for i in range(n):
        system[i][i] -= 1
    system[-1] = [Fraction(1)] * (n + 1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if system[r][col]), None)
        if pivot is None:
            raise ValueError("chain has no unique stationary distribution")
        system[col], system[pivot] = system[pivot], system[col]
        lead = system[col][col]
        system[col] = [v / lead for v in system[col]]
        for r in range(n):
            factor = system[r][col]
            if r != col and factor:
                system[r] = [v - factor * w
                             for v, w in zip(system[r], system[col])]
    return [row[n] for row in system]


@lru_cache(maxsize=4096)
def exact_metrics(alpha: float, u: float, q: float, ue: float, p: float,
                  cap: int) -> tuple[Fraction, Fraction]:
    """Exact (avg_aoi, empty_fraction) of one chain, in rational arithmetic
    on the double inputs."""
    alpha, u, q, ue, p = map(Fraction, (alpha, u, q, ue, p))
    pi = exact_stationary((alpha * ue * p, alpha * ue * (1 - p), 1 - alpha * ue,
                           alpha * u * p, alpha * u * (1 - p), alpha * q * p,
                           1 - alpha * u - alpha * q * p), cap)
    _, ages, empty, _ = layout(cap)
    return (sum(w * int(a) for w, a in zip(pi, ages)),
            sum(w for w, e in zip(pi, empty) if e))


def exact_cost(alpha: float, u: float, q: float, ue: float, theta: Fraction,
               sample_cost: float, transmit_cost: float) -> Fraction:
    """``ofrp._cost_rate`` in rational arithmetic on the double inputs, for
    an exact empty fraction ``theta``."""
    alpha, u, q, ue, sample_cost, transmit_cost = map(
        Fraction, (alpha, u, q, ue, sample_cost, transmit_cost))
    price = sample_cost + transmit_cost
    return (theta * alpha * ue * price
            + (1 - theta) * alpha * (q * transmit_cost + u * price))


# ──────────────────────────────────────────────────────────────────────────
#  the whole grid
# ──────────────────────────────────────────────────────────────────────────

def grid_points(step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sample_occupied, retransmit_old, sample_empty) over the grid, in scan
    order: sample_occupied major, then retransmit_old (with u + q <= 1),
    then sample_empty > 0."""
    n = ofrp.search_intervals(step)
    rows = np.arange(n + 1, 0, -1)          # retransmit_old values per u
    iu = np.repeat(np.arange(n + 1), rows)
    iq = np.arange(len(iu)) - np.repeat(np.cumsum(rows) - rows, rows)
    return (np.repeat(iu / n, n), np.repeat(iq / n, n),
            np.tile(np.arange(1, n + 1) / n, len(iu)))


def select(table: tuple[np.ndarray, np.ndarray], points: tuple, alpha: float,
           limit: float, sample_cost: float, transmit_cost: float) -> int | None:
    """Index of the first least-cost grid point meeting the limit, in scan
    order, or None if none does: a masked argmin over the whole table."""
    avg_aoi, theta = table
    cost = np.where(avg_aoi <= limit,
                    ofrp._cost_rate(alpha, *points, theta, sample_cost,
                                    transmit_cost), np.inf)
    at = int(np.argmin(cost))
    return at if cost[at] < np.inf else None
