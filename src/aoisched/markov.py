"""Stationary distributions of finite discrete-time Markov chains.

Solves pi = pi P for row-stochastic P.  The default path replaces one balance
equation with the normalization constraint and hands the dense system to
LAPACK; a damped power iteration serves as fallback (and as the primary
method for very large chains).  Chains with no unique stationary
distribution, those with more than one recurrent class, are rejected up
front: an iterative Tarjan scan (Tarjan 1972, "Depth-first search and linear
graph algorithms", SIAM J. Comput. 1(2)) finds the strongly connected
components of the p > 0 graph in time linear in its edges, and the recurrent
classes are the components that no edge leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Above this state count the dense direct solve is skipped in favor of the
# power iteration (cubic solve cost stops being worth it).
DIRECT_SOLVE_MAX_STATES = 2500


@dataclass(frozen=True)
class SolveReport:
    """How a stationary distribution was obtained."""

    method: str          # "direct" or "power"
    residual: float      # max |pi P - pi|
    iterations: int      # 0 for the direct solve


@dataclass(frozen=True, eq=False)
class ChainModel:
    """A finite chain: state labels and a row-stochastic matrix."""

    states: tuple
    matrix: np.ndarray


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
    rowsum = p.sum(axis=1)
    bad = np.max(np.abs(rowsum - 1.0))
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
    for one (n, n) chain or each chain of a stack (..., n, n)."""
    p = np.asarray(matrix, dtype=float)
    n = p.shape[-1]
    a = np.swapaxes(p, -1, -2) - np.eye(n)
    a[..., -1, :] = 1.0
    b = np.zeros(p.shape[:-1] + (1,))
    b[..., -1, 0] = 1.0
    return np.linalg.solve(a, b)[..., 0]


def power_stationary(matrix: np.ndarray, tol: float = 1e-12,
                     max_iterations: int = 10 ** 6) -> tuple[np.ndarray, int]:
    """Damped power iteration; the (P+I)/2 damping defeats periodicity."""
    p = np.asarray(matrix, dtype=float)
    n = p.shape[0]
    half = 0.5 * (p + np.eye(n))
    pi = np.full(n, 1.0 / n)
    for it in range(1, max_iterations + 1):
        nxt = pi @ half
        delta = np.max(np.abs(nxt - pi))
        pi = nxt
        if delta < 0.5 * tol:
            return pi / pi.sum(), it
    raise RuntimeError(
        f"power iteration did not reach tolerance {tol} in {max_iterations} steps")


def solve_stationary(matrix: np.ndarray, tol: float = 1e-12,
                     max_iterations: int = 10 ** 6) -> tuple[np.ndarray, SolveReport]:
    """Unique stationary distribution of a row-stochastic matrix.

    Raises ValueError for non-stochastic input or for chains with no unique
    stationary distribution (zero or multiple recurrent classes), and
    RuntimeError if the fallback iteration fails to converge.
    """
    p = validate_stochastic(matrix)
    classes = recurrent_class_count(p)
    if classes != 1:
        raise ValueError(
            f"chain is reducible: {classes} recurrent classes, so no unique "
            "stationary distribution exists")
    n = p.shape[0]
    if n == 1:
        return np.ones(1), SolveReport("direct", 0.0, 0)
    if n <= DIRECT_SOLVE_MAX_STATES:
        try:
            pi = finalize(direct_stationary(p))
            residual = float(np.max(np.abs(pi @ p - pi)))
            if residual < tol:
                return pi, SolveReport("direct", residual, 0)
        except np.linalg.LinAlgError:
            pass
    pi, iterations = power_stationary(p, tol, max_iterations)
    pi = finalize(pi)
    residual = float(np.max(np.abs(pi @ p - pi)))
    return pi, SolveReport("power", residual, iterations)
