"""Stationary distributions of finite discrete-time Markov chains.

Solves pi = pi P for row-stochastic P: one balance equation is replaced by
the normalization constraint and the dense system goes to LAPACK, for
chains of up to ``DIRECT_SOLVE_MAX_STATES`` states.  Chains with no unique
stationary distribution, those with more than one recurrent class, are
rejected up front: an iterative Tarjan scan (Tarjan 1972, "Depth-first
search and linear graph algorithms", SIAM J. Comput. 1(2)) finds the
strongly connected components of the p > 0 graph in time linear in its
edges, and the recurrent classes are the components that no edge leaves.
"""

from __future__ import annotations

import numpy as np

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
