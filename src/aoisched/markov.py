"""Stationary distributions of finite discrete-time Markov chains.

Solves pi = pi P for row-stochastic P.  The default path replaces one balance
equation with the normalization constraint and hands the dense system to
LAPACK; a damped power iteration serves as fallback (and as the primary
method for very large chains).  Chains whose structure admits more than one
recurrent class have no unique stationary distribution and are rejected up
front via a strongly-connected-component scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# Above this state count the dense direct solve is skipped in favor of the
# power iteration (cubic solve cost stops being worth it).
DIRECT_SOLVE_MAX_STATES = 2500


@dataclass
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
    if np.any(p < -1e-12):
        raise ValueError("transition matrix has negative entries")
    rowsum = p.sum(axis=1)
    bad = np.max(np.abs(rowsum - 1.0))
    if bad > tol:
        raise ValueError(f"rows must sum to 1 (max deviation {bad:.3e})")
    return p


def recurrent_class_count(matrix: np.ndarray) -> int:
    """Number of recurrent communicating classes of the chain."""
    p = np.asarray(matrix)
    adj = csr_matrix(p > 0.0)
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    # A class is recurrent iff no edge leaves it.
    leaves = np.zeros(n_comp, dtype=bool)
    rows, cols = adj.nonzero()
    cross = labels[rows] != labels[cols]
    leaves[labels[rows[cross]]] = True
    return int(n_comp - np.count_nonzero(leaves))


def _finalize(pi: np.ndarray) -> np.ndarray:
    """Clamp solver noise below zero and renormalize to a distribution."""
    pi = np.where(pi < 0.0, 0.0, pi)
    return pi / pi.sum()


def direct_stationary(matrix: np.ndarray) -> np.ndarray:
    """Solve the balance equations with the last one replaced by normalization."""
    p = np.asarray(matrix, dtype=float)
    n = p.shape[0]
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


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
            pi = _finalize(direct_stationary(p))
            residual = float(np.max(np.abs(pi @ p - pi)))
            if residual < tol:
                return pi, SolveReport("direct", residual, 0)
        except np.linalg.LinAlgError:
            pass
    pi, iterations = power_stationary(p, tol, max_iterations)
    pi = _finalize(pi)
    residual = float(np.max(np.abs(pi @ p - pi)))
    return pi, SolveReport("power", residual, iterations)
