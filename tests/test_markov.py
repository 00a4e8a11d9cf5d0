"""Tests for the dense stationary-distribution solver, the tests' oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisched import ofrp
import chain_oracle
from chain_oracle import (build_chain, direct_stationary, recurrent_class_count,
                          solve_stationary, validate_stochastic)


def random_stochastic(rng, n):
    m = rng.random((n, n)) + 1e-3
    return m / m.sum(axis=1, keepdims=True)


def test_hand_solved_two_state_chain():
    # balance: pi0 * 0.1 = pi1 * 0.5  ->  pi = (5/6, 1/6)
    p = np.array([[0.9, 0.1], [0.5, 0.5]])
    pi, residual = solve_stationary(p)
    assert pi == pytest.approx([5 / 6, 1 / 6], abs=1e-14)
    assert residual == np.max(np.abs(pi @ p - pi))
    assert residual < 1e-12


def test_periodic_chain():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    pi, _ = solve_stationary(p)
    assert pi == pytest.approx([0.5, 0.5], abs=1e-12)


def test_single_state_chain():
    pi, residual = solve_stationary(np.array([[1.0]]))
    assert pi == pytest.approx([1.0])
    assert residual == 0.0


def test_absorbing_chain_has_unique_distribution():
    # state 1 is transient; all mass ends in state 0
    p = np.array([[1.0, 0.0], [0.5, 0.5]])
    pi, _ = solve_stationary(p)
    assert pi == pytest.approx([1.0, 0.0], abs=1e-14)


def test_identity_chain_is_rejected():
    with pytest.raises(ValueError, match="reducible"):
        solve_stationary(np.eye(2))


def test_two_closed_classes_rejected():
    p = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    with pytest.raises(ValueError, match="2 recurrent classes"):
        solve_stationary(p)


def test_recurrent_class_count():
    assert recurrent_class_count(np.eye(3)) == 3
    assert recurrent_class_count(np.array([[0.5, 0.5], [0.5, 0.5]])) == 1
    assert recurrent_class_count(np.array([[1.0, 0.0], [0.5, 0.5]])) == 1


def closed_class_count(matrix):
    """Brute-force oracle: a state is recurrent when every state it reaches
    reaches it back; its class is the set it reaches."""
    reach = np.eye(len(matrix), dtype=bool) | (np.asarray(matrix) > 0.0)
    for k in range(len(matrix)):                     # transitive closure
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    recurrent = np.all(~reach | reach.T, axis=1)
    return len({tuple(np.flatnonzero(row)) for row in reach[recurrent]})


@st.composite
def sparse_nonnegative(draw):
    n = draw(st.integers(1, 30))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.floats(0.0, 1.0)),
                          max_size=3 * n))
    m = np.zeros((n, n))
    for i, j, value in cells:
        m[i, j] = value
    return m


@settings(max_examples=300, deadline=None)
@given(matrix=sparse_nonnegative())
@example(matrix=np.eye(1))
@example(matrix=np.eye(7))
@example(matrix=np.array([[1.0, 0.0, 0.0],       # absorbing state 0,
                          [0.5, 0.0, 0.5],       # transient 1 and 2
                          [0.0, 0.7, 0.3]]))
@example(matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))           # period 2
@example(matrix=build_chain(ofrp.OfrpUserParams(0.5, 0.3, 0.4, 0.7),
                                 0.6, 30))                     # 436 states
def test_recurrent_class_count_matches_reachability_oracle(matrix):
    assert recurrent_class_count(matrix) == closed_class_count(matrix)


@pytest.mark.parametrize("bad", [
    np.ones((2, 3)),                       # not square
    np.zeros((0, 0)),                      # empty
    np.array([[0.5, 0.4], [0.5, 0.5]]),    # rows do not sum to 1
    np.array([[1.1, -0.1], [0.5, 0.5]]),   # negative entry
])
def test_validate_rejects_non_stochastic(bad):
    with pytest.raises(ValueError):
        validate_stochastic(bad)


@pytest.mark.parametrize("bad", [
    np.array([[np.nan, 1.0], [0.5, 0.5]]),
    np.array([[0.5, 0.5], [np.inf, -np.inf]]),
])
def test_non_finite_entries_are_rejected_up_front(bad):
    with pytest.raises(ValueError, match="non-finite"):
        solve_stationary(bad)


def test_validate_tolerates_solver_noise():
    p = np.array([[0.5 + 1e-13, 0.5 - 1e-13], [-1e-13, 1.0 + 1e-13]])
    validate_stochastic(p)


def test_direct_solve_balances_and_stacks():
    rng = np.random.default_rng(12)
    for n in (2, 3, 5, 9, 14):
        for _ in range(4):
            p = random_stochastic(rng, n)
            a = direct_stationary(p)
            assert np.max(np.abs(a @ p - a)) < 1e-12
        # a stack is solved matrix by matrix, bit for bit
        stack = np.stack([random_stochastic(rng, n) for _ in range(3)])
        solved = direct_stationary(stack)
        assert solved.shape == (3, n)
        for row, p in zip(solved, stack):
            assert np.array_equal(row, direct_stationary(p))


@pytest.mark.parametrize("p_kind", ["zero", "one", "random"])
def test_direct_solve_matches_the_textbook_system(p_kind):
    """The in-place system gives the bits of ``solve(P^T - I)`` with the last
    row set to ones, for single chains and stacks, and leaves P unchanged."""
    rng = np.random.default_rng(["zero", "one", "random"].index(p_kind))
    for cap in (2, 3, 7, 10, 18, 30):
        p = {"zero": 0.0, "one": 1.0, "random": rng.random()}[p_kind]
        user = ofrp.OfrpUserParams(1.0, *rng.dirichlet(np.ones(3))[:2],
                                   rng.uniform(0.1, 1.0))
        chain = build_chain(user, p, cap)
        stack = np.stack([chain, random_stochastic(rng, len(chain))])
        for matrix in (chain, stack):
            before = matrix.copy()
            a = np.swapaxes(matrix, -1, -2) - np.eye(len(chain))
            a[..., -1, :] = 1.0
            b = np.zeros(matrix.shape[:-1] + (1,))
            b[..., -1, 0] = 1.0
            assert np.array_equal(direct_stationary(matrix),
                                  np.linalg.solve(a, b)[..., 0])
            assert np.array_equal(matrix, before)


def test_chains_above_the_size_limit_are_refused(monkeypatch):
    monkeypatch.setattr(chain_oracle, "DIRECT_SOLVE_MAX_STATES", 5)
    rng = np.random.default_rng(3)
    pi, _ = solve_stationary(random_stochastic(rng, 5))
    assert pi.shape == (5,)
    with pytest.raises(ValueError, match="6 states, above .* limit of 5"):
        solve_stationary(random_stochastic(rng, 6))


def test_residual_at_or_above_tolerance_raises():
    p = random_stochastic(np.random.default_rng(4), 5)
    with pytest.raises(RuntimeError, match="residual .* is not below 0"):
        solve_stationary(p, tol=0.0)


def test_solution_is_clamped_and_normalized():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = random_stochastic(rng, 7)
        pi, _ = solve_stationary(p)
        assert np.all(pi >= 0.0)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
