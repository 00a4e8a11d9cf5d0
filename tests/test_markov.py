"""Tests for the stationary-distribution solvers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aoisched.markov as markov
from aoisched import ofrp
from aoisched.markov import (direct_stationary, power_stationary,
                             recurrent_class_count, solve_stationary,
                             validate_stochastic)


def random_stochastic(rng, n):
    m = rng.random((n, n)) + 1e-3
    return m / m.sum(axis=1, keepdims=True)


def test_hand_solved_two_state_chain():
    # balance: pi0 * 0.1 = pi1 * 0.5  ->  pi = (5/6, 1/6)
    p = np.array([[0.9, 0.1], [0.5, 0.5]])
    pi, report = solve_stationary(p)
    assert pi == pytest.approx([5 / 6, 1 / 6], abs=1e-14)
    assert report.method == "direct"
    assert report.iterations == 0
    assert report.residual < 1e-12


def test_periodic_chain():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    pi, _ = solve_stationary(p)
    assert pi == pytest.approx([0.5, 0.5], abs=1e-12)


def test_single_state_chain():
    pi, report = solve_stationary(np.array([[1.0]]))
    assert pi == pytest.approx([1.0])
    assert report.method == "direct"


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
@example(matrix=ofrp.build_chain(ofrp.OfrpUserParams(0.5, 0.3, 0.4, 0.7),
                                 0.6, 30).matrix)              # 436 states
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


def test_direct_and_power_agree():
    rng = np.random.default_rng(12)
    for n in (2, 3, 5, 9, 14):
        for _ in range(4):
            p = random_stochastic(rng, n)
            a = direct_stationary(p)
            b, _ = power_stationary(p, tol=1e-13)
            assert np.max(np.abs(a - b)) < 1e-10
            assert np.max(np.abs(a @ p - a)) < 1e-12
        # a stack is solved matrix by matrix, bit for bit
        stack = np.stack([random_stochastic(rng, n) for _ in range(3)])
        solved = direct_stationary(stack)
        assert solved.shape == (3, n)
        for row, p in zip(solved, stack):
            assert np.array_equal(row, direct_stationary(p))


def test_power_iteration_count_reported():
    p = np.array([[0.9, 0.1], [0.5, 0.5]])
    pi, iters = power_stationary(p)
    assert iters > 0
    assert pi == pytest.approx([5 / 6, 1 / 6], abs=1e-10)


def test_power_fallback_when_direct_disabled(monkeypatch):
    monkeypatch.setattr(markov, "DIRECT_SOLVE_MAX_STATES", 1)
    rng = np.random.default_rng(3)
    p = random_stochastic(rng, 6)
    pi, report = solve_stationary(p)
    assert report.method == "power"
    assert report.iterations > 0
    assert np.max(np.abs(pi @ p - pi)) < 1e-11
    assert pi == pytest.approx(direct_stationary(p), abs=1e-10)


def test_power_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(markov, "DIRECT_SOLVE_MAX_STATES", 1)
    rng = np.random.default_rng(4)
    with pytest.raises(RuntimeError, match="did not reach"):
        solve_stationary(random_stochastic(rng, 5), max_iterations=2)


def test_solution_is_clamped_and_normalized():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = random_stochastic(rng, 7)
        pi, _ = solve_stationary(p)
        assert np.all(pi >= 0.0)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
