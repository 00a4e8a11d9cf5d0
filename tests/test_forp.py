"""Tests for the fresh-only randomized policy and its closed forms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched import forp, ofrp
from aoisched.experiments import _make_policy
from aoisched.model import InfeasibleError, SystemConfig
from aoisched.simulate import run
from chain_oracle import DIRECT_SOLVE_MAX_STATES
from engine_oracle import policy_rng, probability_grid


def fresh_only(*phis):
    """Fresh-only points sampling with ``phis`` under uniform scheduling."""
    alpha = 1.0 / len(phis)
    return ofrp.OfrpParams(tuple(
        ofrp.OfrpUserParams(alpha, phi, 0.0, phi) for phi in phis))


def sample_probs(params):
    return tuple(user.sample_empty for user in params.users)


def make_config(**overrides):
    base = dict(num_users=1, success_prob=0.8, sample_cost=1.0,
                transmit_cost=5.0, aoi_cap=10, aoi_limit=5.0, horizon=1000,
                seed=17)
    base.update(overrides)
    return SystemConfig(**base)


# ── closed forms ──────────────────────────────────────────────────────────

def test_stationary_certain_delivery():
    pi = forp.stationary_closed_form(1.0, 5)
    assert pi == pytest.approx([1, 0, 0, 0, 0])
    assert forp.avg_aoi_closed_form(1.0, 5) == pytest.approx(1.0)


def test_stationary_no_delivery():
    pi = forp.stationary_closed_form(0.0, 5)
    assert pi == pytest.approx([0, 0, 0, 0, 1])
    assert forp.avg_aoi_closed_form(0.0, 5) == 5.0


def test_half_rate_cap_three():
    assert forp.stationary_closed_form(0.5, 3) == pytest.approx([0.5, 0.25, 0.25])
    assert forp.avg_aoi_closed_form(0.5, 3) == pytest.approx(1.75)


def test_known_average_ages():
    # frozen from an independent explicit-chain solve
    assert forp.avg_aoi_closed_form(0.2, 10) == pytest.approx(
        4.463129088, abs=1e-9)
    assert forp.avg_aoi_closed_form(0.1, 10) == pytest.approx(
        6.513215599, abs=1e-9)
    assert forp.avg_aoi_closed_form(0.3, 10) == pytest.approx(
        3.239174917, abs=1e-9)


def test_distribution_sums_to_one_and_matches_mean():
    for delta in np.linspace(0.0, 1.0, 21):
        for cap in (2, 4, 11, 25):
            pi = forp.stationary_closed_form(delta, cap)
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            mean = float(pi @ np.arange(1, cap + 1))
            assert mean == pytest.approx(
                forp.avg_aoi_closed_form(delta, cap), abs=1e-10)


def test_average_age_decreases_with_delivery_rate():
    values = [forp.avg_aoi_closed_form(d, 15) for d in np.linspace(0, 1, 50)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_fresh_only_chain_agrees_with_closed_form():
    """The age marginal of the fresh-or-old chain of the fresh-only policy,
    sampling every slot, at success_prob delta is the closed form at delta."""
    (user,) = fresh_only(1.0).users
    for delta in (0.05, 0.37, 0.9):
        pi = ofrp.aoi_marginal(ofrp.stationary(user, delta, 8), 8)
        assert np.max(np.abs(pi - forp.stationary_closed_form(delta, 8))) < 1e-12


@pytest.mark.parametrize("cap", [100, 200])
def test_closed_form_checks_the_expansion_above_the_dense_limit(cap):
    """The same identity past the dense oracle's size limit, over the 20
    rates of the fresh-only-identity check."""
    assert cap + (cap - 1) * (cap - 2) // 2 > DIRECT_SOLVE_MAX_STATES
    (user,) = fresh_only(1.0).users
    for i in range(1, 21):
        delta = i / 20.0
        pi = ofrp.aoi_marginal(ofrp.stationary(user, delta, cap), cap)
        assert np.max(np.abs(pi - forp.stationary_closed_form(delta, cap))) \
            < 1e-12


@pytest.mark.parametrize("fn", [
    forp.stationary_closed_form, forp.avg_aoi_closed_form])
def test_closed_forms_reject_bad_arguments(fn):
    with pytest.raises(ValueError):
        fn(1.5, 10)
    with pytest.raises(ValueError):
        fn(0.5, 1)


# ── parameters and cost ───────────────────────────────────────────────────

def test_cost_is_price_times_action_rate():
    assert forp.user_cost(0.5, 0.4, 1.0, 5.0) == pytest.approx(1.2)
    cfg = make_config(num_users=2)
    assert forp.total_cost(fresh_only(0.4, 0.8), cfg) == pytest.approx(0.5 * 6 * 1.2)


@pytest.mark.parametrize("user", [
    ofrp.OfrpUserParams(1.0, 0.4, 0.1, 0.4),     # resends
    ofrp.OfrpUserParams(1.0, 0.4, 0.0, 0.5),     # samples by cache state
])
def test_total_cost_refuses_a_point_that_is_not_fresh_only(user):
    with pytest.raises(ValueError, match="user 0.*not a fresh-only point"):
        forp.total_cost(ofrp.OfrpParams((user,)), make_config())


# ── grid search ───────────────────────────────────────────────────────────

def test_optimize_single_user_perfect_channel():
    # frozen oracle: smallest phi on the 0.01 grid meeting the limit is 0.17
    params = forp.optimize(make_config(success_prob=1.0))
    assert params == fresh_only(0.17)


def test_optimize_single_user_lossy_channel():
    assert forp.optimize(make_config(success_prob=0.8)) == fresh_only(0.22)


def test_optimize_two_users():
    cfg = make_config(num_users=2, success_prob=0.8, seed=3)
    assert forp.optimize(cfg) == fresh_only(0.43, 0.43)
    cfg1 = make_config(num_users=2, success_prob=1.0)
    assert forp.optimize(cfg1) == fresh_only(0.34, 0.34)


def test_optimize_respects_per_user_limits():
    cfg = make_config(num_users=2, success_prob=[1.0, 0.8],
                      aoi_limit=[5.0, 5.0])
    params = forp.optimize(cfg)
    for phi, p in zip(sample_probs(params), cfg.success_prob):
        delta = forp.delivery_rate(0.5, phi, p)
        assert forp.avg_aoi_closed_form(delta, 10) <= 5.0
        # one grid step less must violate the limit (minimality)
        lower = forp.delivery_rate(0.5, phi - 0.01, p)
        assert forp.avg_aoi_closed_form(lower, 10) > 5.0


def test_optimize_loose_limit_means_no_sampling():
    params = forp.optimize(make_config(aoi_limit=12.0))
    assert params == fresh_only(0.0)
    assert forp.total_cost(params, make_config(aoi_limit=12.0)) == 0.0


def test_optimize_infeasible_raises_with_user():
    cfg = make_config(num_users=2, success_prob=0.3, aoi_limit=1.2)
    with pytest.raises(InfeasibleError) as err:
        forp.optimize(cfg)
    assert err.value.user == 0
    assert "1.2" in str(err.value)


def test_optimize_does_not_build_the_grid():
    """A fine step costs time, not memory: the search stops at the first
    feasible value without listing the grid, whose 100,001 floats would
    take about 3 MB."""
    cfg = make_config(num_users=2)
    tracemalloc.start()
    try:
        params = forp.optimize(cfg, 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params == fresh_only(0.42086, 0.42086)
    assert peak < 0.5 * 2**20


def test_optimize_scans_once_per_distinct_user(monkeypatch):
    """Users with one (success_prob, aoi_limit) share a scan: two identical
    users cost the closed-form evaluations of one scan, from grid value 0
    up to their pick, and both get that pick."""
    calls = []
    closed_form = forp.avg_aoi_closed_form
    monkeypatch.setattr(forp, "avg_aoi_closed_form",
                        lambda *args: calls.append(args) or closed_form(*args))
    params = forp.optimize(make_config(num_users=2), 0.01)
    phi = params.users[0].sample_empty
    assert params == fresh_only(phi, phi)
    assert 0.0 < phi < 1.0
    assert len(calls) == round(phi * 100) + 1


def least_cost_pick(cfg, step):
    """Brute force: each user's cheapest feasible grid value, the first of
    equal costs; InfeasibleError names the first user with none."""
    alpha = 1.0 / cfg.num_users
    picks = []
    for user in range(cfg.num_users):
        feasible = [phi for phi in probability_grid(step)
                    if forp.avg_aoi_closed_form(forp.delivery_rate(
                        alpha, phi, cfg.success_prob[user]), cfg.aoi_cap)
                    <= cfg.aoi_limit[user]]
        if not feasible:
            raise InfeasibleError(f"user {user}", user=user)
        costs = [forp.user_cost(alpha, phi, cfg.sample_cost, cfg.transmit_cost)
                 for phi in feasible]
        picks.append(feasible[costs.index(min(costs))])
    return tuple(picks)


price = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), cap=st.integers(2, 40),
       n=st.integers(2, 200), sample_cost=price, transmit_cost=price)
def test_optimize_is_the_least_cost_feasible_grid_value(
        data, k, cap, n, sample_cost, transmit_cost):
    """The first feasible grid value is the cheapest one (step 1/n from
    0.5 to 0.005), and both searches refuse the same user."""
    cfg = make_config(
        num_users=k, aoi_cap=cap, sample_cost=sample_cost,
        transmit_cost=transmit_cost,
        success_prob=data.draw(st.lists(st.floats(0.0, 1.0),
                                        min_size=k, max_size=k)),
        aoi_limit=data.draw(st.lists(st.floats(1.0, cap + 1.0),
                                     min_size=k, max_size=k)))
    try:
        expected = least_cost_pick(cfg, 1 / n)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as err:
            forp.optimize(cfg, 1 / n)
        assert err.value.user == exc.user
        return
    assert forp.optimize(cfg, 1 / n) == fresh_only(*expected)


def test_token_policy_is_the_literal_fresh_only_rule():
    """Whatever the cache holds, the forp token's policy schedules user 0
    iff the slot's first uniform is below alpha_0 and samples iff the second
    is below that user's sampling probability; it never resends."""
    cfg = make_config(num_users=2, success_prob=[0.6, 0.9], seed=77)
    phi = sample_probs(forp.optimize(cfg))
    assert phi[0] != phi[1]
    policy = _make_policy("forp", lambda module: module.optimize(cfg, 0.01))
    policy.reset(cfg, policy_rng(cfg))
    slots = 20_000                        # about five 4,096-slot engine blocks
    draws = policy_rng(cfg).random(2 * slots).reshape(slots, 2)
    occupied = np.random.default_rng(5).random((slots, 2)) < 0.5
    for t, ((u_sched, u_act), occ) in enumerate(zip(draws, occupied)):
        user = 0 if u_sched < 0.5 else 1
        expected = (user if u_act < phi[user] else None, None)
        assert policy.decide(t, [3, 3], [1, 1], occ.tolist(),
                             [0.0, 0.0]) == expected


def test_simulation_tracks_closed_form():
    phi = 0.5
    cfg = make_config(horizon=200_000, seed=912)
    stats = run(ofrp.OfrpPolicy(fresh_only(phi)), cfg)
    delta = forp.delivery_rate(1.0, phi, 0.8)
    assert stats.avg_aoi[0] == pytest.approx(
        forp.avg_aoi_closed_form(delta, 10), rel=0.02)
    assert stats.avg_cost == pytest.approx(6 * phi, rel=0.02)
    assert stats.retransmit_freq == (0.0,)


def test_policy_splits_schedule_between_users():
    cfg = make_config(num_users=2, success_prob=1.0, horizon=40_000, seed=55)
    stats = run(ofrp.OfrpPolicy(fresh_only(1.0, 1.0)), cfg)
    for k in range(2):
        assert stats.sample_freq[k] == pytest.approx(0.5, abs=0.02)
    assert stats.sample_freq[0] + stats.sample_freq[1] == 1.0


def test_policy_requires_matching_user_count():
    with pytest.raises(ValueError):
        run(ofrp.OfrpPolicy(fresh_only(0.5)), make_config(num_users=2))
