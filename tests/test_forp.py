"""Tests for the fresh-only randomized policy and its closed forms."""

import numpy as np
import pytest

from aoisched import forp, ofrp
from aoisched.experiments import _make_policy
from aoisched.model import InfeasibleError, SystemConfig
from aoisched.simulate import policy_rng, run


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


def test_as_ofrp_chain_agrees_with_closed_form():
    """The age marginal of the fresh-or-old chain of the fresh-only policy,
    sampling every slot, at success_prob delta is the closed form at delta."""
    (user,) = forp.ForpParams((1.0,), (1.0,)).as_ofrp().users
    for delta in (0.05, 0.37, 0.9):
        chain = ofrp.build_chain(user, delta, 8)
        pi = ofrp.aoi_marginal(ofrp.stationary(chain, user, delta), 8)
        assert np.max(np.abs(pi - forp.stationary_closed_form(delta, 8))) < 1e-12


@pytest.mark.parametrize("fn", [
    forp.stationary_closed_form, forp.avg_aoi_closed_form])
def test_closed_forms_reject_bad_arguments(fn):
    with pytest.raises(ValueError):
        fn(1.5, 10)
    with pytest.raises(ValueError):
        fn(0.5, 1)


# ── parameters and cost ───────────────────────────────────────────────────

def test_params_validation():
    forp.ForpParams(alpha=(0.5, 0.5), sample_prob=(0.2, 0.9))
    with pytest.raises(ValueError):
        forp.ForpParams(alpha=(0.5, 0.5), sample_prob=(0.2,))
    with pytest.raises(ValueError):
        forp.ForpParams(alpha=(0.6, 0.6), sample_prob=(0.2, 0.2))
    with pytest.raises(ValueError):
        forp.ForpParams(alpha=(1.0,), sample_prob=(1.2,))


def test_cost_is_price_times_action_rate():
    assert forp.user_cost(0.5, 0.4, 1.0, 5.0) == pytest.approx(1.2)
    params = forp.ForpParams(alpha=(0.5, 0.5), sample_prob=(0.4, 0.8))
    cfg = make_config(num_users=2)
    assert forp.total_cost(params, cfg) == pytest.approx(0.5 * 6 * 1.2)


# ── grid search ───────────────────────────────────────────────────────────

def test_optimize_single_user_perfect_channel():
    # frozen oracle: smallest phi on the 0.01 grid meeting the limit is 0.17
    params = forp.optimize(make_config(success_prob=1.0))
    assert params.sample_prob == (0.17,)
    assert params.alpha == (1.0,)


def test_optimize_single_user_lossy_channel():
    params = forp.optimize(make_config(success_prob=0.8))
    assert params.sample_prob == (0.22,)


def test_optimize_two_users():
    cfg = make_config(num_users=2, success_prob=0.8, seed=3)
    params = forp.optimize(cfg)
    assert params.alpha == (0.5, 0.5)
    assert params.sample_prob == (0.43, 0.43)
    cfg1 = make_config(num_users=2, success_prob=1.0)
    assert forp.optimize(cfg1).sample_prob == (0.34, 0.34)


def test_optimize_respects_per_user_limits():
    cfg = make_config(num_users=2, success_prob=[1.0, 0.8],
                      aoi_limit=[5.0, 5.0])
    params = forp.optimize(cfg)
    for phi, p in zip(params.sample_prob, cfg.success_prob):
        delta = forp.delivery_rate(0.5, phi, p)
        assert forp.avg_aoi_closed_form(delta, 10) <= 5.0
        # one grid step less must violate the limit (minimality)
        lower = forp.delivery_rate(0.5, phi - 0.01, p)
        assert forp.avg_aoi_closed_form(lower, 10) > 5.0


def test_optimize_loose_limit_means_no_sampling():
    params = forp.optimize(make_config(aoi_limit=12.0))
    assert params.sample_prob == (0.0,)
    assert forp.total_cost(params, make_config(aoi_limit=12.0)) == 0.0


def test_optimize_infeasible_raises_with_user():
    cfg = make_config(num_users=2, success_prob=0.3, aoi_limit=1.2)
    with pytest.raises(InfeasibleError) as err:
        forp.optimize(cfg)
    assert err.value.user == 0
    assert "1.2" in str(err.value)


def simulated(params):
    """The fresh-only policy as the engine simulates it."""
    return ofrp.OfrpPolicy(params.as_ofrp())


def test_token_policy_is_the_literal_fresh_only_rule():
    """Whatever the cache holds, the forp token's policy schedules user 0
    iff the slot's first uniform is below alpha_0 and samples iff the second
    is below that user's sample_prob; it never resends."""
    cfg = make_config(num_users=2, success_prob=[0.6, 0.9], seed=77)
    phi = forp.optimize(cfg).sample_prob
    assert phi[0] != phi[1]
    policy = _make_policy("forp", lambda module: module.optimize(cfg, 0.01))
    policy.reset(cfg, policy_rng(cfg))
    slots = 20_000                        # spans several refills of its buffer
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
    stats = run(simulated(forp.ForpParams((1.0,), (phi,))), cfg)
    delta = forp.delivery_rate(1.0, phi, 0.8)
    assert stats.avg_aoi[0] == pytest.approx(
        forp.avg_aoi_closed_form(delta, 10), rel=0.02)
    assert stats.avg_cost == pytest.approx(6 * phi, rel=0.02)
    assert stats.retransmit_freq == (0.0,)


def test_policy_splits_schedule_between_users():
    cfg = make_config(num_users=2, success_prob=1.0, horizon=40_000, seed=55)
    params = forp.ForpParams(alpha=(0.5, 0.5), sample_prob=(1.0, 1.0))
    stats = run(simulated(params), cfg)
    for k in range(2):
        assert stats.sample_freq[k] == pytest.approx(0.5, abs=0.02)
    assert stats.sample_freq[0] + stats.sample_freq[1] == 1.0


def test_policy_requires_matching_user_count():
    params = forp.ForpParams(alpha=(1.0,), sample_prob=(0.5,))
    with pytest.raises(ValueError):
        run(simulated(params), make_config(num_users=2))
