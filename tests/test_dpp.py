"""Tests for the drift-plus-penalty scheduler."""

from dataclasses import replace

import numpy as np
import pytest

from aoisched import dpp
from aoisched.model import ActionVector, SystemConfig, UserState
from aoisched.simulate import run


def make_config(**overrides):
    base = dict(num_users=1, success_prob=1.0, sample_cost=1.0,
                transmit_cost=5.0, aoi_cap=10, aoi_limit=5.0, horizon=100,
                seed=9, v_weight=1.0)
    base.update(overrides)
    return SystemConfig(**base)


def brute_force(states, cfg):
    best, best_score = None, float("inf")
    occupied = [s.cache_occupied for s in states]
    for pair in dpp.feasible_actions(occupied, cfg.single_transmitter_mode):
        action = ActionVector.from_pair(cfg.num_users, *pair)
        score = dpp.candidate_score(states, action, cfg)
        if score < best_score:
            best, best_score = action, score
    return best


# ── scoring ───────────────────────────────────────────────────────────────

def test_hand_scored_example():
    # X=10, age 5 with a cached packet of wait 1, V=1, p=1, costs 1+5
    st = UserState(aoi=5, waiting_time=1, cache_occupied=True, vqueue=10.0)
    cfg = make_config()
    idle = ActionVector.idle(1)
    sample = ActionVector((1,), (0,))
    resend = ActionVector((0,), (1,))
    assert dpp.candidate_score([st], idle, cfg) == pytest.approx(10.0)
    assert dpp.candidate_score([st], sample, cfg) == pytest.approx(-34.0)
    assert dpp.candidate_score([st], resend, cfg) == pytest.approx(-25.0)
    assert dpp.decide([st], cfg) == sample


def test_score_rejects_infeasible_action():
    cfg = make_config()
    with pytest.raises(ValueError):
        dpp.candidate_score([UserState(aoi=5)], ActionVector((0,), (1,)), cfg)


# ── action enumeration ────────────────────────────────────────────────────

def test_feasible_action_counts():
    assert len(dpp.feasible_actions([True] * 3, True)) == 7    # idle + 3 + 3
    assert len(dpp.feasible_actions([True] * 3, False)) == 13  # ... + 6 pairs
    assert len(dpp.feasible_actions([False] * 3, True)) == 4
    assert len(dpp.feasible_actions([False] * 3, False)) == 4
    assert dpp.feasible_actions([False, True], True) == [
        (None, None), (0, None), (1, None), (None, 1)]


# ── decision rule ─────────────────────────────────────────────────────────

def test_empty_queues_mean_idle():
    cfg = make_config(num_users=3, success_prob=0.8)
    states = [UserState(aoi=a, vqueue=0.0) for a in (3, 7, 10)]
    assert dpp.decide(states, cfg) == ActionVector.idle(3)


def test_symmetric_tie_goes_to_first_user():
    cfg = make_config(num_users=2, success_prob=0.8, v_weight=0.0)
    states = [UserState(aoi=5, vqueue=10.0)] * 2
    assert dpp.decide(states, cfg) == ActionVector((1, 0), (0, 0))


def test_matches_brute_force_on_directed_cases():
    cfg = make_config(num_users=2, success_prob=[0.9, 0.4], v_weight=3.0,
                      aoi_limit=[2.0, 8.0])
    cases = [
        [UserState(aoi=4, vqueue=7.0),
         UserState(aoi=9, waiting_time=2, cache_occupied=True, vqueue=55.0)],
        [UserState(aoi=10, waiting_time=8, cache_occupied=True, vqueue=3.0),
         UserState(aoi=1, vqueue=0.0)],
        [UserState(aoi=2, vqueue=100.0),
         UserState(aoi=3, waiting_time=1, cache_occupied=True, vqueue=100.0)],
    ]
    for states in cases:
        assert dpp.decide(states, cfg) == brute_force(states, cfg)
        dual = replace(cfg, single_transmitter_mode=False)
        assert dpp.decide(states, dual) == brute_force(states, dual)


def test_matches_brute_force_randomized():
    rng = np.random.default_rng(41)
    for _ in range(300):
        k = int(rng.integers(1, 4))
        cap = int(rng.integers(3, 9))
        cfg = SystemConfig(
            num_users=k, success_prob=[float(x) for x in rng.uniform(0.1, 1, k)],
            sample_cost=float(rng.uniform(0, 4)),
            transmit_cost=float(rng.uniform(0, 4)),
            aoi_cap=cap, aoi_limit=[float(x) for x in rng.uniform(1, cap, k)],
            horizon=10, seed=1, v_weight=float(rng.uniform(0, 20)),
            single_transmitter_mode=bool(rng.integers(0, 2)))
        states = []
        for _ in range(k):
            aoi = int(rng.integers(1, cap + 1))
            occ = bool(rng.integers(0, 2)) and aoi >= 3
            wait = int(rng.integers(1, min(cap - 2, aoi - 2) + 1)) if occ else 0
            states.append(UserState(aoi=aoi, waiting_time=wait,
                                    cache_occupied=occ,
                                    vqueue=float(rng.uniform(0, 60))))
        assert dpp.decide(states, cfg) == brute_force(states, cfg)


def test_growing_queue_eventually_forces_action():
    cfg = make_config(success_prob=0.8, v_weight=100.0)
    seen_idle = seen_sample = False
    last_action = None
    for x in range(0, 500, 5):
        action = dpp.decide([UserState(aoi=5, vqueue=float(x))], cfg)
        acted = action.sample[0] == 1
        if not acted:
            assert not seen_sample, "action flipped back to idle as X grew"
            seen_idle = True
        else:
            seen_sample = True
        last_action = action
    assert seen_idle and seen_sample
    assert last_action.sample == (1,)


def test_joint_scaling_leaves_decisions_unchanged():
    cfg = make_config(num_users=2, success_prob=[0.7, 0.5], v_weight=12.0)
    states = [UserState(aoi=6, vqueue=30.0),
              UserState(aoi=8, waiting_time=3, cache_occupied=True, vqueue=28.0)]
    base = dpp.decide(states, cfg)
    for lam in (0.25, 2.0, 16.0):
        scaled = [replace(s, vqueue=s.vqueue * lam) for s in states]
        assert dpp.decide(scaled, replace(cfg, v_weight=12.0 * lam)) == base


# ── closed-loop behaviour ─────────────────────────────────────────────────

def test_queues_stay_bounded_when_limit_equals_cap():
    # service >= every possible arrival, so X can never exceed the cap
    cfg = make_config(num_users=2, success_prob=0.8, aoi_limit=10.0,
                      horizon=5000, v_weight=500.0)
    stats = run(dpp.DppPolicy(), cfg)
    assert max(stats.avg_vqueue) <= 10.0


def test_average_age_approaches_limit():
    cfg = make_config(num_users=2, success_prob=0.8, aoi_limit=5.0,
                      horizon=200_000, v_weight=200.0, seed=77)
    stats = run(dpp.DppPolicy(), cfg)
    for k in range(2):
        assert stats.avg_aoi[k] == pytest.approx(5.0, abs=0.35)
        assert stats.final_vqueue_over_t[k] < 0.5
    assert stats.avg_cost > 0.0
