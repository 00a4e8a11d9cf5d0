"""Tests for the fresh-or-old policy: chain encoding, metrics, grid search."""

import dataclasses

import numpy as np
import pytest

from aoisched import forp, ofrp
from aoisched.markov import solve_stationary
from aoisched.model import InfeasibleError, SystemConfig
from aoisched.simulate import run


def make_config(**overrides):
    base = dict(num_users=1, success_prob=0.8, sample_cost=1.0,
                transmit_cost=5.0, aoi_cap=10, aoi_limit=5.0, horizon=1000,
                seed=23)
    base.update(overrides)
    return SystemConfig(**base)


LITERAL = ofrp.OfrpUserParams(alpha=0.5, sample_occupied=0.4,
                              retransmit_old=0.2, sample_empty=0.6)


# ── state space ───────────────────────────────────────────────────────────

def test_state_count_and_order():
    states = ofrp.chain_states(10)
    assert len(states) == 46            # 10 empty + 36 cached
    assert states[:3] == (("empty", 1), ("empty", 2), ("empty", 3))
    assert states[10] == ("cached", 1, 3)
    assert states[-1] == ("cached", 8, 10)


def test_cached_states_keep_packet_strictly_useful():
    for s in ofrp.chain_states(12):
        if s[0] == "cached":
            _, wait, age = s
            assert 1 <= wait <= 10          # at most cap-2
            assert age >= wait + 2          # strictly fresher than the age


def test_minimal_cap_state_spaces():
    assert ofrp.chain_states(2) == (("empty", 1), ("empty", 2))
    assert ofrp.chain_states(3) == (
        ("empty", 1), ("empty", 2), ("empty", 3), ("cached", 1, 3))


def test_cache_landing_rules():
    assert ofrp._next_cache_state(1, 3, 10) == ("cached", 1, 3)
    assert ofrp._next_cache_state(1, 2, 10) == ("empty", 2)     # not fresher
    assert ofrp._next_cache_state(8, 10, 10) == ("cached", 8, 10)
    assert ofrp._next_cache_state(9, 10, 10) == ("empty", 10)   # wait too old


# ── transition structure ──────────────────────────────────────────────────

def test_literal_example_row():
    """One cached row spelled out: fresh success resets the age, a failed
    fresh sample re-enters at wait 1, a delivered old packet yields age
    wait+1, and everything else ages in place."""
    chain = ofrp.build_chain(LITERAL, 0.8, 10)
    idx = {s: i for i, s in enumerate(chain.states)}
    row = chain.matrix[idx[("cached", 1, 3)]]
    expected = {
        ("empty", 1): 0.16,        # alpha*u*p
        ("cached", 1, 4): 0.04,    # alpha*u*(1-p)
        ("empty", 2): 0.08,        # alpha*q*p
        ("cached", 2, 4): 0.72,    # remaining mass, packet and age both grow
    }
    for state, prob in expected.items():
        assert row[idx[state]] == pytest.approx(prob, abs=1e-12)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(row) == 4


def test_empty_row_reenters_via_cache():
    chain = ofrp.build_chain(LITERAL, 0.8, 10)
    idx = {s: i for i, s in enumerate(chain.states)}
    row = chain.matrix[idx[("empty", 5)]]
    assert row[idx[("empty", 1)]] == pytest.approx(0.5 * 0.6 * 0.8)
    assert row[idx[("cached", 1, 6)]] == pytest.approx(0.5 * 0.6 * 0.2)
    assert row[idx[("empty", 6)]] == pytest.approx(1 - 0.5 * 0.6)


def test_rows_are_stochastic_across_parameter_corners():
    corners = [
        ofrp.OfrpUserParams(1.0, 1.0, 0.0, 1.0),
        ofrp.OfrpUserParams(1.0, 0.0, 1.0, 1.0),
        ofrp.OfrpUserParams(0.3, 0.5, 0.5, 0.2),
        ofrp.OfrpUserParams(0.5, 0.0, 0.0, 0.0),
    ]
    for user in corners:
        for p in (0.0, 0.35, 1.0):
            for cap in (2, 3, 6):
                m = ofrp.build_chain(user, p, cap).matrix
                assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-12
                assert np.min(m) >= 0.0


def test_build_chain_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ofrp.build_chain(LITERAL, 1.5, 10)
    with pytest.raises(ValueError):
        ofrp.build_chain(LITERAL, 0.5, 1)


def test_params_validation():
    with pytest.raises(ValueError):
        ofrp.OfrpUserParams(0.5, 0.7, 0.4, 0.5)   # u + q > 1
    with pytest.raises(ValueError):
        ofrp.OfrpUserParams(1.2, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        ofrp.OfrpParams(users=())
    with pytest.raises(ValueError):                # scheduling != 1
        ofrp.OfrpParams(users=(ofrp.OfrpUserParams(0.4, 0.1, 0.1, 0.1),) * 2)


# ── stationary metrics ────────────────────────────────────────────────────

def test_collapses_to_fresh_only_without_retransmissions():
    """With q = 0 and equal sampling in both cache states the age process
    ignores the cache entirely, so the age marginal must equal the fresh-only
    closed form."""
    for phi, p in ((0.3, 0.9), (0.8, 0.5)):
        user = ofrp.OfrpUserParams(1.0, phi, 0.0, phi)
        chain = ofrp.build_chain(user, p, 10)
        marginal = ofrp.aoi_marginal(ofrp.stationary(chain, user, p), 10)
        reference = forp.stationary_closed_form(phi * p, 10)
        assert np.max(np.abs(marginal - reference)) < 1e-10


def test_perfect_channel_never_caches():
    user = ofrp.OfrpUserParams(1.0, 0.9, 0.1, 0.5)
    m = ofrp.metrics(user, 1.0, 10, 1.0, 5.0)
    assert m.empty_fraction == pytest.approx(1.0, abs=1e-12)
    assert m.avg_cost == pytest.approx(0.5 * 6.0, abs=1e-12)
    assert m.avg_aoi == pytest.approx(forp.avg_aoi_closed_form(0.5, 10), abs=1e-10)


def test_chain_is_immutable():
    chain = ofrp.build_chain(LITERAL, 0.8, 10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        chain.matrix = np.eye(len(chain.states))


def test_degenerate_parameters_are_refused():
    dead = ofrp.OfrpUserParams(1.0, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="degenerate"):
        ofrp.stationary(ofrp.build_chain(dead, 0.8, 10), dead, 0.8)
    with pytest.raises(ValueError, match="degenerate"):
        ofrp.stationary(ofrp.build_chain(LITERAL, 0.0, 10), LITERAL, 0.0)


def test_total_cost_skips_users_that_never_sample():
    # alpha * sample_empty = 0: the cache drains and the age sits at the cap
    active = ofrp.OfrpUserParams(0.5, 0.4, 0.2, 0.6)
    silent = ofrp.OfrpUserParams(0.5, 0.9, 0.1, 0.0)
    assert ofrp.metrics(silent, 0.8, 10, 1.0, 5.0) == \
        ofrp.OfrpMetrics(avg_aoi=10.0, empty_fraction=1.0, avg_cost=0.0)
    cfg = make_config(num_users=2)
    total = ofrp.total_cost(ofrp.OfrpParams((active, silent)), cfg)
    m = ofrp.metrics(active, 0.8, 10, 1.0, 5.0)
    assert total == pytest.approx(m.avg_cost)


def test_total_cost_on_dead_channel():
    # p = 0: the age sits at the cap, but the cost rate is well defined
    user = ofrp.OfrpUserParams(1.0, 0.3, 0.2, 0.5)
    chain = ofrp.build_chain(user, 0.0, 10)
    pi, _ = solve_stationary(chain.matrix)
    theta = sum(prob for prob, s in zip(pi, chain.states) if s[0] == "empty")
    expected = theta * 0.5 * 6.0 + (1 - theta) * (0.2 * 5.0 + 0.3 * 6.0)
    m = ofrp.metrics(user, 0.0, 10, 1.0, 5.0)
    assert m.avg_aoi == 10.0
    assert m.empty_fraction == pytest.approx(theta, abs=1e-12)
    assert m.avg_cost == pytest.approx(expected, abs=1e-12)
    assert m.avg_cost > 0.0
    total = ofrp.total_cost(ofrp.OfrpParams((user,)),
                            make_config(success_prob=0.0))
    assert total == m.avg_cost


# ── simulation agreement ──────────────────────────────────────────────────

def test_simulation_tracks_chain_metrics():
    cfg = make_config(num_users=2, success_prob=0.5, horizon=150_000, seed=61)
    params = ofrp.OfrpParams((LITERAL, LITERAL))
    stats = run(ofrp.OfrpPolicy(params), cfg)
    pred = ofrp.metrics(LITERAL, 0.5, 10, 1.0, 5.0)
    for k in range(2):
        assert stats.avg_aoi[k] == pytest.approx(pred.avg_aoi, rel=0.03)
        assert stats.empty_fraction[k] == pytest.approx(
            pred.empty_fraction, rel=0.03)
    assert stats.avg_cost == pytest.approx(2 * pred.avg_cost, rel=0.03)


def test_state_frequencies_track_stationary_distribution():
    cfg = make_config(success_prob=0.6, horizon=150_000, seed=62)
    user = ofrp.OfrpUserParams(1.0, 0.4, 0.2, 0.6)
    stats = run(ofrp.OfrpPolicy(ofrp.OfrpParams((user,))), cfg,
                track_states=True)
    chain = ofrp.build_chain(user, 0.6, 10)
    pi = ofrp.stationary(chain, user, 0.6)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    sim = {}
    for (occ, wait, aoi), count in stats.state_freq[0].items():
        key = ("cached", wait, aoi) if occ else ("empty", aoi)
        sim[key] = count / cfg.horizon
    tv = 0.5 * sum(abs(sim.get(s, 0.0) - prob)
                   for s, prob in zip(chain.states, pi))
    assert tv < 0.02


def test_policy_action_split():
    user = ofrp.OfrpUserParams(1.0, 0.0, 1.0, 1.0)
    cfg = make_config(success_prob=0.3, horizon=20_000, seed=63)
    stats = run(ofrp.OfrpPolicy(ofrp.OfrpParams((user,))), cfg)
    # acts every slot: samples when empty, resends when holding a packet
    assert stats.sample_freq[0] + stats.retransmit_freq[0] == 1.0
    assert stats.retransmit_freq[0] > 0.3


# ── grid search ───────────────────────────────────────────────────────────

def test_optimize_small_instance_matches_brute_force():
    # frozen oracle: brute force over the 0.1 grid with an independently
    # written chain builder
    cfg = make_config(success_prob=0.9, aoi_cap=5, aoi_limit=2.5)
    params = ofrp.optimize(cfg, step=0.1)
    u = params.users[0]
    assert (u.sample_occupied, u.retransmit_old, u.sample_empty) == \
        (0.3, 0.1, 0.4)
    assert ofrp.total_cost(params, cfg) == pytest.approx(
        2.394989385845224, abs=1e-12)


def test_optimize_reference_instance():
    # frozen oracle for the single-user reference instance on the 0.01 grid
    cfg = make_config()
    params = ofrp.optimize(cfg, step=0.01)
    u = params.users[0]
    assert (u.sample_occupied, u.retransmit_old, u.sample_empty) == \
        (0.51, 0.0, 0.18)
    m = ofrp.metrics(u, 0.8, 10, 1.0, 5.0)
    assert m.avg_aoi == pytest.approx(4.995312190552322, abs=1e-9)
    assert m.avg_cost == pytest.approx(1.2140401421091083, abs=1e-9)


def test_optimize_loose_limit_is_free():
    cfg = make_config(aoi_limit=10.0)
    params = ofrp.optimize(cfg, step=0.1)
    u = params.users[0]
    assert (u.sample_occupied, u.retransmit_old, u.sample_empty) == (0, 0, 0)
    assert ofrp.total_cost(params, cfg) == 0.0


def test_optimize_dead_channel_infeasible():
    cfg = make_config(success_prob=0.0)
    with pytest.raises(InfeasibleError) as err:
        ofrp.optimize(cfg, step=0.1)
    assert err.value.user == 0


def test_optimize_tight_limit_infeasible():
    cfg = make_config(success_prob=0.4, aoi_limit=1.05)
    with pytest.raises(InfeasibleError, match="no grid point"):
        ofrp.optimize(cfg, step=0.1)


def test_optimize_free_actions_pick_smallest_triple():
    """With zero prices every feasible point costs 0; the scan must keep its
    first hit, i.e. the lexicographically smallest feasible triple.

    Note u = 0 makes a lingering failed sample block further sampling until
    it goes stale, so ue = 0.4 (age 2.66) misses the 2.5 limit that plain
    always-fresh sampling at the same rate would meet; 0.5 is the first
    feasible value.
    """
    cfg = make_config(success_prob=0.9, aoi_cap=5, aoi_limit=2.5,
                      sample_cost=0.0, transmit_cost=0.0)
    u = ofrp.optimize(cfg, step=0.1).users[0]
    assert (u.sample_occupied, u.retransmit_old, u.sample_empty) == \
        (0.0, 0.0, 0.5)


def test_policy_requires_matching_user_count():
    with pytest.raises(ValueError):
        run(ofrp.OfrpPolicy(ofrp.OfrpParams((LITERAL, LITERAL))), make_config())
