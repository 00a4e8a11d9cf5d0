"""Tests for the fresh-or-old policy: chain encoding, metrics, grid search."""

import dataclasses
import itertools
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aoisched import forp, ofrp
from aoisched.experiments import load_spec
from aoisched.model import (ActionVector, InfeasibleError, SystemConfig,
                            UserState, transition_table)
from aoisched.simulate import run
from chain_oracle import (DIRECT_SOLVE_MAX_STATES, assemble, build_chain,
                          direct_stationary, exact_cost, exact_metrics,
                          finalize, grid_points, layout, select,
                          solve_stationary)
from engine_oracle import step_users, traced_run


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
    states = transition_table(10).states
    assert len(states) == 46            # 10 empty + 36 cached
    assert states[:3] == ((False, 0, 1), (False, 0, 2), (False, 0, 3))
    assert states[10] == (True, 1, 3)
    assert states[-1] == (True, 8, 10)


def test_cached_states_keep_packet_strictly_useful():
    for occupied, wait, age in transition_table(12).states:
        UserState(age, wait, occupied).validate(12)
        if occupied:
            assert 1 <= wait <= 10          # at most cap-2
            assert age >= wait + 2          # strictly fresher than the age


def test_minimal_cap_state_spaces():
    assert transition_table(2).states == ((False, 0, 1), (False, 0, 2))
    assert transition_table(3).states == (
        (False, 0, 1), (False, 0, 2), (False, 0, 3), (True, 1, 3))


# ── transition structure ──────────────────────────────────────────────────

def test_literal_example_row():
    """One cached row spelled out: fresh success resets the age, a failed
    fresh sample re-enters at wait 1, a delivered old packet yields age
    wait+1, and everything else ages in place."""
    matrix = build_chain(LITERAL, 0.8, 10)
    idx = {s: i for i, s in enumerate(transition_table(10).states)}
    row = matrix[idx[(True, 1, 3)]]
    expected = {
        (False, 0, 1): 0.16,       # alpha*u*p
        (True, 1, 4): 0.04,        # alpha*u*(1-p)
        (False, 0, 2): 0.08,       # alpha*q*p
        (True, 2, 4): 0.72,        # remaining mass, packet and age both grow
    }
    for state, prob in expected.items():
        assert row[idx[state]] == pytest.approx(prob, abs=1e-12)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(row) == 4


def test_empty_row_reenters_via_cache():
    matrix = build_chain(LITERAL, 0.8, 10)
    idx = {s: i for i, s in enumerate(transition_table(10).states)}
    row = matrix[idx[(False, 0, 5)]]
    assert row[idx[(False, 0, 1)]] == pytest.approx(0.5 * 0.6 * 0.8)
    assert row[idx[(True, 1, 6)]] == pytest.approx(0.5 * 0.6 * 0.2)
    assert row[idx[(False, 0, 6)]] == pytest.approx(1 - 0.5 * 0.6)


unit = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(cap=st.integers(2, 12), alpha=unit, u=unit, q=unit, ue=unit, p=unit)
def test_chain_rows_match_the_reference_stepper(cap, alpha, u, q, ue, p):
    """Every row is the one-slot law of ``engine_oracle.step_users``: each
    action weighted by its probability, each channel outcome by p or 1 - p."""
    user = ofrp.OfrpUserParams(alpha, u, q * (1.0 - u), ue)
    matrix = build_chain(user, p, cap)
    states = transition_table(cap).states
    cfg = SystemConfig(num_users=1, success_prob=p, sample_cost=0.0,
                       transmit_cost=0.0, aoi_cap=cap, aoi_limit=cap,
                       horizon=1, seed=0)
    index = {s: i for i, s in enumerate(states)}
    sample = ActionVector((1,), (0,))
    resend = ActionVector((0,), (1,))
    idle = ActionVector.idle(1)
    for i, (occupied, wait, age) in enumerate(states):
        state = UserState(age, wait, occupied)
        if occupied:
            acts = ((sample, alpha * user.sample_occupied),
                    (resend, alpha * user.retransmit_old),
                    (idle, 1.0 - alpha * (user.sample_occupied
                                          + user.retransmit_old)))
        else:
            acts = ((sample, alpha * ue), (idle, 1.0 - alpha * ue))
        row = np.zeros(len(states))
        for action, weight in acts:
            for draw, chance in ((0.0, p), (1.0, 1.0 - p)):
                (nxt,), _ = step_users([state], action, [draw], cfg)
                to = index[(nxt.cache_occupied, nxt.waiting_time, nxt.aoi)]
                row[to] += weight * chance
        assert np.max(np.abs(row - matrix[i])) <= 1e-15


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
                m = build_chain(user, p, cap)
                assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-12
                assert np.min(m) >= 0.0


def test_build_chain_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_chain(LITERAL, 1.5, 10)
    with pytest.raises(ValueError):
        build_chain(LITERAL, 0.5, 1)


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
        marginal = ofrp.aoi_marginal(ofrp.stationary(user, p, 10), 10)
        reference = forp.stationary_closed_form(phi * p, 10)
        assert np.max(np.abs(marginal - reference)) < 1e-10


def test_perfect_channel_never_caches():
    user = ofrp.OfrpUserParams(1.0, 0.9, 0.1, 0.5)
    m = ofrp.metrics(user, 1.0, 10, 1.0, 5.0)
    assert m.empty_fraction == pytest.approx(1.0, abs=1e-12)
    assert m.avg_cost == pytest.approx(0.5 * 6.0, abs=1e-12)
    assert m.avg_aoi == pytest.approx(forp.avg_aoi_closed_form(0.5, 10), abs=1e-10)


def test_degenerate_parameters_are_refused():
    dead = ofrp.OfrpUserParams(1.0, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="degenerate"):
        ofrp.stationary(dead, 0.8, 10)
    with pytest.raises(ValueError, match="degenerate"):
        ofrp.stationary(LITERAL, 0.0, 10)


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
    pi, _ = solve_stationary(build_chain(user, 0.0, 10))   # dense oracle
    theta = sum(prob for prob, (occupied, _, _)
                in zip(pi, transition_table(10).states) if not occupied)
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
    _, pairs, _ = traced_run(ofrp.OfrpPolicy(ofrp.OfrpParams((user,))), cfg)
    pi = ofrp.stationary(user, 0.6, 10)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    table = transition_table(10)
    sim = np.bincount(table.next_state[pairs[0]], minlength=len(pi)) / cfg.horizon
    tv = 0.5 * np.abs(sim - pi).sum()
    assert tv < 0.02


def test_policy_action_split():
    user = ofrp.OfrpUserParams(1.0, 0.0, 1.0, 1.0)
    cfg = make_config(success_prob=0.3, horizon=20_000, seed=63)
    stats = run(ofrp.OfrpPolicy(ofrp.OfrpParams((user,))), cfg)
    # acts every slot: samples when empty, resends when holding a packet
    assert stats.sample_freq[0] + stats.retransmit_freq[0] == 1.0
    assert stats.retransmit_freq[0] > 0.3


class ScriptedDraws:
    """Stands in for the policy's generator: ``random(size)`` returns the
    next ``size`` values of ``draws``, cycled."""

    def __init__(self, draws):
        self.draws = itertools.cycle(draws)

    def random(self, size):
        return np.fromiter(self.draws, float, size)


def test_plan_matches_decide_through_the_last_user_clamp():
    """``plan`` gives every slot the action ``decide`` gives from the same
    draws, empty cache or occupied, for draws on each bound.  The alphas sum
    to 1 - 2**-53 in floats, so a scheduling draw of 1 - 2**-53 lies past
    every cumulative alpha and goes to the last user."""
    users = (ofrp.OfrpUserParams(0.3, 0.4, 0.3, 0.6),
             ofrp.OfrpUserParams(0.6, 0.2, 0.5, 0.9),
             ofrp.OfrpUserParams(0.1, 0.0, 1.0, 1.0))
    cum = list(itertools.accumulate(u.alpha for u in users))
    assert cum[-1] == 1 - 2**-53
    edges = [0.0, 1 - 2**-53]
    for x in (*cum, *(b for u in users for b in (
            u.sample_empty, u.sample_occupied,
            u.sample_occupied + u.retransmit_old))):
        edges += [x, np.nextafter(x, 0.0)]
    edges = sorted(e for e in set(edges) if 0.0 <= e < 1.0)
    rng = np.random.default_rng(4)
    draws = [d for pair in itertools.product(edges, edges) for d in pair]
    draws += rng.random(2 * 500).tolist()
    slots = len(draws) // 2
    cfg = make_config(num_users=3)
    planned = ofrp.OfrpPolicy(ofrp.OfrpParams(users))
    planned.reset(cfg, ScriptedDraws(draws))
    plan = planned.plan(slots)
    for cached in (False, True):
        asked = ofrp.OfrpPolicy(ofrp.OfrpParams(users))
        asked.reset(cfg, ScriptedDraws(draws))
        codes = np.zeros((3, slots), dtype=np.int8)
        for t in range(slots):
            sampler, resender = asked.decide(t, [1] * 3, [0] * 3,
                                             [cached] * 3, [0.0] * 3)
            if sampler is not None:
                codes[sampler, t] = 1
            if resender is not None:
                codes[resender, t] = 2
        assert np.array_equal(plan[cached], codes)
    # the last user samples whenever empty and resends whenever occupied
    last = np.array(draws[::2]) >= cum[-1]
    assert last.sum() > 1
    assert (plan[0][2, last] == 1).all() and (plan[1][2, last] == 2).all()


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


def test_reference_instance_needs_no_dense_resolve(caplog, monkeypatch):
    """The pick is the table's own, with no LAPACK solve, and a table built
    afresh logs its size (this reuses the table the test above built)."""
    def no_dense_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called by the grid search")

    monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
    caplog.set_level(logging.DEBUG, logger="aoisched.ofrp")
    ofrp.optimize(make_config(), step=0.01)
    ofrp.grid_table.cache_clear()
    ofrp.optimize(make_config(aoi_cap=5, aoi_limit=2.5), step=0.1)
    assert any(re.fullmatch(r"grid_table cap=5: boundary recursion over 660 "
                            r"points, \d+\.\d{3} s", m)
               for m in caplog.messages)


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


def test_users_with_one_channel_and_limit_share_a_scan(monkeypatch):
    scans = []
    scan_user = ofrp._scan_user
    monkeypatch.setattr(ofrp, "_scan_user",
                        lambda *args: scans.append(args) or scan_user(*args))
    cfg = make_config(num_users=3, success_prob=(0.8, 0.8, 0.6),
                      aoi_cap=6, aoi_limit=(4.0, 4.0, 5.0))
    users = ofrp.optimize(cfg, step=0.1).users
    assert [args[-1] for args in scans] == [0, 2]
    for i, user in enumerate(users):
        alone = make_config(num_users=3, success_prob=cfg.success_prob[i],
                            aoi_cap=6, aoi_limit=cfg.aoi_limit[i])
        assert user == ofrp.optimize(alone, step=0.1).users[0]
    # the error still names the first user that cannot meet its limit
    for probs, first in (((0.0, 0.0), 0), ((0.8, 0.0), 1)):
        cfg = make_config(num_users=2, success_prob=probs, aoi_limit=5.0)
        with pytest.raises(InfeasibleError) as err:
            ofrp.optimize(cfg, step=0.1)
        assert err.value.user == first


@pytest.mark.parametrize("module", [ofrp, forp], ids=["ofrp", "forp"])
def test_both_searches_log_each_reused_pick(module, caplog):
    """Both optimizers run through ``ofrp._per_user``, which says at DEBUG
    which earlier user's pick each repeated (success_prob, aoi_limit) took."""
    cfg = make_config(num_users=4, success_prob=(0.8, 0.9, 0.8, 0.8),
                      aoi_cap=6, aoi_limit=4.0)
    caplog.set_level(logging.DEBUG, logger="aoisched.ofrp")
    users = module.optimize(cfg, step=0.1).users
    assert [m for m in caplog.messages if "reuses" in m] == [
        "user 2: reuses user 0's pick", "user 3: reuses user 0's pick"]
    assert users[0] == users[2] == users[3] != users[1]


@pytest.mark.parametrize("step", [1.0, 0.5, 0.1, 0.05, 0.02])
def test_grid_points_follow_the_scan_order(step):
    """The oracle's whole grid, and ``_grid_block`` over it whole and over
    blocks cut anywhere, list the points in scan order."""
    n = round(1 / step)
    expected = np.array([(iu / n, iq / n, iue / n) for iu in range(n + 1)
                         for iq in range(n + 1 - iu) for iue in range(1, n + 1)])
    assert np.array_equal(np.column_stack(grid_points(step)), expected)
    cuts = [0, 1, n, n + 1, len(expected) // 3, len(expected)]
    for lo, hi in zip(cuts, cuts[1:]):
        assert np.array_equal(np.column_stack(ofrp._grid_block(n, lo, hi)),
                              expected[lo:hi])


def test_too_fine_a_grid_is_refused_before_allocation():
    """Step 0.001 would give 501,501,000 grid points (4 GB per array)."""
    assert ofrp.search_intervals(1 / ofrp.MAX_GRID_INTERVALS) == 200
    with pytest.raises(ValueError, match="501,501,000 grid points"):
        ofrp.grid_table(0.5, 0.8, 10, 0.001)
    with pytest.raises(ValueError, match="501,501,000 grid points"):
        ofrp.optimize(make_config(aoi_limit=10.0), step=0.001)


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


def test_grid_table_is_shared_across_limits_and_costs():
    """One chain solved once serves every limit and price pair; each answer
    is the cheapest feasible point of a brute-force scalar scan."""
    ofrp.grid_table.cache_clear()
    grid = [i / 10 for i in range(11)]
    points = [(u, q, ue) for u in grid for q in grid if u + q <= 1.0 + 1e-12
              for ue in grid]
    for sample_cost, transmit_cost in ((1.0, 5.0), (3.0, 1.0)):
        scored = [ofrp.metrics(ofrp.OfrpUserParams(1.0, *pt), 0.9, 5,
                               sample_cost, transmit_cost) for pt in points]
        for limit in (2.0, 2.5, 4.0):
            cfg = make_config(success_prob=0.9, aoi_cap=5, aoi_limit=limit,
                              sample_cost=sample_cost,
                              transmit_cost=transmit_cost)
            params = ofrp.optimize(cfg, step=0.1)
            best = min(b.avg_cost for b in scored if b.avg_aoi <= limit)
            m = ofrp.metrics(params.users[0], 0.9, 5, sample_cost,
                             transmit_cost)
            assert m.avg_aoi <= limit
            assert m.avg_cost == pytest.approx(best, abs=1e-9)
    info = ofrp.grid_table.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    for table in ofrp.grid_table(1.0, 0.9, 5, 0.1):
        with pytest.raises(ValueError):
            table[0] = 0.0


# ── grid table and selection ──────────────────────────────────────────────

# Doubles per (chunk, s, s) stack of the dense oracle (64 MB).
DENSE_BUDGET = 8_000_000


def dense_rows(coeff, cap):
    """The oracle: each chain of a coefficient block solved densely, in
    stacks of at most ``DENSE_BUDGET`` doubles."""
    chunk = max(1, DENSE_BUDGET // len(transition_table(cap).states) ** 2)
    return np.concatenate([
        finalize(direct_stationary(assemble(
            tuple(c[lo:lo + chunk] for c in coeff), cap)))
        for lo in range(0, len(coeff[0]), chunk)])


def dense_table(alpha, p, cap, step):
    """Every grid point's chain solved densely: (avg_aoi, empty_fraction)."""
    u, q, ue = grid_points(step)
    _, aoi_vec, empty_vec, _ = layout(cap)
    pi = dense_rows(ofrp._coefficients(alpha, u, q, ue, p), cap)
    return pi @ aoi_vec, pi @ empty_vec


def reference_pick(alpha, p, cap, step, limit, prices, dense):
    """(index, avg_aoi, cost): the first least-cost grid point meeting the
    limit by reference values (index None if none does), and those values.

    The references are the dense values, except at caps 2-6: there every
    point that the dense values put within 1e-9 of the limit, or of the
    best surely feasible cost, is solved in exact arithmetic on the double
    inputs, so ties and limit boundaries are settled exactly."""
    u, q, ue = grid_points(step)
    aoi = list(dense[0])
    cost = list(ofrp._cost_rate(alpha, u, q, ue, dense[1], *prices))
    if cap <= 6:
        dense_cost = np.array(cost)
        sure = dense[0] < limit - 1e-9
        best = dense_cost[sure].min() if sure.any() else np.inf
        unsettled = np.abs(dense[0] - limit) <= 1e-9
        if any(prices):      # at zero prices every cost is exactly 0
            unsettled |= (dense[0] <= limit) & (dense_cost <= best + 1e-9)
        for i in np.flatnonzero(unsettled):
            aoi[i], theta = exact_metrics(alpha, u[i], q[i], ue[i], p, cap)
            cost[i] = exact_cost(alpha, u[i], q[i], ue[i], theta, *prices)
    feasible = [i for i, a in enumerate(aoi) if a <= limit]
    at = min(feasible, key=lambda i: (cost[i], i), default=None)
    return at, aoi, cost


def assert_reference_pick(at, table, reference, limit):
    """``_select``'s pick ``at`` is the reference pick, or differs from it
    only where rounding decides: the table puts one of the two on the other
    side of the limit, within 1e-12 of it, or prices them within 1e-11 of
    each other.  (An exact tie whose table costs differ in the last bit goes
    to the cheaper double: at cap 3 the empty fraction does not depend on
    retransmit_old, so at transmit_cost 0 and sample_occupied 0 the costs
    tie exactly.)"""
    expected, aoi, cost = reference
    if at == expected:
        return
    near = lambda i: abs(aoi[i] - limit) <= 1e-12     # noqa: E731
    if at is None:
        assert table[0][expected] > limit and near(expected)
    elif expected is None or aoi[at] > limit:
        assert near(at)
    elif table[0][expected] > limit:
        assert near(expected)
    else:
        assert cost[at] - cost[expected] <= 1e-11


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.0, 1.0, exclude_min=True),
       p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       cap=st.integers(2, 30),
       step=st.sampled_from([0.5, 0.25, 0.2, 0.1]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(alpha=1.0, p=0.8, cap=2, step=0.1, seed=0)      # no cached states
@example(alpha=0.5, p=0.3, cap=3, step=0.1, seed=1)      # no state off S
@example(alpha=0.5, p=0.8, cap=30, step=0.25, seed=2)
@example(alpha=1.0, p=0.0, cap=7, step=0.25, seed=3)     # (1, cap) absorbing
@example(alpha=1.0, p=5e-324, cap=12, step=0.25, seed=6)  # all but absorbing
@example(alpha=0.5, p=1e-12, cap=10, step=0.2, seed=4)
@example(alpha=1e-3, p=0.8, cap=12, step=0.2, seed=5)
def test_grid_table_matches_dense_oracle(alpha, p, cap, step, seed):
    assume(cap <= 12 or step >= 0.2)    # the dense oracle grows as cap**6
    table = ofrp.grid_table(alpha, p, cap, step)
    dense = dense_table(alpha, p, cap, step)
    for c, d in zip(table, dense):
        assert np.max(np.abs(c - d)) <= 1e-12
    # a limit on a dense entry puts that point on the feasibility boundary
    rng = np.random.default_rng(seed)
    limit = float(dense[0][rng.integers(len(dense[0]))])
    for prices in ((1.0, 5.0), (0.0, 0.0), (3.0, 1.0)):
        at = ofrp._select(table, step, alpha, limit, *prices)
        assert_reference_pick(at, table, reference_pick(
            alpha, p, cap, step, limit, prices, dense), limit)


def test_exact_oracle_settles_a_limit_the_dense_solve_rounds_onto():
    """alpha 1, p 0.8, cap 2, step 0.1: at ue = 0.2 the dense age is
    1.8399999999999999, but in exact arithmetic on the double inputs it is
    1.83999999999999998224..., above that double, so at that limit the
    point is infeasible.  The table's 1.8400000000000003 says so, and the
    pick is the next sample_empty, 0.3."""
    alpha, p, cap, step, limit = 1.0, 0.8, 2, 0.1, 1.8399999999999999
    points = grid_points(step)
    assert [float(v[1]) for v in points] == [0.0, 0.0, 0.2]
    assert dense_table(alpha, p, cap, step)[0][1] == limit
    assert exact_metrics(alpha, 0.0, 0.0, 0.2, p, cap)[0] > limit
    table = ofrp.grid_table(alpha, p, cap, step)
    assert table[0][1] > limit
    at = ofrp._select(table, step, alpha, limit, 1.0, 5.0)
    assert at == 2
    assert at == reference_pick(alpha, p, cap, step, limit, (1.0, 5.0),
                                dense_table(alpha, p, cap, step))[0]


@pytest.mark.parametrize("case", [
    # zero prices: every feasible point costs 0, the first one wins
    dict(p=0.9, cap=5, limit=2.5, prices=(0.0, 0.0), step=0.1),
    # p = 1: the cache is never used, so every (u, q) pair ties
    dict(p=1.0, cap=10, limit=4.0, prices=(1.0, 5.0), step=0.1),
    dict(p=1.0, cap=6, limit=3.0, prices=(0.0, 0.0), step=0.1),
])
def test_optimize_picks_the_dense_argmin(case):
    alpha, (sample_cost, transmit_cost) = 1.0, case["prices"]
    dense = dense_table(alpha, case["p"], case["cap"], case["step"])
    expected = reference_pick(alpha, case["p"], case["cap"], case["step"],
                              case["limit"], case["prices"], dense)[0]
    cfg = make_config(success_prob=case["p"], aoi_cap=case["cap"],
                      aoi_limit=case["limit"], sample_cost=sample_cost,
                      transmit_cost=transmit_cost)
    user = ofrp.optimize(cfg, step=case["step"]).users[0]
    u, q, ue = grid_points(case["step"])
    assert (user.sample_occupied, user.retransmit_old, user.sample_empty) == \
        (u[expected], q[expected], ue[expected])


def test_limit_on_a_dense_entry_takes_the_exact_pick():
    """The winner's own age, exact and rounded to a double, as the limit
    (a dense solve's would move with the BLAS kernel): the table's value
    may sit an ulp either side of it, the exact oracle settles the side,
    and both ``_select`` and ``optimize`` make the exact pick."""
    alpha, p, cap, step, prices = 1.0, 0.8, 6, 0.1, (1.0, 5.0)
    dense = dense_table(alpha, p, cap, step)
    winner = reference_pick(alpha, p, cap, step, 4.0, prices, dense)[0]
    points = grid_points(step)
    limit = float(exact_metrics(alpha, *(v[winner] for v in points), p, cap)[0])
    expected = reference_pick(alpha, p, cap, step, limit, prices, dense)[0]
    table = ofrp.grid_table(alpha, p, cap, step)
    assert ofrp._select(table, step, alpha, limit, *prices) == expected
    cfg = make_config(success_prob=p, aoi_cap=cap, aoi_limit=limit)
    user = ofrp.optimize(cfg, step=step).users[0]
    assert (user.sample_occupied, user.retransmit_old, user.sample_empty) == \
        tuple(v[expected] for v in points)


def test_table_drift_is_caught_at_the_pick(monkeypatch):
    """A table age off by more than TAU at the pick raises instead of
    silently moving the feasibility boundary."""
    avg_aoi, theta = ofrp.grid_table(1.0, 0.9, 5, 0.1)
    monkeypatch.setattr(ofrp, "grid_table",
                        lambda *args: (avg_aoi + 1e-6, theta))
    cfg = make_config(success_prob=0.9, aoi_cap=5, aoi_limit=2.5)
    with pytest.raises(RuntimeError, match="inconsistency"):
        ofrp.optimize(cfg, step=0.1)


def test_a_full_tie_takes_the_smallest_triple():
    """At p = 1 the cache is never used, so at each sample_empty all 231
    (u, q) pairs of a cap-10, step-0.05 grid tie: the table's empty fraction
    is exactly 1, their costs are equal doubles, and the pick is the first,
    (0, 0, sample_empty)."""
    alpha, step = 0.5, 0.05
    table = ofrp.grid_table(alpha, 1.0, 10, step)
    assert np.all(table[1] == 1.0)
    points = grid_points(step)
    at = ofrp._select(table, step, alpha, 5.0, 1.0, 5.0)
    assert np.count_nonzero(points[2] == points[2][at]) == 231
    assert (points[0][at], points[1][at]) == (0.0, 0.0)


def test_p1_tie_resolves_to_the_smallest_triple():
    """The scan keeps the first of the tied (u, q) pairs at success_prob 1;
    a dense re-solve's rounding used to pick (0, 0.3, 0.4) here."""
    assert ofrp._scan_user(1.0, 1.0, 6, 2.5, 1.0, 5.0, 0.05, 0) == \
        ofrp.OfrpUserParams(1.0, 0.0, 0.0, 0.4)


def test_grid_table_works_in_bounded_blocks():
    """A step-0.01 table's traced peak stays near its own 8 MB of output:
    the recursion runs on blocks of points in one reused work buffer, and
    the points come from index arithmetic, not whole-grid arrays (the whole
    grid at once peaks at about 358 MB, the whole-grid points at 33 MB)."""
    ofrp.grid_table.cache_clear()
    tracemalloc.start()
    try:
        ofrp.grid_table(0.5, 0.8, 10, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


def test_optimize_at_the_preset_step_stays_small():
    """A whole step-0.01 ``optimize`` from an empty table cache, two users
    on two channels and so two tables (16 MB), prices and masks the tables
    block by block: its traced peak stays below 20 MB (pricing each whole
    table at once peaks at about 44 MB)."""
    cfg = dataclasses.replace(load_spec("fig5a").base, success_prob=(0.8, 0.6))
    ofrp.grid_table.cache_clear()
    tracemalloc.start()
    try:
        ofrp.optimize(cfg, step=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2 ** 20


@pytest.mark.parametrize("cap, step", [(3, 0.1), (10, 0.05), (20, 0.05),
                                       (30, 0.1)])
def test_grid_table_bits_do_not_depend_on_the_block_size(monkeypatch, cap, step):
    """Blocks of 1, 7 and 8 points give the same table, bit for bit, as the
    default blocks: each entry is computed by elementwise operations in a
    fixed order.  A numpy reduction over a block would fail the one-point
    blocks, whose single column numpy sums pairwise."""
    table = ofrp.grid_table.__wrapped__(0.5, 0.37, cap, step)
    for points in (1, 7, 8):
        monkeypatch.setattr(ofrp, "_BLOCK_BUDGET", points * cap)
        for default, small in zip(table, ofrp.grid_table.__wrapped__(
                0.5, 0.37, cap, step)):
            assert np.array_equal(default, small)


@settings(max_examples=60, deadline=None)
@given(alpha=st.sampled_from([1.0, 0.5, 1 / 3]),
       p=st.one_of(st.sampled_from([0.0, 1.0, 0.8]), st.floats(0.0, 1.0)),
       cap=st.integers(2, 10),
       step=st.sampled_from([0.5, 0.25, 0.2, 0.1]),
       at=st.integers(0, 10 ** 6),
       prices=st.sampled_from([(1.0, 5.0), (0.0, 0.0), (1.0, 0.0), (3.0, 1.0)]),
       block=st.integers(1, 40))
@example(alpha=1.0, p=1.0, cap=10, step=0.1, at=0, prices=(1.0, 5.0), block=7)
@example(alpha=0.5, p=0.8, cap=6, step=0.1, at=5, prices=(0.0, 0.0), block=3)
def test_blockwise_pick_matches_the_whole_table_oracle(alpha, p, cap, step, at,
                                                        prices, block):
    """``_select`` priced a few points at a time against the oracle's
    masked argmin over the whole table, with the limit on a table entry:
    blocks this small put picks and exact ties (zero prices, success_prob
    1) across block boundaries."""
    table = ofrp.grid_table(alpha, p, cap, step)
    limit = float(table[0][at % len(table[0])])
    expected = select(table, grid_points(step), alpha, limit, *prices)
    with mock.patch.object(ofrp, "_PICK_BLOCK", block):
        assert ofrp._select(table, step, alpha, limit, *prices) == expected


def test_last_bit_tie_keeps_its_pick():
    """At cap 3 the empty fraction does not depend on retransmit_old, so
    (0, 0, 1) and (0, 0.5, 1) cost the same in exact arithmetic, but the
    table's empty fractions differ by one ulp and the pick is the cheaper
    double, (0, 0.5, 1), as the whole-table oracle picks."""
    alpha = 0.4025746085300167
    assert ofrp._scan_user(alpha, 0.8, 3, 2.5268608977872384, 1.0, 0.0, 0.5,
                           0) == ofrp.OfrpUserParams(alpha, 0.0, 0.5, 1.0)


# ── the boundary recursion's full stationary vector ───────────────────────

@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.0, 1.0, exclude_min=True),
       p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       cap=st.integers(2, 30),
       step=st.sampled_from([0.5, 0.25, 0.2, 0.1]))
@example(alpha=1.0, p=0.8, cap=2, step=0.1)       # no cached states
@example(alpha=0.5, p=0.3, cap=3, step=0.1)       # no state off S
@example(alpha=0.5, p=0.8, cap=30, step=0.25)
@example(alpha=1.0, p=0.0, cap=7, step=0.25)      # (1, cap) absorbing
@example(alpha=1.0, p=5e-324, cap=12, step=0.25)  # all but absorbing
@example(alpha=0.5, p=1e-12, cap=10, step=0.2)
@example(alpha=1e-3, p=0.8, cap=12, step=0.2)
def test_expanded_stationary_matches_dense_oracle(alpha, p, cap, step):
    """Per state, within 1e-12 of the dense solve at every grid point."""
    assume(cap <= 12 or step >= 0.2)    # the dense oracle grows as cap**6
    u, q, ue = grid_points(step)
    coeff = ofrp._coefficients(alpha, u, q, ue, p)
    expanded = ofrp._expanded_stationary(coeff, cap)
    assert expanded.shape == (len(u), len(transition_table(cap).states))
    assert np.max(np.abs(expanded - dense_rows(coeff, cap))) <= 1e-12


@pytest.mark.parametrize("cap", [2, 3, 31, 72, 200])
@pytest.mark.parametrize("p", [0.0, 1e-12, 0.37, 0.9, 1.0])
def test_expanded_stationary_balances_the_sparse_chain(cap, p):
    """max |pi P - pi| below 1e-12 with P applied arc by arc from
    ``layout``, no dense matrix, past the dense oracle's limit.  The last
    point keeps its copy with r = 0.01: at p = 0 and cap 200 y_cap's factor
    r**198 underflows, and the mass sits on the walk from (1, cap)."""
    u, q, ue = (np.append(v, last) for v, last in zip(
        grid_points(0.25), (0.99, 0.0, 0.5)))
    coeff = ofrp._coefficients(np.append(np.full(len(u) - 1, 0.7), 1.0),
                               u, q, ue, p)
    pi = ofrp._expanded_stationary(coeff, cap)
    moved = np.zeros_like(pi)
    for weight, (rows, cols) in zip(np.column_stack(coeff).T, layout(cap)[3]):
        np.add.at(moved, (slice(None), cols), pi[:, rows] * weight[:, None])
    assert np.max(np.abs(moved - pi)) < 1e-12
    assert np.all(pi >= 0.0)
    assert np.max(np.abs(pi.sum(axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("cap", [10, 30, 64])
def test_a_chain_has_the_same_vector_in_a_block_as_alone(cap):
    """Each row of a 2-chain block has the bits of that chain solved alone,
    which is what ``stationary`` and so ``metrics`` solve."""
    coeff = ofrp._coefficients(np.array([0.7, 1.0]), np.array([0.3, 0.05]),
                               np.array([0.5, 0.9]), np.array([0.9, 0.2]), 0.8)
    block = ofrp._expanded_stationary(coeff, cap)
    for i, row in enumerate(block):
        alone = ofrp._expanded_stationary(tuple(c[i:i + 1] for c in coeff), cap)
        assert row.tobytes() == alone[0].tobytes()


def test_metrics_agree_across_the_dense_limit():
    """``metrics``, read off the expansion at every cap, against the dense
    oracle's stationary vector."""
    cases = [(LITERAL, 0.8), (LITERAL, 0.0),
             (ofrp.OfrpUserParams(1.0, 0.3, 0.5, 0.9), 0.35),
             (ofrp.OfrpUserParams(1.0, 1.0, 0.0, 1.0), 1.0)]
    _, aoi_vec, empty_vec, _ = layout(10)
    for user, p in cases:
        pi, _ = solve_stationary(build_chain(user, p, 10))
        theta = pi @ empty_vec
        m = ofrp.metrics.__wrapped__(user, p, 10, 1.0, 5.0)
        assert m.avg_aoi == pytest.approx(10.0 if p == 0.0 else pi @ aoi_vec,
                                          abs=1e-12)
        assert m.empty_fraction == pytest.approx(theta, abs=1e-12)
        assert m.avg_cost == pytest.approx(ofrp._cost_rate(
            user.alpha, user.sample_occupied, user.retransmit_old,
            user.sample_empty, theta, 1.0, 5.0), abs=1e-12)


def test_optimize_above_the_dense_limit_stays_small(monkeypatch):
    """fig5a at cap 150 (11,176 states, about 1 GB per dense matrix): the
    pick comes from the table, its confirmation from the expansion, with
    no dense solve and a traced peak below 100 MB."""
    cfg = dataclasses.replace(load_spec("fig5a").base, aoi_cap=150)
    assert 150 + 149 * 148 // 2 > DIRECT_SOLVE_MAX_STATES

    def no_dense_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called above the dense limit")

    monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
    for cached in (transition_table, ofrp.grid_table, ofrp.metrics):
        cached.cache_clear()
    tracemalloc.start()
    try:
        params = ofrp.optimize(cfg, step=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
    for user, limit in zip(params.users, cfg.aoi_limit):
        m = ofrp.metrics(user, cfg.success_prob[0], 150, cfg.sample_cost,
                         cfg.transmit_cost)
        assert m.avg_aoi <= limit


def test_no_dense_solve_remains(monkeypatch):
    """Every chain goes through the boundary recursion: with LAPACK's solve
    made to raise, ``optimize`` and ``metrics`` still run at caps 10 and
    30, and importing the package loads no dense solver."""
    def no_dense_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
    ofrp.grid_table.cache_clear()
    for cap in (10, 30):
        cfg = make_config(num_users=2, success_prob=(0.8, 0.6), aoi_cap=cap)
        params = ofrp.optimize(cfg, step=0.1)
        for user, p in zip(params.users, cfg.success_prob):
            m = ofrp.metrics.__wrapped__(user, p, cap, 1.0, 5.0)
            assert m.avg_aoi <= cfg.aoi_limit[0]
    src = str(Path(ofrp.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, aoisched; "
         "print('aoisched.markov' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_policy_requires_matching_user_count():
    with pytest.raises(ValueError):
        run(ofrp.OfrpPolicy(ofrp.OfrpParams((LITERAL, LITERAL))), make_config())
