"""Tests for the fresh-or-old policy: chain encoding, metrics, grid search."""

import dataclasses
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aoisched import forp, ofrp
from aoisched.markov import direct_stationary, finalize, solve_stationary
from aoisched.model import (ActionVector, InfeasibleError, SystemConfig,
                            UserState, step_users, transition_table)
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
    chain = ofrp.build_chain(LITERAL, 0.8, 10)
    idx = {s: i for i, s in enumerate(chain.states)}
    row = chain.matrix[idx[(True, 1, 3)]]
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
    chain = ofrp.build_chain(LITERAL, 0.8, 10)
    idx = {s: i for i, s in enumerate(chain.states)}
    row = chain.matrix[idx[(False, 0, 5)]]
    assert row[idx[(False, 0, 1)]] == pytest.approx(0.5 * 0.6 * 0.8)
    assert row[idx[(True, 1, 6)]] == pytest.approx(0.5 * 0.6 * 0.2)
    assert row[idx[(False, 0, 6)]] == pytest.approx(1 - 0.5 * 0.6)


unit = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(cap=st.integers(2, 12), alpha=unit, u=unit, q=unit, ue=unit, p=unit)
def test_chain_rows_match_the_reference_stepper(cap, alpha, u, q, ue, p):
    """Every row is the one-slot law of ``model.step_users``: each action
    weighted by its probability, each channel outcome by p or 1 - p."""
    user = ofrp.OfrpUserParams(alpha, u, q * (1.0 - u), ue)
    chain = ofrp.build_chain(user, p, cap)
    cfg = SystemConfig(num_users=1, success_prob=p, sample_cost=0.0,
                       transmit_cost=0.0, aoi_cap=cap, aoi_limit=cap,
                       horizon=1, seed=0)
    index = {s: i for i, s in enumerate(chain.states)}
    sample = ActionVector((1,), (0,))
    resend = ActionVector((0,), (1,))
    idle = ActionVector.idle(1)
    for i, (occupied, wait, age) in enumerate(chain.states):
        state = UserState(age, wait, occupied)
        if occupied:
            acts = ((sample, alpha * user.sample_occupied),
                    (resend, alpha * user.retransmit_old),
                    (idle, 1.0 - alpha * (user.sample_occupied
                                          + user.retransmit_old)))
        else:
            acts = ((sample, alpha * ue), (idle, 1.0 - alpha * ue))
        row = np.zeros(len(chain.states))
        for action, weight in acts:
            for draw, chance in ((0.0, p), (1.0, 1.0 - p)):
                (nxt,), _ = step_users([state], action, [draw], cfg)
                to = index[(nxt.cache_occupied, nxt.waiting_time, nxt.aoi)]
                row[to] += weight * chance
        assert np.max(np.abs(row - chain.matrix[i])) <= 1e-15


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
    theta = sum(prob for prob, (occupied, _, _) in zip(pi, chain.states)
                if not occupied)
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
    sim = {s: count / cfg.horizon for s, count in stats.state_freq[0].items()}
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


def test_reference_instance_needs_no_dense_resolve(caplog):
    """No point of the reference table is near its limit or its best cost,
    so the table's pick stands alone; a certification rule that re-solved
    far more would show here (this reuses the table the test above built)."""
    caplog.set_level(logging.DEBUG, logger="aoisched.ofrp")
    ofrp.optimize(make_config(), step=0.01)
    assert "user 0: 0 grid points re-solved densely" in caplog.messages
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


# ── grid table and certified selection ────────────────────────────────────

def dense_table(alpha, p, cap, step):
    """The oracle: every grid point's full chain solved densely, in
    consecutive batches, the whole-grid table ``_dense_points`` reproduces."""
    u, q, ue = ofrp._grid_points(step)
    states, aoi_vec, empty_vec, _ = ofrp._layout(cap)
    chunk = max(1, min(4096, ofrp._BATCH_BUDGET // len(states) ** 2))
    avg_aoi, theta = np.empty(len(u)), np.empty(len(u))
    for lo in range(0, len(u), chunk):
        at = slice(lo, lo + chunk)
        coeff = ofrp._coefficients(alpha, u[at], q[at], ue[at], p)
        pi = finalize(direct_stationary(ofrp._assemble(coeff, cap)))
        avg_aoi[at] = pi @ aoi_vec
        theta[at] = pi @ empty_vec
    return avg_aoi, theta


def dense_pick(table, alpha, cap, limit, sample_cost, transmit_cost, step):
    """First least-cost feasible index of a whole table, or None."""
    u, q, ue = ofrp._grid_points(step)
    avg_aoi, theta = table
    cost = ofrp._cost_rate(alpha, u, q, ue, theta, sample_cost, transmit_cost)
    cost = np.where(avg_aoi <= limit, cost, np.inf)
    at = int(np.argmin(cost))
    return at if cost[at] < np.inf else None


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
    # a limit on a dense entry puts that point on the feasibility band
    rng = np.random.default_rng(seed)
    limit = float(dense[0][rng.integers(len(dense[0]))])
    for prices in ((1.0, 5.0), (0.0, 0.0), (3.0, 1.0)):
        at, resolved = ofrp._select(table, alpha, p, cap, limit, *prices,
                                    step)
        assert at == dense_pick(dense, alpha, cap, limit, *prices, step)
        for re_solved, full in zip(
                ofrp._dense_points(alpha, p, cap, step, resolved), dense):
            assert np.array_equal(re_solved, full[resolved])
    # the dense re-solve keeps the table's bits at any index set
    some = np.flatnonzero(rng.random(len(dense[0])) < 0.3)
    for re_solved, full in zip(
            ofrp._dense_points(alpha, p, cap, step, some), dense):
        assert np.array_equal(re_solved, full[some])


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
    expected = dense_pick(dense, alpha, case["cap"], case["limit"],
                          sample_cost, transmit_cost, case["step"])
    cfg = make_config(success_prob=case["p"], aoi_cap=case["cap"],
                      aoi_limit=case["limit"], sample_cost=sample_cost,
                      transmit_cost=transmit_cost)
    user = ofrp.optimize(cfg, step=case["step"]).users[0]
    u, q, ue = ofrp._grid_points(case["step"])
    assert (user.sample_occupied, user.retransmit_old, user.sample_empty) == \
        (u[expected], q[expected], ue[expected])


def test_limit_on_a_dense_entry_is_resolved_densely():
    """The dense winner's own age as the limit: the table's value may sit
    an ulp either side of it, so the point must be re-solved, and the pick
    must stay the dense one."""
    alpha, p, cap, step = 1.0, 0.8, 8, 0.1
    dense = dense_table(alpha, p, cap, step)
    winner = dense_pick(dense, alpha, cap, 4.0, 1.0, 5.0, step)
    limit = float(dense[0][winner])
    at, resolved = ofrp._select(ofrp.grid_table(alpha, p, cap, step), alpha,
                                p, cap, limit, 1.0, 5.0, step)
    assert winner in resolved
    assert at == winner == dense_pick(dense, alpha, cap, limit, 1.0, 5.0, step)
    cfg = make_config(success_prob=p, aoi_cap=cap, aoi_limit=limit)
    user = ofrp.optimize(cfg, step=step).users[0]
    u, q, ue = ofrp._grid_points(step)
    assert (user.sample_occupied, user.retransmit_old, user.sample_empty) == \
        (u[winner], q[winner], ue[winner])


def test_table_drift_is_caught_at_the_pick(monkeypatch):
    """A table age off by more than TAU at the pick raises instead of
    silently moving the feasibility boundary."""
    avg_aoi, theta = ofrp.grid_table(1.0, 0.9, 5, 0.1)
    monkeypatch.setattr(ofrp, "grid_table",
                        lambda *args: (avg_aoi + 1e-6, theta))
    cfg = make_config(success_prob=0.9, aoi_cap=5, aoi_limit=2.5)
    with pytest.raises(RuntimeError, match="inconsistency"):
        ofrp.optimize(cfg, step=0.1)


def test_grid_table_works_in_bounded_blocks():
    """A step-0.01 table's traced peak stays near its own 8 MB of output and
    the grid's points: the recursion runs on blocks of points, not the
    whole grid at once (which peaks at about 358 MB)."""
    ofrp.grid_table.cache_clear()
    tracemalloc.start()
    try:
        ofrp.grid_table(0.5, 0.8, 10, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20


def test_policy_requires_matching_user_count():
    with pytest.raises(ValueError):
        run(ofrp.OfrpPolicy(ofrp.OfrpParams((LITERAL, LITERAL))), make_config())
