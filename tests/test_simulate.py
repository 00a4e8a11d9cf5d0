"""Tests for the slot-level simulation engine."""

import hashlib
import inspect
import linecache
import logging
import math
import re
import traceback
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisched import dpp, ofrp, simulate
from aoisched.model import ActionVector, SystemConfig, transition_table
from aoisched.simulate import Policy, run, run_replicas, summarize
from engine_oracle import (AlwaysSamplePolicy, IdlePolicy, channel_uniforms,
                           initial_states, policy_rng, step_users, traced_run)


def make_config(**overrides):
    base = dict(num_users=2, success_prob=0.8, sample_cost=1.0,
                transmit_cost=5.0, aoi_cap=10, aoi_limit=5.0, horizon=2000,
                seed=31)
    base.update(overrides)
    return SystemConfig(**base)


class ScriptedPolicy(Policy):
    """Replays a fixed list of (sampler, resender) pairs, then idles."""

    name = "scripted"

    def __init__(self, script):
        self.script = list(script)

    def decide(self, t, aoi, waiting, occupied, vqueue):
        return self.script[t] if t < len(self.script) else (None, None)


# ── exact behaviour on degenerate channels ────────────────────────────────

def test_always_sample_on_perfect_channel():
    cfg = make_config(num_users=1, success_prob=1.0, horizon=500)
    stats = run(AlwaysSamplePolicy(0), cfg)
    assert stats.avg_aoi == (1.0,)
    assert stats.avg_cost == 6.0
    assert stats.deliveries == (500,)
    assert (stats.sample_freq, stats.retransmit_freq) == ((1.0,), (0.0,))
    assert stats.empty_fraction == (1.0,)
    assert stats.aoi_histogram[0] == (500,) + (0,) * 9


def test_idle_policy_drifts_to_cap():
    cfg = make_config(num_users=1, aoi_cap=6, horizon=100)
    stats = run(IdlePolicy(), cfg)
    assert stats.avg_cost == 0.0
    assert stats.deliveries == (0,)
    # ages run 2,3,4,5,6,6,...: every slot beyond the fourth sits at the cap
    assert stats.aoi_histogram[0] == (0, 1, 1, 1, 1, 96)
    assert stats.avg_aoi[0] == pytest.approx((2 + 3 + 4 + 5 + 6 * 96) / 100)


def test_sampling_on_dead_channel_fills_cache():
    cfg = make_config(num_users=1, success_prob=0.0, horizon=50, aoi_cap=10)
    stats = run(AlwaysSamplePolicy(0), cfg)
    assert stats.deliveries == (0,)
    assert stats.avg_cost == 6.0
    # the first sample is discarded (cannot beat age 2); all later ones stick
    assert stats.empty_fraction == (2 / 50,)


# ── determinism and seeding ───────────────────────────────────────────────

def test_runs_are_bit_identical():
    cfg = make_config(horizon=3000)
    a = run(dpp.DppPolicy(), cfg)
    b = run(dpp.DppPolicy(), cfg)
    assert a == b


def test_replicas_differ_but_are_reproducible():
    cfg = make_config(horizon=3000)
    a0 = run(dpp.DppPolicy(), cfg, replica=0)
    a1 = run(dpp.DppPolicy(), cfg, replica=1)
    assert a0.avg_cost != a1.avg_cost
    assert a1 == run(dpp.DppPolicy(), cfg, replica=1)


def test_channel_uniforms_match_across_calls():
    cfg = make_config(horizon=500)
    u1 = channel_uniforms(cfg, replica=2)
    u2 = channel_uniforms(cfg, replica=2)
    assert u1.shape == (2, 500)
    assert np.array_equal(u1, u2)
    assert not np.array_equal(u1, channel_uniforms(cfg, replica=3))


# ── engine versus reference stepper ───────────────────────────────────────

def _replay(policy, cfg, replica=0):
    """Drive the reference stepper with the exact randomness run() uses,
    recording the slots from ``cfg.burn_in`` on as run() does, and every
    slot's post-update state and queue per user as ``_path`` lists them."""
    uniforms = channel_uniforms(cfg, replica)
    policy.reset(cfg, policy_rng(cfg, replica))
    states = initial_states(cfg)
    n = cfg.num_users
    recorded = cfg.horizon - cfg.burn_in
    cost = 0.0
    aoi_sum = [0] * n
    vq_sum = [0.0] * n
    empty = [0] * n
    hist = [[0] * cfg.aoi_cap for _ in range(n)]
    samples = [0] * n
    resends = [0] * n
    delivered = [0] * n
    path = [[] for _ in range(n)]
    for t in range(cfg.horizon):
        rec = t >= cfg.burn_in
        for k in range(n):
            if rec and not states[k].cache_occupied:
                empty[k] += 1
        sampler, resender = policy.decide(
            t, [s.aoi for s in states], [s.waiting_time for s in states],
            [s.cache_occupied for s in states], [s.vqueue for s in states])
        action = ActionVector.from_pair(n, sampler, resender)
        states, outcome = step_users(
            states, action, uniforms[:, t].tolist(), cfg)
        for k, st in enumerate(states):
            path[k].append(((st.cache_occupied, st.waiting_time, st.aoi), st.vqueue))
        if not rec:
            continue
        cost += outcome.cost
        for k, st in enumerate(states):
            aoi_sum[k] += st.aoi
            vq_sum[k] += st.vqueue
            hist[k][st.aoi - 1] += 1
            samples[k] += action.sample[k]
            resends[k] += action.retransmit[k]
            delivered[k] += outcome.delivered[k]
    return {
        "avg_cost": cost / recorded,
        "avg_aoi": tuple(s / recorded for s in aoi_sum),
        "avg_vqueue": tuple(s / recorded for s in vq_sum),
        "empty_fraction": tuple(e / recorded for e in empty),
        "hist": tuple(tuple(h) for h in hist),
        "sample_freq": tuple(s / recorded for s in samples),
        "retransmit_freq": tuple(r / recorded for r in resends),
        "deliveries": tuple(delivered),
        "final_vqueue": tuple(s.vqueue for s in states),
        "path": path,
    }


def _path(cfg, pairs, queues):
    """Per user, each slot's post-update (occupied, waiting time, age) state
    and virtual queue, from ``traced_run``'s pairs and queues."""
    table = transition_table(cfg.aoi_cap)
    return [[(table.states[i], q) for i, q in zip(row, qs)]
            for row, qs in zip(table.next_state[pairs].tolist(), queues.tolist())]


def _fingerprint(policy, cfg, replica=0):
    """A run's ``repr(SimStats)`` with, per user and slot, the state its
    ``traced_run`` pair reaches, the pair's kind (from an empty cache,
    sampled, resent, delivered) and the queue, as bytes: equal for two runs
    that stepped the same way, bit for bit.  The pairs themselves may
    differ: a walked pair's event also holds the plan's action for the
    cache state the user is not in."""
    stats, pairs, queues = traced_run(policy, cfg, replica)
    table = transition_table(cfg.aoi_cap)
    return (repr(stats), table.next_state[pairs].tobytes(),
            table.kind[:, pairs].tobytes(), queues.tobytes())


@st.composite
def engine_cases(draw, min_cap=3, burn_in=False):
    """A random configuration with a random randomized-policy point sized to
    it; burn-in is 0 (so a replay records every slot) unless ``burn_in``."""
    k = draw(st.integers(1, 5))
    cap = draw(st.integers(min_cap, 12))
    unit = st.floats(0.0, 1.0)
    horizon = draw(st.integers(1, 300))
    # quarter steps keep the walk's virtual queues on its prefix-sum form
    limit = st.floats(1.0, cap) | st.integers(4, 4 * cap).map(lambda q: q / 4)
    cfg = SystemConfig(
        num_users=k, success_prob=draw(st.lists(unit, min_size=k, max_size=k)),
        sample_cost=draw(st.floats(0.0, 10.0)),
        transmit_cost=draw(st.floats(0.0, 10.0)), aoi_cap=cap,
        aoi_limit=draw(st.lists(limit, min_size=k, max_size=k)),
        horizon=horizon, seed=draw(st.integers(0, 2**32 - 1)),
        v_weight=draw(st.floats(0.0, 1000.0)),
        single_transmitter_mode=draw(st.booleans()),
        burn_in=draw(st.integers(0, horizon - 1)) if burn_in else 0)
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    users = []
    for w in weights:
        occupied, resend_share, empty = draw(st.tuples(unit, unit, unit))
        users.append(ofrp.OfrpUserParams(
            w / sum(weights), occupied, resend_share * (1.0 - occupied), empty))
    return cfg, ofrp.OfrpParams(users=tuple(users)), draw(st.integers(0, 3))


# Both streams cross block seams: the engine draws the channel's uniforms
# and the plan's a block of 4,096 slots at a time.
_LONG_CASE = (
    make_config(num_users=2, success_prob=[0.6, 0.9], aoi_cap=6,
                aoi_limit=[3.0, 4.5], horizon=2 * 8192 + 17, v_weight=40.0,
                seed=97),
    ofrp.OfrpParams(users=(ofrp.OfrpUserParams(0.5, 0.4, 0.3, 0.6),
                           ofrp.OfrpUserParams(0.5, 0.2, 0.5, 0.9))),
    1)


# Free actions and twin users: DPP's delta scores tie exactly (equal, or
# -0.0 against idle's 0.0) and only the canonical order decides.
_TIE_CASE = (
    make_config(num_users=3, success_prob=[1.0, 1.0, 0.0], sample_cost=0.0,
                transmit_cost=0.0, aoi_cap=6, aoi_limit=[2.0, 2.0, 3.0],
                horizon=400, seed=3, single_transmitter_mode=False),
    ofrp.OfrpParams(users=(ofrp.OfrpUserParams(0.4, 0.5, 0.3, 0.6),) * 2
                    + (ofrp.OfrpUserParams(0.2, 0.1, 0.6, 0.2),)),
    0)


def _block_seam_examples(test):
    """Examples whose runs end or start recording at a block seam: horizon
    2·B and 2·B + 1, burn-in B - 1 and B, with B = ``simulate._DRAW_BLOCK``,
    so that the walk carries each user's state across whole blocks."""
    b = simulate._DRAW_BLOCK
    for horizon, burn_in in ((2 * b, 0), (2 * b + 1, 0), (2 * b + 1, b - 1), (2 * b, b)):
        test = example(case=(replace(_LONG_CASE[0], horizon=horizon, burn_in=burn_in),
                             *_LONG_CASE[1:]))(test)
    return test


@pytest.mark.parametrize("policy_factory", [
    pytest.param(lambda params: dpp.DppPolicy(), id="DppPolicy"),
    pytest.param(ofrp.OfrpPolicy, id="OfrpPolicy"),
])
@settings(max_examples=30, deadline=None)
@example(case=_LONG_CASE)
@example(case=_TIE_CASE)
@example(case=(replace(_TIE_CASE[0], single_transmitter_mode=True),
               *_TIE_CASE[1:]))
@example(case=(replace(_LONG_CASE[0], burn_in=8191), *_LONG_CASE[1:]))
@example(case=(replace(_LONG_CASE[0], aoi_limit=(math.inf, 2.0)),
               *_LONG_CASE[1:]))
# At cap 2 no packet stays cached, so every resend coefficient is 0.
@example(case=(replace(_LONG_CASE[0], aoi_cap=2, aoi_limit=(1.5, 2.0)),
               *_LONG_CASE[1:]))
@_block_seam_examples
@given(case=engine_cases(min_cap=2, burn_in=True))
def test_engine_matches_reference_stepper(policy_factory, case):
    """The engine and the literal composition of update laws must produce
    identical sample paths, every slot's state and queue, burn-in included,
    and the statistics."""
    cfg, params, replica = case
    stats, pairs, queues = traced_run(policy_factory(params), cfg, replica)
    ref = _replay(policy_factory(params), cfg, replica=replica)
    assert _path(cfg, pairs, queues) == ref["path"]
    # the engine adds a slot's sample and resend costs one at a time, the
    # stepper adds their sum, so float prices may round differently
    assert stats.avg_cost == pytest.approx(ref["avg_cost"], rel=1e-12, abs=0)
    assert stats.avg_aoi == ref["avg_aoi"]
    assert stats.avg_vqueue == ref["avg_vqueue"]
    assert stats.empty_fraction == ref["empty_fraction"]
    assert stats.aoi_histogram == ref["hist"]
    assert stats.sample_freq == ref["sample_freq"]
    assert stats.retransmit_freq == ref["retransmit_freq"]
    assert stats.deliveries == ref["deliveries"]
    assert stats.final_vqueue_over_t == tuple(
        v / cfg.horizon for v in ref["final_vqueue"])


class NeverDecided(dpp.DppPolicy):
    def decide(self, t, aoi, waiting, occupied, vqueue):
        raise AssertionError("decide called")


# sha256 of repr(SimStats) for DppPolicy runs at replica 1, recorded when
# the engine still asked DppPolicy.decide every slot, and re-hashed from the
# same reprs once SimStats lost its queue trace, delivery attempts and state
# frequencies.  Any change in the order of float operations (delta scores,
# virtual queues, their sums or the cost sum) changes a digest.  All
# horizons cross a 4,096-slot block.
_DPP_DIGESTS = {
    "fig9-prices": (
        dict(success_prob=0.7, horizon=20_000, seed=746004),
        "1adee9ef3513e05ca8b76b27979284475bf69df85157ab237410fee3c181fa54"),
    "pairs-k3": (
        dict(num_users=3, success_prob=[0.5, 0.8, 0.95], sample_cost=0.3,
             transmit_cost=2.0, aoi_cap=12, aoi_limit=[4.5, 6.0, 3.5],
             horizon=8193, seed=11, v_weight=40.0,
             single_transmitter_mode=False),
        "085945c7af7a25682b6996cf7ccd7b572ab5c6ad46f98201fcbf391920845741"),
    "burn-in-states": (
        dict(success_prob=[0.6, 0.9], aoi_limit=[4.0, 5.5],
             horizon=3 * 8192 + 5, seed=5, burn_in=9000),
        "847a494b2935d615ede154ed0e3d2a08861f81640cd3e2074df4d465b90116d6"),
    # Recorded later, still before the slot loop stopped recording queues.
    # 4.3 is not n/2**k and inf is not finite, so queues are rebuilt slot
    # by slot; both users sample and resend.
    "inexact-limits": (
        dict(success_prob=[0.9, 0.6], aoi_limit=[4.3, math.inf],
             horizon=8192 + 300, seed=43, v_weight=5.0,
             single_transmitter_mode=False),
        "4e9ebb4391d93492bb097ea163e18d0178fa97060dd5007b2863934894557e50"),
}


@pytest.mark.parametrize("case", _DPP_DIGESTS)
def test_dpp_runs_keep_their_recorded_digests(case):
    overrides, digest = _DPP_DIGESTS[case]
    stats = run(dpp.DppPolicy(), make_config(**overrides), 1)
    assert hashlib.sha256(repr(stats).encode()).hexdigest() == digest


def test_run_scores_dpp_without_calling_decide():
    for overrides, digest in _DPP_DIGESTS.values():
        stats = run(NeverDecided(), make_config(**overrides), 1)
        assert hashlib.sha256(repr(stats).encode()).hexdigest() == digest


class DppBySlot(dpp.DppPolicy):
    """The drift-plus-penalty rule asked slot by slot through ``decide``."""

    def penalties(self):
        return None


class MutatingDppBySlot(DppBySlot):
    """Decides as its twin, then scribbles over every argument."""

    def decide(self, t, aoi, waiting, occupied, vqueue):
        choice = super().decide(t, aoi, waiting, occupied, vqueue)
        for values in (aoi, waiting, occupied, vqueue):
            values[0] = 0
            values.append(0)
        return choice


def test_decide_cannot_change_the_engines_state():
    """``decide`` gets copies: a policy that mutates them runs as its
    non-mutating twin does."""
    cfg = make_config(success_prob=0.7, aoi_limit=3.0, horizon=2000, seed=1)
    mutated = _fingerprint(MutatingDppBySlot(), cfg)
    assert mutated == _fingerprint(DppBySlot(), cfg)
    assert mutated == _fingerprint(dpp.DppPolicy(), cfg)


@pytest.mark.parametrize("first_limit", [None, 4.3, math.inf],
                         ids=["dyadic", "inexact", "infinite"])
# 800 is the presets' V, where the gate skips most scores; 5e-324 makes
# subnormal or zero penalties (gates 0) and 1e308 infinite ones (gates inf).
@pytest.mark.parametrize("v_weight", [0.0, 1.0, 10.0, 800.0, 5e-324, 1e308])
@pytest.mark.parametrize("single", [True, False])
@pytest.mark.parametrize("num_users", [1, 2, 3, 4, 5, 6])
def test_scored_runs_follow_decide_on_random_configs(num_users, single,
                                                     v_weight, first_limit):
    """The scored slot loop, which writes every CSV, takes ``decide``'s
    action in every slot of random configurations: limits in halves (the
    prefix-sum queues), or the same with a first limit whose queue is
    rebuilt slot by slot.  Each user count has its own rendered body."""
    rng = np.random.default_rng([num_users, single, int(v_weight)])
    cap = int(rng.integers(5, 13))
    limits = [float(x) / 2 for x in rng.integers(3, 2 * cap + 1, num_users)]
    if first_limit is not None:
        limits[0] = first_limit
    cfg = make_config(
        num_users=num_users, aoi_cap=cap, aoi_limit=limits,
        success_prob=[float(x) for x in rng.uniform(0.1, 1.0, num_users)],
        sample_cost=float(rng.uniform(0.0, 3.0)),
        transmit_cost=float(rng.uniform(0.0, 3.0)), v_weight=v_weight,
        horizon=3000, seed=int(rng.integers(1, 10**6)),
        single_transmitter_mode=single)
    assert repr(run(dpp.DppPolicy(), cfg, 1)) == repr(run(DppBySlot(), cfg, 1))


class FixedPrices(dpp.DppPolicy):
    """The drift-plus-penalty rule at given penalties, negative ones too."""

    def __init__(self, prices):
        self.prices = prices

    def reset(self, cfg, rng):
        self.cfg = cfg

    def penalties(self):
        return self.prices

    def decide(self, t, aoi, waiting, occupied, vqueue):
        return dpp._decide_core(
            aoi, waiting, occupied, vqueue, self.cfg.success_prob,
            self.cfg.aoi_cap, *self.prices, self.cfg.single_transmitter_mode)


@pytest.mark.parametrize("single", [True, False])
@pytest.mark.parametrize("prices", [(-1.0, -1.0), (-2.0, 0.5), (0.0, -1.0),
                                    (0.0, 0.0)])
def test_scored_penalties_follow_decide_through_ties(prices, single):
    """On a dead channel every delta score is a penalty, so candidates tie
    exactly; the engine's own scoring still takes decide's choice, slot 0
    included."""
    cfg = replace(_TIE_CASE[0], success_prob=0.0,
                  single_transmitter_mode=single)
    stats, pairs, queues = traced_run(FixedPrices(prices), cfg)
    ref = _replay(FixedPrices(prices), cfg)
    assert (stats.sample_freq, stats.retransmit_freq, stats.aoi_histogram,
            stats.avg_vqueue) == \
        (ref["sample_freq"], ref["retransmit_freq"], ref["hist"],
         ref["avg_vqueue"])
    assert _path(cfg, pairs, queues) == ref["path"]


_PRICES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1.5e-300, -5e-324, -1.0, -1e300]),
    st.floats(-1e3, 1e308),
    # V · cost as _penalties forms it, overflowing to inf near the top
    st.builds(lambda v, c: v * c, st.floats(0.0, 1.7e308), st.floats(0.0, 10.0)))


@settings(max_examples=60, deadline=None)
# An infinite sample penalty by a resend gate near the top of the doubles:
# queue × success_prob × sample factor could overflow to -inf there.
@example(cap=20, sample_penalty=math.inf, resend_penalty=9.461542815073427e306,
         fractions=[0.0])
@given(cap=st.integers(2, 40), sample_penalty=_PRICES, resend_penalty=_PRICES,
       fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                          max_size=4))
def test_scored_gate_skips_only_deltas_that_cannot_win(
        cap, sample_penalty, resend_penalty, fractions):
    """Below a row's gate, queue × success_prob gives both delta scores
    >= +0.0, so the slot loop may skip them: none can beat idle's 0.0."""
    step = simulate._scored_rows(cap, sample_penalty, resend_penalty)
    for cs, cr, gate in {row[2:] for row in step}:
        assert gate >= 0.0
        if math.isinf(gate):
            assert sample_penalty == math.inf
            assert not cr or resend_penalty == math.inf
            continue
        if gate == 0.0:
            continue
        for xp in [math.nextafter(gate, 0.0)] + [gate * f for f in fractions]:
            assert xp < gate
            assert xp * cs + sample_penalty >= 0.0
            if cr:
                assert xp * cr + resend_penalty >= 0.0


class CodeScript(Policy):
    """Plays one action code per slot and user (0 idle, 1 sample, 2 resend),
    then idles: through ``plan``, or with ``planned=False`` through
    ``decide``, which can voice at most one sampler and one resender per
    slot.  With ``cached_only`` a resend code acts only while the user's
    cache holds a packet."""

    name = "code-script"

    def __init__(self, script, planned=True, cached_only=False):
        self.script = np.array(script, dtype=np.int8).T
        self.planned = planned
        self.cached_only = cached_only

    def reset(self, cfg, rng):
        self._next = 0

    def plan(self, n_slots):
        if not self.planned:
            return None
        codes = np.zeros((self.script.shape[0], n_slots), dtype=np.int8)
        part = self.script[:, self._next:self._next + n_slots]
        codes[:, :part.shape[1]] = part
        self._next += n_slots
        if_empty = np.where(codes == 2, 0, codes) if self.cached_only else codes
        return if_empty, codes

    def decide(self, t, aoi, waiting, occupied, vqueue):
        row = list(self.script[:, t]) if t < self.script.shape[1] else []
        sampler = row.index(1) if 1 in row else None
        resender = row.index(2) if 2 in row else None
        if self.cached_only and resender is not None and not occupied[resender]:
            resender = None
        return sampler, resender


class SlotBySlot(ofrp.OfrpPolicy):
    """The randomized policy with its plan withheld, so ``run`` asks it
    slot by slot."""

    def plan(self, n_slots):
        return None


@settings(max_examples=40, deadline=None)
# The walk's prefix sums carry each queue across two block boundaries, and
# stay exact with a 30-bit fraction in the limit.
@example(case=(replace(_LONG_CASE[0], burn_in=5000), *_LONG_CASE[1:]))
@example(case=(replace(_LONG_CASE[0], aoi_limit=(1 + 2**-30, 4.5)),
               *_LONG_CASE[1:]))
# Limits the prefix sums cannot carry exactly: past the bound, non-dyadic
# and infinite.  The walk keeps the slot loop's recursion for them.
@example(case=(replace(_LONG_CASE[0], aoi_limit=(1e300, 4.5)), *_LONG_CASE[1:]))
@example(case=(replace(_LONG_CASE[0], aoi_limit=(4.3, 3.0)), *_LONG_CASE[1:]))
@example(case=(replace(_LONG_CASE[0], aoi_limit=(math.inf, 2.0)),
               *_LONG_CASE[1:]))
@_block_seam_examples
@given(case=engine_cases(min_cap=2, burn_in=True))
def test_table_walk_matches_slot_loop(case):
    """The table walk and the slot loop step every user through the same
    (state, event) pairs and queues and give the same statistics, floats
    included, bit for bit."""
    cfg, params, replica = case
    assert _fingerprint(ofrp.OfrpPolicy(params), cfg, replica) == \
        _fingerprint(SlotBySlot(params), cfg, replica)


@settings(max_examples=30, deadline=None)
# On this long, nearly dead channel the two orders of a slot's prices give
# sums that differ in the last bit.
@example(case=(replace(_LONG_CASE[0], success_prob=(0.05, 0.05),
                       sample_cost=0.1, transmit_cost=0.7, burn_in=100),
               *_LONG_CASE[1:]),
         script_seed=5)
@given(case=engine_cases(min_cap=2, burn_in=True),
       script_seed=st.integers(0, 2**32 - 1))
def test_two_actor_plans_match_slot_loop(case, script_seed):
    """A slot with a sampler and a resender adds the sampling price first on
    both paths."""
    cfg = replace(case[0], single_transmitter_mode=False)
    rng = np.random.default_rng(script_seed)
    script = np.zeros((cfg.horizon, cfg.num_users), dtype=np.int8)
    for row, (sampler, resender) in zip(
            script, rng.integers(-1, cfg.num_users, (cfg.horizon, 2))):
        if resender >= 0:
            row[resender] = 2
        if sampler >= 0:
            row[sampler] = 1
    assert _fingerprint(CodeScript(script, cached_only=True), cfg) == \
        _fingerprint(CodeScript(script, planned=False, cached_only=True), cfg)


@pytest.mark.parametrize("limits, inexact", [
    ((3.0, 4.5), None), ((3.0, 4.3), "4.3"), ((1e300, 4.5), "1e+300"),
    ((math.inf, 2.0), "inf"),
])
def test_walk_logs_its_virtual_queue_form(limits, inexact, caplog):
    """One line per run names the engine path, the queue form and the limit
    that kept the slot-by-slot one; DppPolicy takes the slot loop."""
    caplog.set_level(logging.DEBUG, logger="aoisched.simulate")
    cfg = replace(_LONG_CASE[0], aoi_limit=limits)
    run(ofrp.OfrpPolicy(_LONG_CASE[1]), cfg)
    run(dpp.DppPolicy(), cfg)
    assert caplog.messages == [
        f"{path}: virtual queues as exact prefix sums" if inexact is None else
        f"{path}: virtual queues slot by slot, aoi_limit {inexact} is not "
        "exact in prefix sums" for path in ("walk", "slot loop")]


class NeverBySlot(ofrp.OfrpPolicy):
    def decide(self, t, aoi, waiting, occupied, vqueue):
        raise AssertionError("asked slot by slot")


def test_planned_policy_is_walked_at_every_cap():
    params = _LONG_CASE[1]
    for cap in (2, 64, 65, 80):
        run(NeverBySlot(params), make_config(aoi_cap=cap))


# Past any cap the other tests reach (2,017 states at cap 64, 3,161 at 80).
_CAP80_CASE = (
    make_config(num_users=2, success_prob=[0.3, 0.55], aoi_cap=80,
                aoi_limit=[75.0, 12.5], horizon=8192 + 40, v_weight=800.0,
                seed=80, burn_in=700),
    ofrp.OfrpParams(users=(ofrp.OfrpUserParams(0.4, 0.5, 0.3, 0.6),
                           ofrp.OfrpUserParams(0.6, 0.1, 0.6, 0.2))),
    2)


def test_cap_80_engine_matches_stepper_and_slot_loop():
    cfg, params, replica = _CAP80_CASE
    stats, pairs, queues = traced_run(dpp.DppPolicy(), cfg, replica)
    ref = _replay(dpp.DppPolicy(), cfg, replica)
    assert max(age for (_, _, age), _ in ref["path"][0]) > 64
    assert (stats.aoi_histogram, stats.avg_vqueue) == (ref["hist"], ref["avg_vqueue"])
    assert stats.avg_cost == pytest.approx(ref["avg_cost"], rel=1e-12, abs=0)
    assert _path(cfg, pairs, queues) == ref["path"]
    walked = traced_run(ofrp.OfrpPolicy(params), cfg, replica)
    assert max(age for (_, _, age), _ in _path(cfg, *walked[1:])[0]) > 64
    assert _fingerprint(ofrp.OfrpPolicy(params), cfg, replica) == \
        _fingerprint(SlotBySlot(params), cfg, replica)


class IdleBySlot(IdlePolicy):
    def plan(self, n_slots):
        return None


class AlwaysSampleBySlot(AlwaysSamplePolicy):
    def plan(self, n_slots):
        return None


@pytest.mark.parametrize("planned, by_slot", [
    (IdlePolicy(), IdleBySlot()),
    (AlwaysSamplePolicy(1), AlwaysSampleBySlot(1)),
], ids=["idle", "always-sample"])
def test_planned_fixed_policies_match_slot_loop(planned, by_slot):
    for cfg in (make_config(horizon=20_000, burn_in=333, success_prob=0.3),
                make_config(num_users=3, aoi_cap=2, horizon=50)):
        assert _fingerprint(planned, cfg) == _fingerprint(by_slot, cfg)


def test_delivery_rate_tracks_channel_quality():
    cfg = make_config(num_users=1, success_prob=0.7, horizon=20000)
    stats = run(AlwaysSamplePolicy(0), cfg)
    assert stats.sample_freq == (1.0,)      # an attempt every slot
    rate = stats.deliveries[0] / cfg.horizon
    margin = 4 * np.sqrt(0.7 * 0.3 / 20000)
    assert abs(rate - 0.7) < margin


# ── action checking ───────────────────────────────────────────────────────

def test_rejects_out_of_range_sampler():
    cfg = make_config(horizon=10)
    with pytest.raises(ValueError, match="slot 0"):
        run(ScriptedPolicy([(5, None)]), cfg)


@pytest.mark.parametrize("index", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("role", ["sampler", "retransmitter"])
def test_rejects_an_index_that_is_not_an_integer(role, index):
    """``1.0`` cannot index a user and ``True`` is no user number: both are
    refused naming the slot, as an out-of-range index is."""
    pair = (index, None) if role == "sampler" else (None, index)
    with pytest.raises(ValueError, match=re.escape(
            f"slot 0: {role} index {index!r} is not an integer")):
        run(ScriptedPolicy([pair]), make_config(horizon=10))


def test_accepts_numpy_integer_indices():
    """Indices may be numpy integers; they act as the same ints do."""
    cfg = make_config(success_prob=0.0, horizon=10)
    script = [(None, None), (None, None), (1, None), (None, 1), (0, None)]
    as_numpy = [tuple(None if k is None else np.int64(k) for k in pair)
                for pair in script]
    assert _fingerprint(ScriptedPolicy(as_numpy), cfg) == \
        _fingerprint(ScriptedPolicy(script), cfg)


def test_rejects_retransmit_without_cache():
    cfg = make_config(horizon=10)
    with pytest.raises(ValueError, match="no cached packet"):
        run(ScriptedPolicy([(None, 1)]), cfg)


def test_rejects_same_user_sample_and_retransmit():
    # idle two slots first: a failed sample at age 1 is discarded on the
    # spot, so the cache only fills once the age has something to beat
    cfg = make_config(success_prob=0.0, horizon=10,
                      single_transmitter_mode=False)
    script = [(None, None), (None, None), (0, None), (0, 0)]
    with pytest.raises(ValueError, match="sample and retransmit"):
        run(ScriptedPolicy(script), cfg)


def test_single_transmitter_mode_enforced():
    script = [(None, None), (None, None), (1, None), (0, 1)]
    with pytest.raises(ValueError, match="single-transmitter"):
        run(ScriptedPolicy(script), make_config(success_prob=0.0, horizon=10))
    # the same schedule is legal when the restriction is lifted
    stats = run(ScriptedPolicy(script),
                make_config(success_prob=0.0, horizon=10,
                            single_transmitter_mode=False))
    assert stats.sample_freq == (0.1, 0.1)
    assert stats.retransmit_freq == (0.0, 0.1)
    assert stats.avg_cost == pytest.approx((6 + 6 + 5) / 10)


# Each script runs idle until a few slots past the first draw block, then
# breaks one action rule; on a dead channel a sample at age 3 or more stays
# cached, and caches empty only at the discard limit.
_LEAD = [(0, 0)] * 8190
_VIOLATIONS = {
    "resend-from-empty": (_LEAD + [(0, 0), (0, 0), (0, 2)], True),
    "single-transmitter": (_LEAD + [(0, 1), (0, 0), (1, 2)], True),
    "two-samplers": (_LEAD + [(0, 0), (0, 0), (1, 1)], False),
    "two-resenders": (_LEAD + [(1, 0), (0, 1), (2, 2)], False),
}


@pytest.mark.parametrize("rule", _VIOLATIONS)
def test_walk_rejects_the_slot_loops_first_violation(rule):
    script, single = _VIOLATIONS[rule]
    cfg = make_config(success_prob=0.0, horizon=8300,
                      single_transmitter_mode=single)
    with pytest.raises(ValueError) as walked:
        run(CodeScript(script), cfg)
    t = len(script) - 1
    codes = script[-1]
    if codes.count(1) < 2 and codes.count(2) < 2:
        with pytest.raises(ValueError) as looped:
            run(CodeScript(script, planned=False), cfg)
        expected = str(looped.value)
    else:   # the slot loop's (sampler, resender) pair cannot say this
        action = ActionVector(tuple(int(c == 1) for c in codes),
                              tuple(int(c == 2) for c in codes))
        with pytest.raises(ValueError) as law:
            action.validate([True] * len(codes), cfg)
        expected = f"slot {t}: {law.value}"
    assert str(walked.value) == expected
    assert expected.startswith(f"slot {t}: ")


class RawPlan(Policy):
    """Hands ``run`` whatever ``make(num_users, n_slots)`` builds as its
    plan, from the block at slot ``start`` on; an idle plan before."""

    name = "raw-plan"

    def __init__(self, make, start=0):
        self.make = make
        self.start = start

    def reset(self, cfg, rng):
        self._users, self._next = cfg.num_users, 0

    def decide(self, t, aoi, waiting, occupied, vqueue):
        raise AssertionError("asked slot by slot")

    def plan(self, n_slots):
        self._next += n_slots
        if self._next - n_slots < self.start:
            return (np.zeros((self._users, n_slots), dtype=np.int8),) * 2
        return self.make(self._users, n_slots)


@pytest.mark.parametrize("make", [
    lambda n, m: (np.full((n, m), 0.5),) * 2,
    lambda n, m: (np.full((n, m), 1.0),) * 2,
    lambda n, m: (np.zeros((n, m), dtype=np.int8), np.zeros((n, m + 1), dtype=np.int8)),
    lambda n, m: (np.zeros((n, m), dtype=np.int8),) * 3,
    lambda n, m: (np.zeros((n + 1, m), dtype=np.int8),) * 2,
    lambda n, m: (np.full((n, m), 3, dtype=np.int8),) * 2,
    lambda n, m: (np.full((n, m), -1),) * 2,
    lambda n, m: (np.full((n, m), None),) * 2,
], ids=["fractional", "float", "ragged", "three-arrays", "wrong-users",
        "code-3", "negative", "objects"])
@pytest.mark.parametrize("start", [0, 2048])
def test_walk_rejects_a_malformed_plan(make, start, monkeypatch):
    """A plan that is not two (n, m) arrays of integer codes 0, 1, 2 is
    refused with the slot of its block, not run; here blocks of 2,048."""
    monkeypatch.setattr(simulate, "_DRAW_BLOCK", 2048)
    cfg = make_config(horizon=2048 + 10)
    m = 2048 if start == 0 else 10
    with pytest.raises(ValueError, match=re.escape(
            f"slot {start}: plan must be two (2, {m}) arrays of codes 0, 1, 2")):
        run(RawPlan(make, start), cfg)


def test_every_block_is_checked_on_both_paths(monkeypatch):
    """The slot loop's scored actions are legal by construction, and its
    asked ones are checked slot by slot; both paths still check each
    block's realized actions."""
    checked = []
    check = simulate._check_block
    monkeypatch.setattr(simulate, "_check_block",
                        lambda b0, *args: checked.append(b0) or check(b0, *args))
    cfg, params, _ = _LONG_CASE
    for policy in (dpp.DppPolicy(), ofrp.OfrpPolicy(params), SlotBySlot(params)):
        checked.clear()
        run(policy, cfg)
        assert checked == list(range(0, cfg.horizon, simulate._DRAW_BLOCK))


def test_slot_loop_checks_its_queues_against_the_rebuild(monkeypatch):
    """The queues the slot loop scored with must equal the block's rebuild
    to the last bit; a rebuild one ulp off from the second block on is
    refused there."""
    rebuild, blocks = simulate._queues, []

    def one_ulp_off(tally, ages):
        blocks.append(None)
        vqs = rebuild(tally, ages)
        return vqs if len(blocks) < 2 else np.nextafter(vqs, np.inf)

    monkeypatch.setattr(simulate, "_queues", one_ulp_off)
    with pytest.raises(RuntimeError,
                       match=f"^block at slot {simulate._DRAW_BLOCK}: "):
        run(dpp.DppPolicy(), make_config(horizon=3 * simulate._DRAW_BLOCK))
    assert len(blocks) == 2


@pytest.mark.parametrize("policy", [
    dpp.DppPolicy(), ofrp.OfrpPolicy(_LONG_CASE[1]), DppBySlot(),
], ids=["scored", "walked", "asked"])
def test_block_size_never_moves_a_number(policy, monkeypatch):
    """Blocks of 1, 7 and 2,048 slots give the default block's run, every
    slot's pairs and queues included: the horizon is a multiple of none of
    them, and the burn-in ends past a seam of each."""
    cfg = replace(_LONG_CASE[0], horizon=8192 + 2048 + 3, burn_in=8200)
    runs = {}
    for slots in (1, 7, 2048, simulate._DRAW_BLOCK):
        monkeypatch.setattr(simulate, "_DRAW_BLOCK", slots)
        runs[slots] = _fingerprint(policy, cfg, 1)
    assert len(set(runs.values())) == 1


# ── the rendered slot loop ────────────────────────────────────────────────

_MODES = [(single, scored) for single in (True, False) for scored in (True, False)]


@pytest.mark.parametrize("num_users", range(1, 9))
def test_slot_bodies_compile_cleanly(num_users):
    """Every mode's body renders and compiles with warnings as errors, so a
    warning from any supported Python's compiler fails here."""
    simulate._slot_body.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for single, scored in _MODES:
            body = simulate._slot_body(num_users, single, scored)
            assert body.__code__.co_argcount == 13


def test_rendered_slot_loop_shows_its_source():
    """The rendered body's lines are in ``linecache`` under a name that
    gives its user count and mode, so ``inspect.getsource`` and tracebacks
    show them."""
    body = simulate._slot_body(3, False, True)
    name = body.__code__.co_filename
    assert name == "<aoisched slot loop, 3 users, two transmitters, scored>"
    text = inspect.getsource(body)
    assert text == "".join(linecache.getlines(name))
    assert text.startswith("def slots(")
    for line in ("    a0, a1, a2, = at\n", "        a2, a, cs, cr, g = step[s]\n",
                 "            if d < 0.0: S += (2, d),\n",
                 "    return [a0, a1, a2], [v0, v1, v2], (sampler, resender)\n"):
        assert line in text


def test_cached_bodies_and_only_they_keep_their_source():
    """``_slot_body`` keeps the eight bodies used last, each with its lines
    in ``linecache``; an evicted body's lines leave with it.  The 2-user
    body, used after every other, is the first rendered and stays."""
    simulate._slot_body.cache_clear()
    name = simulate._slot_body(2, True, True).__code__.co_filename
    for n in range(3, 11):
        simulate._slot_body(n, True, True)
        body = simulate._slot_body(2, True, True)
    assert simulate._slot_body.cache_info().currsize == 8
    assert linecache.getlines(name)
    assert inspect.getsource(body).startswith("def slots(")
    assert not linecache.getlines(name.replace("2 users", "3 users"))


class FailingDecide(DppBySlot):
    def decide(self, t, aoi, waiting, occupied, vqueue):
        raise LookupError("no decision")


def test_traceback_through_the_slot_loop_shows_the_rendered_line():
    with pytest.raises(LookupError) as failed:
        run(FailingDecide(), make_config(num_users=2, single_transmitter_mode=False))
    frames = [f for f in traceback.extract_tb(failed.value.__traceback__)
              if f.filename.startswith("<aoisched slot loop")]
    assert [f.filename for f in frames] == [
        "<aoisched slot loop, 2 users, two transmitters, asked>"]
    assert frames[0].line.startswith("sampler, resender = decide(t, ")


# ── recording windows and aggregates ──────────────────────────────────────

def test_burn_in_excludes_warmup():
    cfg = make_config(num_users=1, aoi_cap=5, horizon=10, burn_in=6)
    stats = run(IdlePolicy(), cfg)
    assert stats.avg_aoi == (5.0,)
    assert stats.aoi_histogram[0] == (0, 0, 0, 0, 4)
    assert sum(stats.aoi_histogram[0]) == 10 - 6
    cost_stats = run(AlwaysSamplePolicy(0),
                     make_config(num_users=1, success_prob=0.0, horizon=10,
                                 burn_in=6))
    assert cost_stats.avg_cost == 6.0
    assert cost_stats.empty_fraction == (0.0,)


def test_run_replicas_single_equals_run():
    cfg = make_config(horizon=1500)
    stats, summary = run_replicas(dpp.DppPolicy(), cfg, 1)
    assert stats[0] == run(dpp.DppPolicy(), cfg, replica=0)
    assert summary.mean_cost == stats[0].avg_cost
    assert summary.stderr_cost == 0.0


def test_run_replicas_threaded_matches_sequential():
    cfg = make_config(horizon=1500)
    seq_stats, seq_sum = run_replicas(dpp.DppPolicy(), cfg, 3, threads=1)
    par_stats, par_sum = run_replicas(dpp.DppPolicy(), cfg, 3, threads=3)
    assert seq_stats == par_stats
    assert seq_sum == par_sum


def test_used_policy_ships_to_replica_workers():
    """A policy that has already run holds its run's generator; it must still
    pickle to worker processes and give the sequential results there."""
    cfg = make_config(horizon=1500)
    policy = ofrp.OfrpPolicy(_LONG_CASE[1])
    run(policy, cfg)
    par = run_replicas(policy, cfg, 3, threads=2)
    assert par == run_replicas(policy, cfg, 3, threads=1)


def test_engine_memory_does_not_grow_with_the_cube_of_the_users():
    """The per-sum rows a run checks and prices its slots by hold n + 4
    entries; one row per three-digit base-(n + 1) sum would take about
    150 MB at 150 users."""
    cfg = make_config(num_users=150, horizon=10)
    simulate._tally_rows.cache_clear()
    tracemalloc.start()
    try:
        run(dpp.DppPolicy(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


# ── order-free sums and visit counts ──────────────────────────────────────

@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), users=st.integers(0, 3),
       sizes=st.tuples(st.integers(0, 3000), st.integers(1, 3000)),
       log_den=st.integers(0, 40), at_bound=st.booleans())
def test_order_free_sums_equal_in_order_sums(seed, users, sizes, log_den,
                                             at_bound):
    """Multiples of 1/d (d a power of two) whose sum stays below 2**53/d add
    to the same double in any order: two blocks, the second starting from
    the total the first carries, as ``_Tally`` adds its costs (a flat
    block) and each user's queues (a row per user)."""
    shape = (users,) if users else ()
    top = (2**53 - 1) // sum(sizes)         # largest numerator of a value
    rng = np.random.default_rng(seed)
    blocks = [np.full(shape + (m,), top) if at_bound
              else rng.integers(0, top, shape + (m,), endpoint=True)
              for m in sizes]
    blocks = [b / 2.0**log_den for b in blocks]
    in_order = free = np.zeros(shape) if users else 0.0
    for values in blocks:
        in_order = simulate._add_in_order(in_order, values.copy())
        free = simulate._add(free, values, True)
    assert np.asarray(free).tobytes() == np.asarray(in_order).tobytes()


def _order_free(**overrides):
    return simulate._Tally(make_config(**overrides)).order_free


def test_prices_one_step_past_their_bound_are_added_in_order():
    """horizon · (s + t + t) · D < 2**53 keeps the cost sum order-free,
    D the prices' larger denominator."""
    # D = 1: 4095 · 2**41 < 2**53 = 4096 · 2**41
    assert _order_free(sample_cost=0.0, transmit_cost=2.0**40,
                       horizon=4095)[0]
    assert not _order_free(sample_cost=0.0, transmit_cost=2.0**40,
                           horizon=4096)[0]
    # D = 2: 4095 · (2**41 + 1) < 2**53; D = 4: 4095 · (2**42 + 1) is not
    assert _order_free(sample_cost=0.5, transmit_cost=2.0**39,
                       horizon=4095)[0]
    assert not _order_free(sample_cost=0.5, transmit_cost=2.0**39,
                           horizon=4096)[0]
    assert not _order_free(sample_cost=0.25, transmit_cost=2.0**39,
                           horizon=4095)[0]


def test_queues_one_step_past_their_bound_are_added_in_order():
    """horizon · (horizon + _DRAW_BLOCK) · (d·cap + n) < 2**53 keeps the
    queue sums order-free, each limit n/d; one more slot, or a limit
    with twice the denominator, adds them in order, while every queue is
    still rebuilt in prefix sums."""
    cap, n, d = 4, 2**30 + 1, 2**30
    span = simulate._DRAW_BLOCK
    horizon = max(h for h in range(1, 2000)
                  if h * (h + span) * (d * cap + n) < 2**53)
    limit = n / d
    for h, lim, free in ((horizon, limit, True), (horizon + 1, limit, False),
                         (horizon, 1 + 0.5 / d, False)):
        cfg = make_config(aoi_cap=cap, aoi_limit=[lim, 3.0], horizon=h)
        assert simulate._inexact_limit(cfg) is None
        assert simulate._Tally(cfg).order_free == (True, free)


@pytest.mark.parametrize("case, order_free", [
    ("fig9-prices", (True, True)),
    ("pairs-k3", (False, True)),        # sample_cost 0.3 is not n/2**k
    ("burn-in-states", (True, True)),
    ("inexact-limits", (True, False)),  # neither is aoi_limit 4.3
])
def test_recorded_digests_cover_both_ways_to_sum(case, order_free,
                                                  monkeypatch):
    """The recorded ``_DPP_DIGESTS`` runs pin both summations: a sum that
    is not order-free goes through ``_add_in_order``, the cost as one flat
    block, the queues as a row per user."""
    overrides, digest = _DPP_DIGESTS[case]
    assert _order_free(**overrides) == order_free
    in_order = simulate._add_in_order
    ndims = set()
    monkeypatch.setattr(simulate, "_add_in_order", lambda total, values:
                        ndims.add(values.ndim) or in_order(total, values))
    stats = run(dpp.DppPolicy(), make_config(**overrides), 1)
    assert hashlib.sha256(repr(stats).encode()).hexdigest() == digest
    assert ndims == {ndim for ndim, free in zip((1, 2), order_free)
                     if not free}


@pytest.mark.parametrize("overrides", [
    dict(sample_cost=0.0, transmit_cost=2.0**40, horizon=4095),
    dict(sample_cost=0.5, transmit_cost=2.0**39, horizon=4095,
         single_transmitter_mode=False),
], ids=["D=1", "D=2"])
def test_order_free_runs_match_in_order_runs_at_the_bound(overrides,
                                                          monkeypatch):
    """Runs whose cost sums sit at the bound give the same statistics when
    every sum is forced through ``_add_in_order`` (v_weight 0, so that DPP
    acts at these prices)."""
    overrides = dict(overrides, v_weight=0.0)
    cfg = make_config(**overrides)
    assert _order_free(**overrides) == (True, True)
    policies = (dpp.DppPolicy(), ofrp.OfrpPolicy(_LONG_CASE[1]))
    free = [repr(run(policy, cfg)) for policy in policies]
    monkeypatch.setattr(simulate, "_add", lambda total, values, _:
                        simulate._add_in_order(total, values))
    assert free == [repr(run(policy, cfg)) for policy in policies]


def test_visit_counts_allocate_per_visit_not_per_pair(monkeypatch):
    """Counting a block's visits allocates with the 4,096 visits, not the
    table's 358,218 pairs at cap 200, where one ``bincount`` per user took
    a 2.8 MB temporary."""
    peaks = []
    add = simulate._Tally.add

    def traced(tally, b0, pairs):
        tracemalloc.start()
        try:
            add(tally, b0, pairs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(simulate._Tally, "add", traced)
    cfg = make_config(aoi_cap=200, aoi_limit=50.0, horizon=simulate._DRAW_BLOCK)
    run(ofrp.OfrpPolicy(_LONG_CASE[1]), cfg)
    assert len(peaks) == 1
    assert peaks[0] < 0.5 * 2**20


def test_summarize_deterministic_policy_has_zero_spread():
    cfg = make_config(num_users=1, horizon=300)
    stats, summary = run_replicas(IdlePolicy(), cfg, 4)
    assert summary.stdev_cost == 0.0
    assert summary.stderr_aoi == (0.0,)
    assert summary.mean_cost == 0.0


def test_run_replicas_rejects_bad_count():
    with pytest.raises(ValueError):
        run_replicas(IdlePolicy(), make_config(), 0)
