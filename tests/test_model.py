"""Unit tests for the per-slot update laws and the core types."""

import importlib
import pkgutil

import numpy as np
import pytest

import aoisched

from aoisched.model import (ActionVector, SystemConfig, UserState, aoi_step,
                            grid_intervals, slot_cost, vqueue_step,
                            waiting_time_step)
from engine_oracle import initial_states, probability_grid, step_users


def make_config(**overrides):
    base = dict(num_users=2, success_prob=0.8, sample_cost=1.0,
                transmit_cost=5.0, aoi_cap=10, aoi_limit=5.0, horizon=100,
                seed=1)
    base.update(overrides)
    return SystemConfig(**base)


# ── age update ────────────────────────────────────────────────────────────

def test_aoi_step_delivery_resets_to_wait_plus_one():
    assert aoi_step(4, 2, True, 10) == 3
    assert aoi_step(1, 0, True, 10) == 1      # fresh sample through: age 1
    assert aoi_step(10, 7, True, 10) == 8


def test_aoi_step_ages_and_saturates():
    assert aoi_step(3, 0, False, 10) == 4
    assert aoi_step(9, 0, False, 10) == 10
    assert aoi_step(10, 0, False, 10) == 10


# ── cache update ──────────────────────────────────────────────────────────

def test_cached_packet_ages_while_idle():
    assert waiting_time_step(True, 3, sampled=False, delivered=False,
                             next_aoi=10, cap=10) == (True, 4)


def test_delivery_empties_the_cache():
    assert waiting_time_step(True, 4, sampled=False, delivered=True,
                             next_aoi=5, cap=10) == (False, 0)


def test_failed_fresh_sample_is_kept_with_wait_one():
    assert waiting_time_step(False, 0, sampled=True, delivered=False,
                             next_aoi=3, cap=10) == (True, 1)


def test_fresh_sample_replaces_older_cached_packet():
    assert waiting_time_step(True, 5, sampled=True, delivered=False,
                             next_aoi=10, cap=10) == (True, 1)


def test_packet_dropped_at_max_useful_wait():
    # wait would reach cap-1: delivering it could only reproduce the cap
    assert waiting_time_step(True, 8, sampled=False, delivered=False,
                             next_aoi=10, cap=10) == (False, 0)


def test_packet_dropped_when_no_longer_fresher():
    # wait+1 catches the age it would need to beat (equality discards)
    assert waiting_time_step(True, 2, sampled=False, delivered=False,
                             next_aoi=4, cap=10) == (False, 0)
    assert waiting_time_step(True, 2, sampled=False, delivered=False,
                             next_aoi=5, cap=10) == (True, 3)


def test_fresh_sample_dropped_when_it_cannot_beat_the_age():
    # next age 2 means the monitor is only one slot behind already
    assert waiting_time_step(False, 0, sampled=True, delivered=False,
                             next_aoi=2, cap=10) == (False, 0)


def test_tiny_cap_never_retains_packets():
    assert waiting_time_step(False, 0, sampled=True, delivered=False,
                             next_aoi=2, cap=2) == (False, 0)


# ── cost and virtual queue ────────────────────────────────────────────────

def test_slot_cost_values():
    cfg = make_config()
    assert slot_cost(ActionVector((1, 0), (0, 0)), cfg) == 6.0
    assert slot_cost(ActionVector((0, 0), (0, 1)), cfg) == 5.0
    assert slot_cost(ActionVector.idle(2), cfg) == 0.0
    dual = make_config(single_transmitter_mode=False)
    assert slot_cost(ActionVector((1, 0), (0, 1)), dual) == 11.0


def test_vqueue_step_examples():
    assert vqueue_step(0.0, 4, 5.0) == 4.0
    assert vqueue_step(8.0, 4, 5.0) == 7.0     # serves 5, absorbs 4
    assert vqueue_step(2.0, 1, 5.0) == 1.0     # cannot go negative


def test_vqueue_growth_is_bounded_by_age():
    # one-step growth never exceeds the new age itself
    rng = np.random.default_rng(5)
    x = 0.0
    for _ in range(200):
        a = int(rng.integers(1, 11))
        nxt = vqueue_step(x, a, 5.0)
        assert nxt <= max(x - 5.0, 0.0) + 10.0
        assert nxt >= 0.0
        x = nxt


# ── configuration and state validation ────────────────────────────────────

def test_config_broadcasts_scalars():
    cfg = make_config(success_prob=0.7, aoi_limit=4)
    assert cfg.success_prob == (0.7, 0.7)
    assert cfg.aoi_limit == (4.0, 4.0)


@pytest.mark.parametrize("scalar", [np.int64, np.float64, np.float32])
def test_config_broadcasts_numpy_scalars(scalar):
    """A numpy scalar is a scalar, as the Python float it equals is."""
    cfg = make_config(success_prob=scalar(1), aoi_limit=scalar(5))
    assert cfg == make_config(success_prob=1.0, aoi_limit=5.0)
    assert {type(v) for v in cfg.success_prob + cfg.aoi_limit} == {float}


def test_config_accepts_per_user_sequences():
    cfg = make_config(success_prob=[0.5, 0.9], aoi_limit=(3, 6))
    assert cfg.success_prob == (0.5, 0.9)
    assert cfg.aoi_limit == (3.0, 6.0)


@pytest.mark.parametrize("overrides", [
    dict(num_users=0),
    dict(success_prob=1.5),
    dict(success_prob=[0.5]),          # wrong length
    dict(aoi_limit=0.5),
    dict(aoi_cap=1),
    dict(horizon=0),
    dict(burn_in=100),                 # not < horizon
    dict(v_weight=-1),
    dict(sample_cost=-2),
    dict(sample_cost=1.7e308, transmit_cost=1.7e308),   # each finite, sum not
    dict(sample_cost=10 ** 308, transmit_cost=10 ** 308),
])
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        make_config(**overrides)


@pytest.mark.parametrize("field, value", [
    ("aoi_limit", float("nan")),
    ("aoi_limit", [5.0, float("nan")]),
    pytest.param("aoi_limit", 10 ** 400, id="aoi_limit-huge-int"),
    ("sample_cost", float("nan")),
    ("sample_cost", float("inf")),
    pytest.param("sample_cost", 10 ** 400, id="sample_cost-huge-int"),
    ("transmit_cost", float("nan")),
    ("transmit_cost", float("inf")),
    ("v_weight", float("nan")),
    ("v_weight", float("inf")),
    ("num_users", 2.0),
    ("aoi_cap", 10.5),
    ("aoi_cap", 501),
    pytest.param("aoi_cap", 10 ** 400, id="aoi_cap-huge-int"),
    ("horizon", 100.5),
    ("horizon", 2 ** 53),
    ("burn_in", 1.5),
    ("seed", -1),
    ("seed", 1.0),
    ("num_users", True),
    ("seed", False),
    ("success_prob", True),
    pytest.param("aoi_limit", [5.0, True], id="aoi_limit-bool-entry"),
    pytest.param("aoi_limit", "57", id="aoi_limit-string"),
    pytest.param("success_prob", ["0.5", "0.9"], id="success_prob-strings"),
    ("sample_cost", True),
    ("v_weight", False),
    pytest.param("success_prob", np.True_, id="success_prob-numpy-bool"),
    pytest.param("success_prob", [np.True_, 0.5],
                 id="success_prob-numpy-bool-entry"),
    pytest.param("aoi_limit", np.array(True), id="aoi_limit-0d-bool-array"),
    pytest.param("sample_cost", np.True_, id="sample_cost-numpy-bool"),
])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        make_config(**{field: value})


def test_config_broadcasts_a_zero_dimensional_array_like_a_scalar():
    cfg = make_config(success_prob=np.array(0.5), aoi_limit=np.array(6))
    assert cfg.success_prob == (0.5, 0.5) and cfg.aoi_limit == (6.0, 6.0)
    assert all(type(v) is float for v in cfg.success_prob + cfg.aoi_limit)


def test_config_keeps_numpy_integers_as_given():
    cfg = make_config(aoi_cap=np.int64(10), seed=np.uint32(1))
    assert type(cfg.aoi_cap) is np.int64 and type(cfg.seed) is np.uint32


def test_config_accepts_an_infinite_aoi_limit():
    assert make_config(aoi_limit=float("inf")).aoi_limit == (float("inf"),) * 2


def test_state_validation():
    UserState(aoi=3, waiting_time=1, cache_occupied=True).validate(10)
    UserState(aoi=10).validate(10)
    with pytest.raises(ValueError):
        UserState(aoi=0).validate(10)
    with pytest.raises(ValueError):
        UserState(aoi=11).validate(10)
    with pytest.raises(ValueError):    # occupied with wait 0
        UserState(aoi=5, waiting_time=0, cache_occupied=True).validate(10)
    with pytest.raises(ValueError):    # packet not strictly fresher
        UserState(aoi=3, waiting_time=2, cache_occupied=True).validate(10)
    with pytest.raises(ValueError):    # empty cache must carry wait 0
        UserState(aoi=5, waiting_time=2).validate(10)
    with pytest.raises(ValueError):    # wait beyond cap-2
        UserState(aoi=10, waiting_time=9, cache_occupied=True).validate(10)


def test_action_validation():
    cfg = make_config()
    ActionVector((1, 0), (0, 0)).validate([False, False], cfg)
    with pytest.raises(ValueError):
        ActionVector((1, 1), (0, 0)).validate([False, False], cfg)
    with pytest.raises(ValueError):    # retransmit needs a cached packet
        ActionVector((0, 0), (1, 0)).validate([False, False], cfg)
    with pytest.raises(ValueError):    # same user samples and resends
        ActionVector((1, 0), (1, 0)).validate([True, False], cfg)
    with pytest.raises(ValueError):    # one acting user in single mode
        ActionVector((1, 0), (0, 1)).validate([False, True], cfg)
    dual = make_config(single_transmitter_mode=False)
    ActionVector((1, 0), (0, 1)).validate([False, True], dual)


def test_from_pair():
    act = ActionVector.from_pair(3, 1, None)
    assert act.sample == (0, 1, 0) and act.retransmit == (0, 0, 0)


# ── reference stepper ─────────────────────────────────────────────────────

def test_step_users_delivery_path():
    cfg = make_config(num_users=1, success_prob=1.0)
    states = initial_states(cfg)
    nxt, out = step_users(states, ActionVector((1,), (0,)), [0.0], cfg)
    assert out.delivered == (True,)
    assert out.cost == 6.0
    assert nxt[0] == UserState(aoi=1, vqueue=1.0)


def test_step_users_failure_keeps_sample():
    cfg = make_config(num_users=1, success_prob=0.0)
    states = [UserState(aoi=5, vqueue=2.0)]
    nxt, out = step_users(states, ActionVector((1,), (0,)), [0.5], cfg)
    assert out.delivered == (False,)
    assert nxt[0].aoi == 6
    assert nxt[0].cache_occupied and nxt[0].waiting_time == 1
    assert nxt[0].vqueue == pytest.approx(max(2.0 - 5.0, 0.0) + 6)


def test_step_users_retransmission_resets_to_wait_plus_one():
    cfg = make_config(num_users=1, success_prob=1.0)
    states = [UserState(aoi=7, waiting_time=2, cache_occupied=True)]
    nxt, out = step_users(states, ActionVector((0,), (1,)), [0.0], cfg)
    assert nxt[0].aoi == 3
    assert not nxt[0].cache_occupied
    assert out.cost == 5.0


def test_step_users_rejects_invalid_action():
    cfg = make_config()
    with pytest.raises(ValueError):
        step_users(initial_states(cfg), ActionVector((0, 0), (1, 0)),
                   [0.5, 0.5], cfg)


def test_random_walk_stays_in_reachable_states():
    """Whatever the action sequence, every produced state must validate."""
    rng = np.random.default_rng(77)
    cfg = make_config(num_users=2, success_prob=0.5, aoi_cap=6,
                      single_transmitter_mode=False)
    states = initial_states(cfg)
    for _ in range(600):
        occ = [s.cache_occupied for s in states]
        choices = [(None, None)]
        for k in range(2):
            choices.append((k, None))
            if occ[k]:
                choices.append((None, k))
        if occ[1]:
            choices.append((0, 1))
        if occ[0]:
            choices.append((1, 0))
        sampler, resender = choices[rng.integers(len(choices))]
        action = ActionVector.from_pair(2, sampler, resender)
        states, _ = step_users(states, action, rng.random(2).tolist(), cfg)
        for st in states:
            st.validate(cfg.aoi_cap)


# ── probability grid ──────────────────────────────────────────────────────

def test_probability_grid():
    assert probability_grid(0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert len(probability_grid(0.01)) == 101
    assert probability_grid(1.0) == [0.0, 1.0]


@pytest.mark.parametrize("step", [0.3, 0.0, 1.5, -0.1])
def test_probability_grid_rejects_bad_steps(step):
    with pytest.raises(ValueError):
        probability_grid(step)


def test_grid_intervals_stop_at_a_million():
    """Checked on grid_intervals: an unbounded probability_grid(1e-9) would
    build its 10**9-entry list before anything failed."""
    assert grid_intervals(1e-6) == 10 ** 6
    for step in (1e-9, 5e-324):        # 1 / 5e-324 overflows to inf
        with pytest.raises(ValueError, match="below the finest step"):
            grid_intervals(step)


# ── package-wide ──────────────────────────────────────────────────────────

def test_every_module_cache_is_bounded():
    """Each module-level cache in the package is an ``lru_cache`` with a
    fixed ``maxsize``: no run leaves an unbounded cache behind."""
    caches = {}
    for info in pkgutil.iter_modules(aoisched.__path__):
        module = importlib.import_module(f"aoisched.{info.name}")
        caches.update({f"{info.name}.{name}": value
                       for name, value in vars(module).items()
                       if hasattr(value, "cache_info")})
    assert {"model.transition_table", "ofrp.grid_table", "ofrp.metrics",
            "simulate._tally_rows", "simulate._scored_rows",
            "simulate._slot_body"} <= set(caches)
    unbounded = [name for name, cache in caches.items()
                 if cache.cache_info().maxsize is None]
    assert unbounded == []
