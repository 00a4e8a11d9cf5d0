"""Slow, obviously correct twins of the simulation engine, and its fixtures.

``simulate.run`` steps every user through ``model.transition_table``.
These helpers do not:

- ``step_users`` composes the update laws of ``model`` literally, one slot
  and one user at a time; ``initial_states`` is the state a run starts in
  and ``SlotOutcome`` what one slot produced;
- ``channel_uniforms`` and ``policy_rng`` hand out the randomness a run
  consumes, from ``simulate._generators``, the package's one seeding
  recipe, so a test can replay a run through ``step_users``;
- ``traced_run`` runs ``simulate.run`` and also returns what each user
  stepped through in every slot, for comparing runs slot by slot;
- ``IdlePolicy`` and ``AlwaysSamplePolicy`` are fixed policies with known
  outcomes, both planned, for the engine's degenerate-channel checks;
- ``probability_grid`` lists the search grid's values, the twin of the
  index arithmetic ``forp.optimize`` scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from aoisched import simulate
from aoisched.model import (ActionVector, SystemConfig, UserState, aoi_step,
                            grid_intervals, slot_cost, vqueue_step,
                            waiting_time_step)


@dataclass(frozen=True)
class SlotOutcome:
    """What one slot produced: per-user delivery flags and the realized cost."""

    delivered: tuple[bool, ...]
    cost: float


def step_users(states: Sequence[UserState], action: ActionVector,
               channel: Sequence[float], cfg: SystemConfig,
               ) -> tuple[list[UserState], SlotOutcome]:
    """Advance every user by one slot, composing the update laws literally.

    ``channel`` supplies one uniform draw per user; user k's transmission
    succeeds when it acts and ``channel[k] < success_prob[k]``.  This is the
    slow, obviously-correct counterpart of the transition table both paths
    of the simulation engine step through, and is used to cross-check it.
    """
    action.validate([st.cache_occupied for st in states], cfg)
    new_states: list[UserState] = []
    delivered_flags: list[bool] = []
    for k, st in enumerate(states):
        sampled = bool(action.sample[k])
        acted = sampled or bool(action.retransmit[k])
        delivered = acted and channel[k] < cfg.success_prob[k]
        wait_tx = 0 if sampled else st.waiting_time
        nxt = aoi_step(st.aoi, wait_tx, delivered, cfg.aoi_cap)
        occ, wt = waiting_time_step(
            st.cache_occupied, st.waiting_time, sampled=sampled,
            delivered=delivered, next_aoi=nxt, cap=cfg.aoi_cap)
        new_states.append(UserState(
            aoi=nxt, waiting_time=wt, cache_occupied=occ,
            vqueue=vqueue_step(st.vqueue, nxt, cfg.aoi_limit[k])))
        delivered_flags.append(delivered)
    return new_states, SlotOutcome(tuple(delivered_flags), slot_cost(action, cfg))


def initial_states(cfg: SystemConfig) -> list[UserState]:
    """Start-of-run state: age 1, empty cache, empty virtual queue."""
    return [UserState(aoi=1) for _ in range(cfg.num_users)]


def channel_uniforms(cfg: SystemConfig, replica: int = 0,
                     horizon: int | None = None) -> np.ndarray:
    """The (num_users, horizon) channel draws ``run`` consumes, so a test
    can replay the same randomness through ``step_users``."""
    horizon = cfg.horizon if horizon is None else horizon
    return np.vstack([g.random(horizon)
                      for g in simulate._generators(cfg, replica)[1:]])


def policy_rng(cfg: SystemConfig, replica: int = 0) -> np.random.Generator:
    """The private generator ``run`` hands the policy."""
    return simulate._generators(cfg, replica)[0]


def traced_run(policy: simulate.Policy, cfg: SystemConfig, replica: int = 0,
               ) -> tuple[simulate.SimStats, np.ndarray, np.ndarray]:
    """``simulate.run``'s statistics, each user's (state, event) pair in
    every slot and its virtual queue at the end of it, burn-in included:
    ``(stats, pairs, queues)``, the last two (num_users, horizon) arrays
    captured as ``_Tally.add`` takes each block."""
    pairs, queues = [], []
    add, rebuild = simulate._Tally.add, simulate._queues

    def queued(tally, ages):
        vqs = rebuild(tally, ages)
        queues.append(vqs.copy())   # the tally's in-order sums overwrite vqs
        return vqs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate._Tally, "add", lambda tally, b0, block:
                      pairs.append(block) or add(tally, b0, block))
        patch.setattr(simulate, "_queues", queued)
        stats = simulate.run(policy, cfg, replica)
    return stats, np.concatenate(pairs, 1), np.concatenate(queues, 1)


class IdlePolicy(simulate.Policy):
    """Never acts; ages drift to the cap."""

    name = "idle"

    def reset(self, cfg, rng):
        self._users = cfg.num_users

    def decide(self, t, aoi, waiting, occupied, vqueue):
        return None, None

    def plan(self, n_slots):
        idle = np.zeros((self._users, n_slots), dtype=np.int8)
        return idle, idle


class AlwaysSamplePolicy(simulate.Policy):
    """Samples a fresh packet for one fixed user every slot."""

    name = "always-sample"

    def __init__(self, user: int = 0):
        self.user = user

    def reset(self, cfg, rng):
        self._users = cfg.num_users

    def decide(self, t, aoi, waiting, occupied, vqueue):
        return self.user, None

    def plan(self, n_slots):
        if not 0 <= self.user < self._users:
            return None     # the slot loop reports the bad index
        sample = np.zeros((self._users, n_slots), dtype=np.int8)
        sample[self.user] = 1
        return sample, sample


def probability_grid(step: float) -> list[float]:
    """Evenly spaced probabilities 0, step, ..., 1 (step must divide 1)."""
    n = grid_intervals(step)
    return [i / n for i in range(n + 1)]
