"""Drift-plus-penalty scheduler for average-age constraints.

Each user carries a virtual queue that grows with its age and drains by its
long-run age limit; the scheduler minimizes, slot by slot, a weighted sum of
expected queue growth and transmission cost over the feasible actions
(Neely, *Stochastic Network Optimization*, 2010).  The per-slot objective is
separable across users, so each action's score less idle's is the sum of one
float delta per role: the sampler's and the resender's.  The rule is the
first action in ``feasible_actions`` order with the least delta score.

In exact arithmetic that equals ``brute_force``, the first least
``candidate_score``.  In floats the two can break a near-tie differently,
and either can miss the exact argmin: at slot 102 of a 3-user
single-transmitter run (success_prob 0.3, 0.6, 0.9, limits 4.5, 6, 3.5,
V 10, seed 7, replica 1) sampling user 0 and sampling user 2 both score
-139.0 as float deltas, so the rule samples user 0, though in exact
arithmetic user 2 is cheaper by 45 * 2**-52.  The float delta rule is the
specification: the engine's CSVs follow it bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

from .model import ActionVector, SystemConfig, UserState, slot_cost
from .simulate import Policy


def feasible_actions(occupied: Sequence[bool],
                     single_transmitter: bool = True,
                     ) -> list[tuple[int | None, int | None]]:
    """Every allowed (sampler, retransmitter) pair, in canonical order.

    Idle first, then single actions by user (sampling before retransmitting),
    then — only without the single-transmitter restriction — sampler/resender
    pairs in lexicographic order.  Tie-breaking everywhere in the package
    means "first in this list".
    """
    n = len(occupied)
    acts: list[tuple[int | None, int | None]] = [(None, None)]
    for k in range(n):
        acts.append((k, None))
        if occupied[k]:
            acts.append((None, k))
    if not single_transmitter:
        for i in range(n):
            for j in range(n):
                if j != i and occupied[j]:
                    acts.append((i, j))
    return acts


def candidate_score(states: Sequence[UserState], action: ActionVector,
                    cfg: SystemConfig) -> float:
    """Full per-slot objective: queue-weighted expected age change plus cost.

    For each user the expected next age is (wait+1) on success — wait being 0
    for a fresh sample, or the cached packet's waiting time — and the aged
    current value on failure, weighted by the delivery probability of the
    chosen action.  An infinite limit's term is left out: it is the same
    for every action, and would make every score -inf or nan.  Infeasible
    actions raise ValueError.
    """
    action.validate([s.cache_occupied for s in states], cfg)
    total = 0.0
    for k, st in enumerate(states):
        w = cfg.success_prob[k] * (action.sample[k] + action.retransmit[k])
        wait_eff = 0 if action.sample[k] else st.waiting_time
        aged = min(st.aoi + 1, cfg.aoi_cap)
        expected_next = (wait_eff + 1) * w + aged * (1.0 - w)
        limit = cfg.aoi_limit[k]
        total += st.vqueue * (expected_next - limit if math.isfinite(limit)
                              else expected_next)
    return total + cfg.v_weight * slot_cost(action, cfg)


def brute_force(states: Sequence[UserState], cfg: SystemConfig) -> ActionVector:
    """The first feasible action with the least ``candidate_score``: the
    slow twin of ``decide``, in whole-slot objectives."""
    occupied = [s.cache_occupied for s in states]
    actions = [ActionVector.from_pair(cfg.num_users, *pair) for pair
               in feasible_actions(occupied, cfg.single_transmitter_mode)]
    return min(actions, key=lambda action: candidate_score(states, action, cfg))


def _decide_core(aoi: Sequence[int], waiting: Sequence[int],
                 occupied: Sequence[bool], vqueue: Sequence[float],
                 success_prob: Sequence[float], cap: int,
                 sample_penalty: float, resend_penalty: float,
                 single: bool) -> tuple[int | None, int | None]:
    """The first feasible action with the least delta score (its score
    minus idle's): the sampler's sample delta plus the resender's resend
    delta, 0.0 for an absent role.

    ``simulate._slot_loop`` scores ``DppPolicy`` runs with the same float
    expressions and tie order, and skips a user's deltas below
    ``simulate._scored_rows``' gate, where neither can be negative; change all
    three together.
    """
    d_sample: dict[int | None, float] = {None: 0.0}
    d_resend: dict[int | None, float] = {None: 0.0}
    for k, (a, w, x, p) in enumerate(zip(aoi, waiting, vqueue, success_prob)):
        aged = min(a + 1, cap)
        xp = x * p
        d_sample[k] = xp * (1 - aged) + sample_penalty
        d_resend[k] = xp * (w + 1 - aged) + resend_penalty
    return min(feasible_actions(occupied, single),
               key=lambda act: d_sample[act[0]] + d_resend[act[1]])


def _penalties(cfg: SystemConfig) -> tuple[float, float]:
    """The V-weighted prices of a sample and of a resend."""
    return (cfg.v_weight * (cfg.sample_cost + cfg.transmit_cost),
            cfg.v_weight * cfg.transmit_cost)


def decide(states: Sequence[UserState], cfg: SystemConfig) -> ActionVector:
    """Cost-drift-optimal action for the given slot state: the first action
    in ``feasible_actions`` order with the least float delta score, which
    need not be the exact argmin (see the module docstring)."""
    sampler, resender = _decide_core(
        [s.aoi for s in states], [s.waiting_time for s in states],
        [s.cache_occupied for s in states], [s.vqueue for s in states],
        cfg.success_prob, cfg.aoi_cap, *_penalties(cfg),
        cfg.single_transmitter_mode)
    return ActionVector.from_pair(cfg.num_users, sampler, resender)


class DppPolicy(Policy):
    """Runs the per-slot minimization inside the simulation engine.

    Stateless apart from configuration: the virtual queues it weighs are part
    of the engine's slot state, updated after every age transition.  ``run``
    scores it itself from ``penalties``; ``decide`` is the same rule for
    callers that step the state by hand.
    """

    name = "dpp"

    def reset(self, cfg: SystemConfig, rng) -> None:
        self._cfg = cfg

    def penalties(self):
        return _penalties(self._cfg)

    def decide(self, t, aoi, waiting, occupied, vqueue):
        cfg = self._cfg
        return _decide_core(
            aoi, waiting, occupied, vqueue, cfg.success_prob, cfg.aoi_cap,
            *_penalties(cfg), cfg.single_transmitter_mode)
