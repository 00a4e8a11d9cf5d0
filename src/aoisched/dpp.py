"""Drift-plus-penalty scheduler for average-age constraints.

Each user carries a virtual queue that grows with its age and drains by its
long-run age limit; the scheduler minimizes, slot by slot, a weighted sum of
expected queue growth and transmission cost over the feasible actions.  The
per-slot objective is separable across users, so the exhaustive minimization
reduces to comparing one delta score per candidate action against idling —
a decision that is O(K) in single-transmitter mode and O(K²) otherwise (it
tries every sampler/resender pair) and provably equals brute force over the
action set.
"""

from __future__ import annotations

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
    chosen action.  Infeasible actions raise ValueError.
    """
    action.validate([s.cache_occupied for s in states], cfg)
    total = 0.0
    for k, st in enumerate(states):
        w = cfg.success_prob[k] * (action.sample[k] + action.retransmit[k])
        wait_eff = 0 if action.sample[k] else st.waiting_time
        aged = min(st.aoi + 1, cfg.aoi_cap)
        expected_next = (wait_eff + 1) * w + aged * (1.0 - w)
        total += st.vqueue * (expected_next - cfg.aoi_limit[k])
    return total + cfg.v_weight * slot_cost(action, cfg)


def _decide_core(aoi: Sequence[int], waiting: Sequence[int],
                 occupied: Sequence[bool], vqueue: Sequence[float],
                 success_prob: Sequence[float], cap: int,
                 sample_penalty: float, resend_penalty: float,
                 single: bool) -> tuple[int | None, int | None]:
    """Shared argmin over delta scores (candidate minus idle, per user).

    ``simulate._slot_loop`` scores ``DppPolicy`` runs with the same float
    expressions and tie order; change both together.
    """
    n = len(aoi)
    best = 0.0
    choice: tuple[int | None, int | None] = (None, None)
    d_sample = [0.0] * n
    d_resend = [0.0] * n
    for k in range(n):
        aged = aoi[k] + 1
        if aged > cap:
            aged = cap
        xp = vqueue[k] * success_prob[k]
        ds = xp * (1 - aged) + sample_penalty
        d_sample[k] = ds
        if ds < best:
            best = ds
            choice = (k, None)
        if occupied[k]:
            dr = xp * (waiting[k] + 1 - aged) + resend_penalty
            d_resend[k] = dr
            if dr < best:
                best = dr
                choice = (None, k)
    if not single:
        for i in range(n):
            for j in range(n):
                if j != i and occupied[j]:
                    d = d_sample[i] + d_resend[j]
                    if d < best:
                        best = d
                        choice = (i, j)
    return choice


def _penalties(cfg: SystemConfig) -> tuple[float, float]:
    """The V-weighted prices of a sample and of a resend."""
    return (cfg.v_weight * (cfg.sample_cost + cfg.transmit_cost),
            cfg.v_weight * cfg.transmit_cost)


def decide(states: Sequence[UserState], cfg: SystemConfig) -> ActionVector:
    """Cost-drift-optimal action for the given slot state.

    Equals the brute-force argmin of ``candidate_score`` over
    ``feasible_actions``, with ties resolved in canonical order.
    """
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
