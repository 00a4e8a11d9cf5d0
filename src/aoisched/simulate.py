"""Slot-level discrete-event engine for status-updating policies.

The engine owns the exogenous randomness and the state evolution; a policy
only maps the observed slot state to an action.  Channel outcomes are drawn
from per-user substreams indexed by (seed, replica, user, slot), so for a
fixed configuration and replica every policy faces the identical channel
realization — A/B comparisons between policies are paired by construction.

Event order within a slot: the policy decides; a sampling user replaces its
cached packet with a fresh one (waiting time 0); the acting transmissions
resolve as Bernoulli trials; ages and caches update; virtual queues update.
Statistics record the post-update age, so histograms match the stationary
state of the induced chain.
"""

from __future__ import annotations

import abc
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig

_CHANNEL_BLOCK = 1 << 16
_TRACE_POINTS = 100


# ──────────────────────────────────────────────────────────────────────────
#  policy interface
# ──────────────────────────────────────────────────────────────────────────

class Policy(abc.ABC):
    """Maps the full slot state to (sampling user, retransmitting user).

    Either slot of the returned pair may be None (nobody samples / nobody
    retransmits).  ``reset`` is called once per run before the first slot and
    receives the run's private random generator; a policy instance may
    therefore be reused across sequential runs.
    """

    name = "policy"

    def reset(self, cfg: SystemConfig, rng: np.random.Generator) -> None:
        """Prepare for a fresh run.  Default: nothing to do."""

    @abc.abstractmethod
    def decide(self, t: int, aoi: list[int], waiting: list[int],
               occupied: list[bool], vqueue: list[float],
               ) -> tuple[int | None, int | None]:
        ...


class IdlePolicy(Policy):
    """Never acts; ages drift to the cap."""

    name = "idle"

    def decide(self, t, aoi, waiting, occupied, vqueue):
        return None, None


class AlwaysSamplePolicy(Policy):
    """Samples a fresh packet for one fixed user every slot."""

    name = "always-sample"

    def __init__(self, user: int = 0):
        self.user = user

    def decide(self, t, aoi, waiting, occupied, vqueue):
        return self.user, None


# ──────────────────────────────────────────────────────────────────────────
#  run statistics
# ──────────────────────────────────────────────────────────────────────────

@dataclass
class SimStats:
    """Aggregates of one run (slots before ``burn_in`` are excluded)."""

    policy: str
    horizon: int
    burn_in: int
    seed: int
    replica: int
    avg_cost: float
    avg_aoi: tuple[float, ...]
    avg_vqueue: tuple[float, ...]
    final_vqueue_over_t: tuple[float, ...]
    empty_fraction: tuple[float, ...]       # decision instants with empty cache
    sample_freq: tuple[float, ...]
    retransmit_freq: tuple[float, ...]
    delivery_attempts: tuple[int, ...]
    deliveries: tuple[int, ...]
    aoi_histogram: tuple[tuple[int, ...], ...]   # counts for age 1..cap, per user
    vqueue_trace: tuple[tuple[tuple[int, float], ...], ...]  # (slot, X/slot)
    state_freq: tuple[dict, ...] | None = None


def channel_uniforms(cfg: SystemConfig, replica: int = 0,
                     horizon: int | None = None) -> np.ndarray:
    """The (num_users, horizon) channel draws run() will consume.

    Exposed so tests can replay the exact same randomness through the
    reference stepper.
    """
    horizon = cfg.horizon if horizon is None else horizon
    root = np.random.SeedSequence(cfg.seed, spawn_key=(replica,))
    children = root.spawn(1 + cfg.num_users)
    return np.vstack([
        np.random.default_rng(children[1 + k]).random(horizon)
        for k in range(cfg.num_users)])


def policy_rng(cfg: SystemConfig, replica: int = 0) -> np.random.Generator:
    """The private generator handed to the policy for this run."""
    root = np.random.SeedSequence(cfg.seed, spawn_key=(replica,))
    return np.random.default_rng(root.spawn(1)[0])


# ──────────────────────────────────────────────────────────────────────────
#  the engine
# ──────────────────────────────────────────────────────────────────────────

def run(policy: Policy, cfg: SystemConfig, replica: int = 0, *,
        track_states: bool = False, check_actions: bool = True) -> SimStats:
    """Simulate ``cfg.horizon`` slots and return aggregate statistics.

    The loop mirrors ``model.step_users`` exactly but inlines the update laws
    for speed; test suites cross-check the two slot by slot.  With
    ``check_actions`` on, any policy output that violates the scheduling
    constraints raises ValueError naming the slot.
    """
    n = cfg.num_users
    cap = cfg.aoi_cap
    horizon = cfg.horizon
    burn = cfg.burn_in
    p = list(cfg.success_prob)
    limit = list(cfg.aoi_limit)
    act_cost_sample = cfg.sample_cost + cfg.transmit_cost
    act_cost_resend = cfg.transmit_cost
    single = cfg.single_transmitter_mode

    root = np.random.SeedSequence(cfg.seed, spawn_key=(replica,))
    children = root.spawn(1 + n)
    policy.reset(cfg, np.random.default_rng(children[0]))
    chan_rng = [np.random.default_rng(children[1 + k]) for k in range(n)]

    aoi = [1] * n
    wait = [0] * n
    occ = [False] * n
    vq = [0.0] * n

    cost_sum = 0.0
    aoi_sum = [0] * n
    vq_sum = [0.0] * n
    empty_cnt = [0] * n
    s_cnt = [0] * n
    r_cnt = [0] * n
    attempts = [0] * n
    delivered_cnt = [0] * n
    hist = [[0] * cap for _ in range(n)]
    freq: list[dict] | None = [dict() for _ in range(n)] if track_states else None
    trace: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    trace_every = max(1, horizon // _TRACE_POINTS)

    blocks: list[list[float]] = [[] for _ in range(n)]
    block_end = 0
    block_start = 0

    for t in range(horizon):
        if t >= block_end:
            size = min(_CHANNEL_BLOCK, horizon - t)
            blocks = [chan_rng[k].random(size).tolist() for k in range(n)]
            block_start = t
            block_end = t + size
        ti = t - block_start

        sampler, resender = policy.decide(t, aoi, wait, occ, vq)

        if check_actions:
            if sampler is not None and not 0 <= sampler < n:
                raise ValueError(f"slot {t}: sampler index {sampler} out of range")
            if resender is not None:
                if not 0 <= resender < n:
                    raise ValueError(f"slot {t}: retransmitter index {resender} out of range")
                if not occ[resender]:
                    raise ValueError(
                        f"slot {t}: user {resender} has no cached packet to retransmit")
                if resender == sampler:
                    raise ValueError(
                        f"slot {t}: user {resender} cannot sample and retransmit at once")
            if single and sampler is not None and resender is not None:
                raise ValueError(
                    f"slot {t}: single-transmitter mode allows one acting user")

        rec = t >= burn
        for k in range(n):
            sampled = k == sampler
            acting = sampled or k == resender
            if rec and not occ[k]:
                empty_cnt[k] += 1
            if acting:
                hit = blocks[k][ti] < p[k]
                if rec:
                    attempts[k] += 1
                    if hit:
                        delivered_cnt[k] += 1
            else:
                hit = False
            if hit:
                a_next = 1 if sampled else wait[k] + 1
                occ[k] = False
                wait[k] = 0
            else:
                a = aoi[k]
                a_next = a + 1 if a < cap else cap
                if sampled:
                    if cap <= 2 or 2 >= a_next:
                        occ[k] = False
                        wait[k] = 0
                    else:
                        occ[k] = True
                        wait[k] = 1
                elif occ[k]:
                    w = wait[k] + 1
                    if w >= cap - 1 or w + 1 >= a_next:
                        occ[k] = False
                        wait[k] = 0
                    else:
                        wait[k] = w
            aoi[k] = a_next
            served = vq[k] - limit[k]
            vq[k] = (served if served > 0.0 else 0.0) + a_next
            if rec:
                aoi_sum[k] += a_next
                vq_sum[k] += vq[k]
                hist[k][a_next - 1] += 1
                if freq is not None:
                    key = (occ[k], wait[k], a_next)
                    freq[k][key] = freq[k].get(key, 0) + 1
        if rec:
            if sampler is not None:
                cost_sum += act_cost_sample
                s_cnt[sampler] += 1
            if resender is not None:
                cost_sum += act_cost_resend
                r_cnt[resender] += 1
        if (t + 1) % trace_every == 0 or t + 1 == horizon:
            for k in range(n):
                tr = trace[k]
                if not tr or tr[-1][0] != t + 1:
                    tr.append((t + 1, vq[k] / (t + 1)))

    recorded = horizon - burn
    return SimStats(
        policy=policy.name,
        horizon=horizon,
        burn_in=burn,
        seed=cfg.seed,
        replica=replica,
        avg_cost=cost_sum / recorded,
        avg_aoi=tuple(s / recorded for s in aoi_sum),
        avg_vqueue=tuple(s / recorded for s in vq_sum),
        final_vqueue_over_t=tuple(x / horizon for x in vq),
        empty_fraction=tuple(c / recorded for c in empty_cnt),
        sample_freq=tuple(c / recorded for c in s_cnt),
        retransmit_freq=tuple(c / recorded for c in r_cnt),
        delivery_attempts=tuple(attempts),
        deliveries=tuple(delivered_cnt),
        aoi_histogram=tuple(tuple(h) for h in hist),
        vqueue_trace=tuple(tuple(tr) for tr in trace),
        state_freq=tuple(freq) if freq is not None else None,
    )


# ──────────────────────────────────────────────────────────────────────────
#  replicas
# ──────────────────────────────────────────────────────────────────────────

@dataclass
class ReplicaSummary:
    """Across-replica means and spread (stdev with ddof=1, stderr = sd/sqrt(n))."""

    n_replicas: int
    mean_cost: float
    stdev_cost: float
    stderr_cost: float
    mean_aoi: tuple[float, ...]
    stderr_aoi: tuple[float, ...]
    mean_vqueue: tuple[float, ...]
    mean_empty_fraction: tuple[float, ...]
    mean_sample_freq: tuple[float, ...]
    mean_retransmit_freq: tuple[float, ...]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _stdev(values) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def summarize(stats: list[SimStats]) -> ReplicaSummary:
    n = len(stats)
    users = range(len(stats[0].avg_aoi))
    sd_cost = _stdev(s.avg_cost for s in stats)
    return ReplicaSummary(
        n_replicas=n,
        mean_cost=_mean(s.avg_cost for s in stats),
        stdev_cost=sd_cost,
        stderr_cost=sd_cost / math.sqrt(n),
        mean_aoi=tuple(_mean(s.avg_aoi[k] for s in stats) for k in users),
        stderr_aoi=tuple(
            _stdev(s.avg_aoi[k] for s in stats) / math.sqrt(n) for k in users),
        mean_vqueue=tuple(_mean(s.avg_vqueue[k] for s in stats) for k in users),
        mean_empty_fraction=tuple(
            _mean(s.empty_fraction[k] for s in stats) for k in users),
        mean_sample_freq=tuple(
            _mean(s.sample_freq[k] for s in stats) for k in users),
        mean_retransmit_freq=tuple(
            _mean(s.retransmit_freq[k] for s in stats) for k in users),
    )


def _replica_task(args) -> SimStats:
    policy, cfg, replica = args
    return run(policy, cfg, replica)


def run_replicas(policy: Policy, cfg: SystemConfig, n_replicas: int,
                 threads: int = 1) -> tuple[list[SimStats], ReplicaSummary]:
    """Independent repetitions with derived seeds, merged in replica order."""
    if n_replicas < 1:
        raise ValueError("n_replicas must be positive")
    if threads > 1 and n_replicas > 1:
        with ProcessPoolExecutor(max_workers=min(threads, n_replicas)) as pool:
            stats = list(pool.map(
                _replica_task, [(policy, cfg, i) for i in range(n_replicas)]))
    else:
        stats = [run(policy, cfg, i) for i in range(n_replicas)]
    return stats, summarize(stats)
