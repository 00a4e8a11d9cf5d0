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

A run takes one of two paths with the same results.  A policy that sees the
state only through each user's cache flag declares its actions ahead through
``Policy.plan`` and is table-walked: each user steps through a per-cap
(state, event) -> state table built from the ``model`` update laws, a block
of slots at a time, and the integer statistics are numpy counts.  Every
other policy runs slot by slot through a loop that inlines those laws.  Both
paths check every realized action.
"""

from __future__ import annotations

import abc
import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .model import SystemConfig, aoi_step, waiting_time_step

_DRAW_BLOCK = 8192
_TRACE_POINTS = 100


# ──────────────────────────────────────────────────────────────────────────
#  policy interface
# ──────────────────────────────────────────────────────────────────────────

class Policy(abc.ABC):
    """Maps the full slot state to (sampling user, retransmitting user).

    Either slot of the returned pair may be None (nobody samples / nobody
    retransmits).  ``reset`` is called once per run before the first slot and
    receives the run's private random generator, so an instance that has
    already run may be reused for sequential runs and pickled to
    ``run_replicas`` worker processes; its state must survive pickling or be
    rebuilt by ``reset``.

    A policy whose action depends on the state only through each user's
    cache flag may also implement ``plan``; ``run`` then table-walks it and
    never calls ``decide``.
    """

    name = "policy"

    def reset(self, cfg: SystemConfig, rng: np.random.Generator) -> None:
        """Prepare for a fresh run.  Default: nothing to do."""

    @abc.abstractmethod
    def decide(self, t: int, aoi: list[int], waiting: list[int],
               occupied: list[bool], vqueue: list[float],
               ) -> tuple[int | None, int | None]:
        ...

    def plan(self, n_slots: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The actions of the run's next ``n_slots`` slots, or None (the
        default) to be asked slot by slot through ``decide``.

        The plan is ``(if_empty, if_occupied)``: two ``(num_users,
        n_slots)`` int8 arrays holding each user's action in each slot when
        its cache is empty or occupied, coded 0 idle, 1 sample, 2 resend.
        Successive calls cover successive slots.  A plan must take the
        run's generator in the order ``decide`` does, so that both give the
        same actions; a run uses one or the other, never both.
        """
        return None


class IdlePolicy(Policy):
    """Never acts; ages drift to the cap."""

    name = "idle"

    def reset(self, cfg, rng):
        self._users = cfg.num_users

    def decide(self, t, aoi, waiting, occupied, vqueue):
        return None, None

    def plan(self, n_slots):
        idle = np.zeros((self._users, n_slots), dtype=np.int8)
        return idle, idle


class AlwaysSamplePolicy(Policy):
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


# ──────────────────────────────────────────────────────────────────────────
#  randomness
# ──────────────────────────────────────────────────────────────────────────

def _generators(cfg: SystemConfig, replica: int) -> list[np.random.Generator]:
    """``[policy generator, channel generator of user 0, 1, ...]`` for a run.

    The only seeding recipe in the package: every run of the same (seed,
    replica) gets the same per-user channel streams, whatever the policy.
    """
    root = np.random.SeedSequence(cfg.seed, spawn_key=(replica,))
    return [np.random.default_rng(s) for s in root.spawn(1 + cfg.num_users)]


def uniform_stream(rng: np.random.Generator) -> Iterator[float]:
    """Endless uniform doubles from ``rng``, drawn ``_DRAW_BLOCK`` at a time.

    PCG64 doubles do not depend on how the draws are chunked, so the first n
    values equal ``rng.random(n)``.
    """
    return itertools.chain.from_iterable(
        rng.random(_DRAW_BLOCK).tolist() for _ in itertools.repeat(None))


def channel_uniforms(cfg: SystemConfig, replica: int = 0,
                     horizon: int | None = None) -> np.ndarray:
    """The (num_users, horizon) channel draws run() will consume.

    Exposed so tests can replay the exact same randomness through the
    reference stepper.
    """
    horizon = cfg.horizon if horizon is None else horizon
    return np.vstack([g.random(horizon) for g in _generators(cfg, replica)[1:]])


def policy_rng(cfg: SystemConfig, replica: int = 0) -> np.random.Generator:
    """The private generator handed to the policy for this run."""
    return _generators(cfg, replica)[0]


# ──────────────────────────────────────────────────────────────────────────
#  the engine
# ──────────────────────────────────────────────────────────────────────────

class _Totals(NamedTuple):
    """What either path accumulates over a run; ``_stats`` turns it into
    a ``SimStats``."""

    cost_sum: float
    vq_sum: list[float]
    vq: list[float]
    empty: list[int]
    samples: list[int]
    resends: list[int]
    delivered: list[int]
    hist: list[list[int]]
    trace: list[list[tuple[int, float]]]
    freq: list[dict] | None


def run(policy: Policy, cfg: SystemConfig, replica: int = 0, *,
        track_states: bool = False) -> SimStats:
    """Simulate ``cfg.horizon`` slots and return aggregate statistics.

    A policy whose ``plan`` returns actions is table-walked (``_walk``);
    every other policy, and any policy at a cap above ``_WALK_MAX_CAP``,
    runs slot by slot (``_slot_loop``), whose loop inlines the update laws
    of ``model.step_users``; test suites cross-check the two paths and the
    stepper.  On both paths every action is checked: one that violates the
    scheduling constraints raises ValueError naming the slot.
    """
    policy_gen, *channel_gens = _generators(cfg, replica)
    policy.reset(cfg, policy_gen)
    plan = (policy.plan(min(_DRAW_BLOCK, cfg.horizon))
            if cfg.aoi_cap <= _WALK_MAX_CAP else None)
    if plan is None:
        totals = _slot_loop(policy, cfg, channel_gens, track_states)
    else:
        totals = _walk(policy, plan, cfg, channel_gens, track_states)
    return _stats(policy.name, cfg, replica, totals)


def _stats(name: str, cfg: SystemConfig, replica: int,
           totals: _Totals) -> SimStats:
    recorded = cfg.horizon - cfg.burn_in
    return SimStats(
        policy=name,
        horizon=cfg.horizon,
        burn_in=cfg.burn_in,
        seed=cfg.seed,
        replica=replica,
        avg_cost=totals.cost_sum / recorded,
        avg_aoi=tuple(sum(a * c for a, c in enumerate(h, 1)) / recorded
                      for h in totals.hist),
        avg_vqueue=tuple(s / recorded for s in totals.vq_sum),
        final_vqueue_over_t=tuple(x / cfg.horizon for x in totals.vq),
        empty_fraction=tuple(c / recorded for c in totals.empty),
        sample_freq=tuple(c / recorded for c in totals.samples),
        retransmit_freq=tuple(c / recorded for c in totals.resends),
        delivery_attempts=tuple(
            s + r for s, r in zip(totals.samples, totals.resends)),
        deliveries=tuple(totals.delivered),
        aoi_histogram=tuple(tuple(h) for h in totals.hist),
        vqueue_trace=tuple(tuple(tr) for tr in totals.trace),
        state_freq=tuple(totals.freq) if totals.freq is not None else None,
    )


def _slot_loop(policy: Policy, cfg: SystemConfig,
               channel_gens: list[np.random.Generator],
               track_states: bool) -> _Totals:
    """Ask the policy slot by slot; the slow twin of ``_walk``."""
    n = cfg.num_users
    cap = cfg.aoi_cap
    horizon = cfg.horizon
    burn = cfg.burn_in
    p = list(cfg.success_prob)
    limit = list(cfg.aoi_limit)
    act_cost_sample = cfg.sample_cost + cfg.transmit_cost
    act_cost_resend = cfg.transmit_cost
    single = cfg.single_transmitter_mode

    aoi = [1] * n
    wait = [0] * n
    occ = [False] * n
    vq = [0.0] * n

    cost_sum = 0.0
    vq_sum = [0.0] * n
    empty_cnt = [0] * n
    s_cnt = [0] * n
    r_cnt = [0] * n
    delivered_cnt = [0] * n
    hist = [[0] * cap for _ in range(n)]
    freq: list[dict] | None = [dict() for _ in range(n)] if track_states else None
    trace: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    trace_every = max(1, horizon // _TRACE_POINTS)

    draws = zip(*map(uniform_stream, channel_gens))
    for t, draw in zip(range(horizon), draws):
        sampler, resender = policy.decide(t, aoi, wait, occ, vq)

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
                hit = draw[k] < p[k]
                if rec and hit:
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
                trace[k].append((t + 1, vq[k] / (t + 1)))

    return _Totals(cost_sum, vq_sum, vq, empty_cnt, s_cnt, r_cnt,
                   delivered_cnt, hist, trace, freq)


# Walk events: (action if the cache is empty, action if occupied, channel
# hit), coded (3 * if_empty + if_occupied) * 2 + hit.
_EVENTS = 18
# Tables are built for caps up to this one (2,017 states, 36,306 entries);
# larger caps run slot by slot.
_WALK_MAX_CAP = 64


@functools.lru_cache(maxsize=4)
def _walk_table(cap: int) -> tuple[tuple, tuple, np.ndarray, np.ndarray]:
    """``(states, successor, occupied, age)`` for the table walk at ``cap``.

    ``states`` lists every reachable (occupied, waiting time, age) triple,
    empty caches first, so the start state (False, 0, 1) is index 0.
    ``successor[_EVENTS * s + e]`` is ``_EVENTS`` times the index of the
    state that event ``e`` leads to from state ``s``, composed from
    ``model.aoi_step`` and ``model.waiting_time_step``; ``occupied`` and
    ``age`` are read-only per-state arrays.  Events that break an action
    rule lead where the laws take them; the walk rejects them afterwards.
    At most four caps are kept; at ``_WALK_MAX_CAP`` a table takes about
    0.2 s to build and holds about 1.3 MB.
    """
    states = ([(False, 0, a) for a in range(1, cap + 1)]
              + [(True, w, a) for w in range(1, cap - 1)
                 for a in range(w + 2, cap + 1)])
    index = {s: i for i, s in enumerate(states)}
    successor = []
    for occupied, wait, aoi in states:
        for if_empty, if_occupied, hit in itertools.product(
                range(3), range(3), (False, True)):
            action = if_occupied if occupied else if_empty
            sampled = action == 1
            delivered = action != 0 and hit
            next_aoi = aoi_step(aoi, 0 if sampled else wait, delivered, cap)
            next_occupied, next_wait = waiting_time_step(
                occupied, wait, sampled=sampled, delivered=delivered,
                next_aoi=next_aoi, cap=cap)
            successor.append(
                _EVENTS * index[(next_occupied, next_wait, next_aoi)])
    occupied_of = np.array([s[0] for s in states])
    age_of = np.array([s[2] for s in states], dtype=np.intp)
    occupied_of.flags.writeable = False
    age_of.flags.writeable = False
    return tuple(states), tuple(successor), occupied_of, age_of


def _violation(t: int, sampling: np.ndarray, resending: np.ndarray,
               occupied: np.ndarray) -> str:
    """The error for slot ``t``'s realized actions, which break a rule; the
    slot loop's text for the rules it can meet."""
    if sampling.sum() > 1:
        return f"slot {t}: at most one user may sample per slot"
    if resending.sum() > 1:
        return f"slot {t}: at most one user may retransmit per slot"
    if (resending & ~occupied).any():
        return (f"slot {t}: user {int(resending.argmax())} has no cached "
                "packet to retransmit")
    return f"slot {t}: single-transmitter mode allows one acting user"


def _add_in_order(total: float, values) -> float:
    """``total`` plus ``values`` added one at a time, left to right, as the
    slot loop's ``+=`` does; ``sum`` and ``np.sum`` may round differently."""
    return float(np.add.accumulate(np.concatenate(([total], values)))[-1])


def _walk(policy: Policy, plan: tuple[np.ndarray, np.ndarray],
          cfg: SystemConfig,
          channel_gens: list[np.random.Generator],
          track_states: bool) -> _Totals:
    """Walk each user through ``_walk_table`` one ``_DRAW_BLOCK`` at a time.

    ``plan`` is the policy's first block.  Per block the Python loop does
    one table lookup per user and slot, plus the virtual-queue recursion
    and its sum in slot order with the slot loop's expression; the realized
    actions are then checked, and the integer statistics are numpy counts.
    The cost adds each recorded slot's sample price before its resend
    price, in slot order, as the slot loop does.
    """
    n = cfg.num_users
    cap = cfg.aoi_cap
    horizon = cfg.horizon
    burn = cfg.burn_in
    limit = cfg.aoi_limit
    single = cfg.single_transmitter_mode
    success = np.array(cfg.success_prob)[:, None]
    prices = np.array(
        [cfg.sample_cost + cfg.transmit_cost, cfg.transmit_cost], dtype=float)
    states, successor, occupied_of, age_of = _walk_table(cap)
    trace_every = max(1, horizon // _TRACE_POINTS)

    at = np.zeros(n, dtype=np.intp)        # state index; 0 is the start state
    vq = [0.0] * n
    cost_sum = 0.0
    vq_sum = [0.0] * n
    counts = np.zeros((4, n), dtype=np.int64)   # empty, sample, resend, delivered
    hist = np.zeros((n, cap), dtype=np.int64)
    freq: list[dict] | None = [dict() for _ in range(n)] if track_states else None
    trace: list[list[tuple[int, float]]] = [[] for _ in range(n)]

    for b0 in range(0, horizon, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, horizon - b0)
        rec = slice(max(0, burn - b0), m)       # this block's recorded slots
        if b0:
            plan = policy.plan(m)
        codes = np.asarray(plan)
        if codes.shape != (2, n, m) or codes.min() < 0 or codes.max() > 2:
            raise ValueError(
                f"slot {b0}: plan must be two ({n}, {m}) arrays of codes 0, 1, 2")
        hit = np.vstack([g.random(m) for g in channel_gens]) < success
        events = ((codes[0].astype(np.intp) * 3 + codes[1]) * 2 + hit).tolist()

        post = np.empty((n, m), dtype=np.intp)
        for k in range(n):
            s = _EVENTS * int(at[k])
            post[k] = [s := successor[s + e] for e in events[k]]
        post //= _EVENTS
        pre = np.concatenate((at[:, None], post[:, :-1]), axis=1)
        at = post[:, -1]

        occupied = occupied_of[pre]
        action = np.where(occupied, codes[1], codes[0])
        sampling = action == 1
        resending = action == 2
        bad = ((sampling.sum(0) > 1) | (resending.sum(0) > 1)
               | (resending & ~occupied).any(0))
        if single:
            bad |= sampling.sum(0) + resending.sum(0) > 1
        if bad.any():
            t = int(bad.argmax())
            raise ValueError(_violation(b0 + t, sampling[:, t], resending[:, t],
                                        occupied[:, t]))

        ages = age_of[post]
        for k in range(n):
            lim = limit[k]
            v = vq[k]
            vqs = [v := (served if (served := v - lim) > 0.0 else 0.0) + a
                   for a in ages[k].tolist()]
            vq[k] = v
            vq_sum[k] = _add_in_order(vq_sum[k], vqs[rec])
            marks = range(b0 // trace_every * trace_every + trace_every,
                          b0 + m + 1, trace_every)
            trace[k].extend((t1, vqs[t1 - 1 - b0] / t1) for t1 in marks)
            if b0 + m == horizon and horizon % trace_every:
                trace[k].append((horizon, v / horizon))

        counts += [(~occupied[:, rec]).sum(1), sampling[:, rec].sum(1),
                   resending[:, rec].sum(1), (hit & (action != 0))[:, rec].sum(1)]
        acted = np.stack((sampling[:, rec].any(0), resending[:, rec].any(0)), 1)
        cost_sum = _add_in_order(
            cost_sum, np.broadcast_to(prices, acted.shape)[acted])
        for k in range(n):
            hist[k] += np.bincount(ages[k, rec] - 1, minlength=cap)
            if freq is not None:
                seen, first, count = np.unique(
                    post[k, rec], return_index=True, return_counts=True)
                for i in np.argsort(first):
                    key = states[seen[i]]
                    freq[k][key] = freq[k].get(key, 0) + int(count[i])

    empty, samples, resends, delivered = counts.tolist()
    return _Totals(cost_sum, vq_sum, vq, empty, samples, resends, delivered,
                   hist.tolist(), trace, freq)


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
