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

Each user steps through the per-cap (state, event) -> state table
``model.transition_table``, and the integer statistics are numpy counts
of the (state, event) pairs visited.  A policy that sees the state only
through each user's cache flag declares its actions ahead through
``Policy.plan`` and is walked a block of slots at a time; every other policy
runs slot by slot, the drift-plus-penalty rule scored by the loop itself.
Both paths check every realized action.  The walk computes virtual queues
as exact numpy prefix sums when every ``aoi_limit`` is n/d, d a power of
two, with d · (horizon + 8192) · (cap + limit) < 2**53, and slot by slot
otherwise.  Two users at cap 10 walk about 2.2M slots/s, and run 0.45M
slots/s slot by slot (2-core x86, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import abc
import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import (EVENTS, ActionVector, SystemConfig, TransitionTable,
                    event_code, transition_table)

log = logging.getLogger(__name__)

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
    never calls ``decide``.  A drift-plus-penalty policy may implement
    ``penalties`` instead; ``run`` then scores it itself.  A run uses one of
    ``plan``, ``penalties`` and ``decide``, never two.
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

    def penalties(self) -> tuple[float, float] | None:
        """``(sample_penalty, resend_penalty)``, or None (the default) to be
        asked through ``decide``.  Asked once per run, after a plan of None;
        a pair makes every slot take the action ``dpp._decide_core`` gives
        for the slot state, the run's configuration and these penalties."""
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

def run(policy: Policy, cfg: SystemConfig, replica: int = 0, *,
        track_states: bool = False) -> SimStats:
    """Simulate ``cfg.horizon`` slots and return aggregate statistics.

    A policy whose ``plan`` returns actions is table-walked (``_walk``);
    every other policy runs slot by slot (``_slot_loop``).  Both paths step
    each user through ``model.transition_table`` and feed one ``_Tally``;
    test suites cross-check the two paths and ``model.step_users``.  On
    both paths every action is checked: one that violates the scheduling
    constraints raises ValueError naming the slot.
    """
    policy_gen, *channel_gens = _generators(cfg, replica)
    policy.reset(cfg, policy_gen)
    plan = policy.plan(min(_DRAW_BLOCK, cfg.horizon))
    tally = _Tally(cfg, transition_table(cfg.aoi_cap), track_states)
    if plan is None:
        _slot_loop(policy, cfg, channel_gens, tally)
    else:
        _walk(policy, plan, cfg, channel_gens, tally)
    return tally.stats(policy.name, replica)


def _add_in_order(total, values: np.ndarray):
    """``total`` plus the rows of ``values`` added one at a time, as a
    running ``+=`` does; ``sum`` and ``np.sum`` may round differently."""
    return np.add.accumulate(np.concatenate(([total], values)))[-1]


def _rejected(t: int, action: ActionVector, occupied, cfg) -> ValueError:
    """The error for slot ``t``, whose ``action`` breaks a scheduling rule."""
    try:
        action.validate(occupied, cfg)
    except ValueError as err:
        return ValueError(f"slot {t}: {err}")
    raise AssertionError(f"slot {t}: {action} breaks no rule")


class _Tally:
    """What both paths accumulate, fed a block of slots at a time.

    The integer statistics follow from per-user visit counts of the (state,
    event) pairs of the recorded slots.  The float sums add the recorded
    slots in slot order; the cost adds a sample's price before a resend's.
    """

    def __init__(self, cfg: SystemConfig, table: TransitionTable,
                 track_states: bool):
        n = cfg.num_users
        self.cfg = cfg
        self.table = table
        self.visits = np.zeros((n, len(table.successor)), dtype=np.int64)
        self.prices = np.array(
            [cfg.sample_cost + cfg.transmit_cost, cfg.transmit_cost])
        self.cost_sum = 0.0
        self.vq_sum = self.vq = np.zeros(n)
        self.trace: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self.freq = [dict() for _ in range(n)] if track_states else None

    def add(self, b0: int, pairs: np.ndarray, vqs: np.ndarray) -> None:
        """Record slots ``b0, b0 + 1, ...`` from each user's (state, event)
        pairs and end-of-slot virtual queues, two (n, m) arrays."""
        n, m = pairs.shape
        horizon = self.cfg.horizon
        every = max(1, horizon // _TRACE_POINTS)
        rec = slice(max(0, self.cfg.burn_in - b0), m)
        size = self.visits.shape[1]
        self.visits += np.bincount(
            (pairs[:, rec] + size * np.arange(n)[:, None]).ravel(),
            minlength=n * size).reshape(n, size)
        _, sampled, resent, _ = self.table.kind
        acted = np.stack((sampled[pairs[:, rec]].any(0),
                          resent[pairs[:, rec]].any(0)), 1)
        self.cost_sum = _add_in_order(
            self.cost_sum, np.tile(self.prices, (len(acted), 1))[acted])
        self.vq_sum = _add_in_order(self.vq_sum, vqs[:, rec].T)
        self.vq = vqs[:, -1]
        marks = range(b0 // every * every + every, b0 + m + 1, every)
        if b0 + m == horizon and horizon % every:
            marks = [*marks, horizon]
        at_marks = vqs[:, [t1 - 1 - b0 for t1 in marks]].tolist()
        for trace, v in zip(self.trace, at_marks):
            trace.extend((t1, x / t1) for t1, x in zip(marks, v))
        for k, freq in enumerate(self.freq or ()):
            seen, first, count = np.unique(
                self.table.next_state[pairs[k, rec]],
                return_index=True, return_counts=True)
            for i in np.argsort(first):
                key = self.table.states[seen[i]]
                freq[key] = freq.get(key, 0) + int(count[i])

    def stats(self, name: str, replica: int) -> SimStats:
        cfg = self.cfg
        recorded = cfg.horizon - cfg.burn_in
        empty, samples, resends, delivered = (
            self.visits @ self.table.kind.T).T.tolist()
        # visits per age reached; as float weights they add exactly below 2**53
        ages = self.table.age[self.table.next_state] - 1
        hist = [np.bincount(ages, v, cfg.aoi_cap).astype(np.int64).tolist()
                for v in self.visits]
        return SimStats(
            policy=name,
            horizon=cfg.horizon,
            burn_in=cfg.burn_in,
            seed=cfg.seed,
            replica=replica,
            avg_cost=float(self.cost_sum) / recorded,
            avg_aoi=tuple(sum(a * c for a, c in enumerate(h, 1)) / recorded
                          for h in hist),
            avg_vqueue=tuple(s / recorded for s in self.vq_sum.tolist()),
            final_vqueue_over_t=tuple(
                x / cfg.horizon for x in self.vq.tolist()),
            empty_fraction=tuple(c / recorded for c in empty),
            sample_freq=tuple(c / recorded for c in samples),
            retransmit_freq=tuple(c / recorded for c in resends),
            delivery_attempts=tuple(s + r for s, r in zip(samples, resends)),
            deliveries=tuple(delivered),
            aoi_histogram=tuple(tuple(h) for h in hist),
            vqueue_trace=tuple(tuple(tr) for tr in self.trace),
            state_freq=tuple(self.freq) if self.freq is not None else None,
        )


def _slot_loop(policy: Policy, cfg: SystemConfig,
               channel_gens: list[np.random.Generator], tally: _Tally) -> None:
    """Step each user through the table one slot at a time.

    A policy whose ``penalties`` gives a pair is scored here from per-state
    coefficients, with ``dpp._decide_core``'s expressions and tie order;
    any other is asked through ``decide``.  Actions are checked, then applied.
    """
    n = cfg.num_users
    cap = cfg.aoi_cap
    p = cfg.success_prob
    limit = cfg.aoi_limit
    single = cfg.single_transmitter_mode
    successor = tally.table.successor
    # Per state, stored at its offset: the cache flag, waiting time and age,
    # and _decide_core's delta-score coefficients, with aged = min(age + 1,
    # cap): 1 - aged to sample, wait + 1 - aged (< 0) to resend, 0 if empty.
    pad = (0,) * (EVENTS - 1)
    occupied_at, wait_at, age_at, sample_coef, resend_coef = (
        [x for v in column for x in (v, *pad)] for column in zip(*(
            (o, w, a, 1 - min(a + 1, cap), w + 1 - min(a + 1, cap) if o else 0)
            for o, w, a in tally.table.states)))
    penalties = policy.penalties()
    scored = penalties is not None
    sample_penalty, resend_penalty = penalties or (0.0, 0.0)
    pairs = [] if single or not scored else list(itertools.permutations(range(n), 2))

    at = [0] * n            # offsets; 0 is the start state
    aoi, wait, occ, vq = [1] * n, [0] * n, [False] * n, [0.0] * n
    # scored choice for slot 0: with empty queues each score is sample_penalty
    sampler, resender = 0 if sample_penalty < 0 else None, None
    for b0 in range(0, cfg.horizon, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, cfg.horizon - b0)
        hits = np.vstack([g.random(m) for g in channel_gens]) < np.array(p)[:, None]
        codes, vqs = [], []
        record, record_vq = codes.extend, vqs.extend
        for t, hit in enumerate(zip(*hits.view(np.int8).tolist()), b0):
            if not scored:
                sampler, resender = policy.decide(t, aoi, wait, occ, vq)
            events = list(hit)
            if sampler is not None:
                if not 0 <= sampler < n:
                    raise ValueError(f"slot {t}: sampler index {sampler} out of range")
                events[sampler] += 8
            if resender is not None:
                if not 0 <= resender < n:
                    raise ValueError(f"slot {t}: retransmitter index {resender} out of range")
                if (resender == sampler or not occupied_at[at[resender]]
                        or single and sampler is not None):
                    raise _rejected(t, ActionVector.from_pair(n, sampler, resender),
                                    [occupied_at[s] for s in at], cfg)
                events[resender] += 16

            # apply the action; a scored policy's next choice is made on
            # the way, user by user in _decide_core's order
            best = 0.0
            sampler = resender = None
            for k, e in enumerate(events):
                events[k] = s = at[k] + e
                at[k] = s = successor[s]
                d = vq[k] - limit[k]
                vq[k] = v = (d if d > 0.0 else 0.0) + age_at[s]
                if scored:
                    xp = v * p[k]
                    d = xp * sample_coef[s] + sample_penalty
                    if d < best:
                        best, sampler, resender = d, k, None
                    c = resend_coef[s]
                    if c:
                        d = xp * c + resend_penalty
                        if d < best:
                            best, sampler, resender = d, None, k
                else:
                    aoi[k], wait[k], occ[k] = age_at[s], wait_at[s], occupied_at[s]
            for i, j in pairs:
                c = resend_coef[at[j]]
                if c:
                    d = ((vq[i] * p[i] * sample_coef[at[i]] + sample_penalty)
                         + (vq[j] * p[j] * c + resend_penalty))
                    if d < best:
                        best, sampler, resender = d, i, j
            record(events)
            record_vq(vq)
        tally.add(b0, np.fromiter(codes, np.intp, m * n).reshape(m, n).T,
                  np.fromiter(vqs, float, m * n).reshape(m, n).T)


def _inexact_limit(cfg: SystemConfig) -> float | None:
    """The first ``aoi_limit`` whose virtual queue the walk's prefix sums
    could round, or None.  A finite limit is n/d, d a power of two, so every
    sum is a multiple of 1/d below (horizon + ``_DRAW_BLOCK``) · (cap +
    limit) in size, and exact while that bound times d is below 2**53."""
    span = cfg.horizon + _DRAW_BLOCK
    for limit in cfg.aoi_limit:
        if not math.isfinite(limit):
            return limit
        num, den = limit.as_integer_ratio()
        if span * (den * cfg.aoi_cap + num) >= 2**53:
            return limit
    return None


def _walk(policy: Policy, plan: tuple[np.ndarray, np.ndarray],
          cfg: SystemConfig, channel_gens: list[np.random.Generator],
          tally: _Tally) -> None:
    """Walk each user through the table one ``_DRAW_BLOCK`` at a time.

    ``plan`` is the policy's first block.  Per block, Python does one table
    lookup per user and slot, and the realized actions are checked
    afterwards.  The virtual queues come from Lindley's (1952) prefix-sum
    form when ``_inexact_limit`` finds every limit exact, and else from the
    slot loop's expression, slot by slot; both give the same doubles.
    """
    n = cfg.num_users
    success = np.array(cfg.success_prob)[:, None]
    table = tally.table
    successor = table.successor
    inexact = _inexact_limit(cfg)
    if inexact is None:
        log.debug("walk: virtual queues as exact prefix sums")
    else:
        log.debug("walk: virtual queues slot by slot, aoi_limit %r is not "
                  "exact in prefix sums", inexact)
    limit = np.array(cfg.aoi_limit)[:, None]
    at = np.zeros(n, dtype=np.intp)        # offsets; 0 is the start state
    vq = [0.0] * n
    for b0 in range(0, cfg.horizon, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, cfg.horizon - b0)
        if b0:
            plan = policy.plan(m)
        codes = np.asarray(plan)
        if codes.shape != (2, n, m) or codes.min() < 0 or codes.max() > 2:
            raise ValueError(
                f"slot {b0}: plan must be two ({n}, {m}) arrays of codes 0, 1, 2")
        hit = np.vstack([g.random(m) for g in channel_gens]) < success
        events = event_code(codes[0].astype(np.intp), codes[1], hit)

        post = np.empty((n, m), dtype=np.intp)
        for k, row in enumerate(events.tolist()):
            s = int(at[k])
            post[k] = [s := successor[s + e] for e in row]
        pairs = np.concatenate((at[:, None], post[:, :-1]), axis=1) + events
        at = post[:, -1]

        empty, sampled, resent, _ = table.kind
        occupied, sampling, resending = ~empty[pairs], sampled[pairs], resent[pairs]
        bad = ((sampling.sum(0) > 1) | (resending.sum(0) > 1)
               | (resending & ~occupied).any(0))
        if cfg.single_transmitter_mode:
            bad |= sampling.sum(0) + resending.sum(0) > 1
        if bad.any():
            t = int(bad.argmax())
            raise _rejected(b0 + t, ActionVector(
                tuple(sampling[:, t].tolist()), tuple(resending[:, t].tolist())),
                occupied[:, t].tolist(), cfg)

        ages = table.age[post // EVENTS]
        if inexact is None:
            # The served backlog u = v - age follows u' = max(u + age -
            # limit, 0), so u = S - min(-u0, cummin S) with S the running
            # sum of the previous slots' age - limit, S = 0 at the first.
            total = np.zeros((n, m))
            np.cumsum(ages[:, :-1] - limit, axis=1, out=total[:, 1:])
            floor = np.minimum(-np.maximum(np.array(vq)[:, None] - limit, 0.0),
                               np.minimum.accumulate(total, axis=1))
            vqs = total - floor + ages
            vq = vqs[:, -1].tolist()
        else:
            vqs = []
            for k, row in enumerate(ages.tolist()):
                lim = cfg.aoi_limit[k]
                v = vq[k]
                vqs.append([v := (served if (served := v - lim) > 0.0 else 0.0) + a
                            for a in row])
                vq[k] = v
            vqs = np.array(vqs)
        tally.add(b0, pairs, vqs)


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
        # Imported here: single-process runs never load the pool machinery.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(threads, n_replicas)) as pool:
            stats = list(pool.map(
                _replica_task, [(policy, cfg, i) for i in range(n_replicas)]))
    else:
        stats = [run(policy, cfg, i) for i in range(n_replicas)]
    return stats, summarize(stats)
