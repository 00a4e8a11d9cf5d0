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
runs slot by slot, in a loop body rendered for the run's user count with
each user's state in local variables, the drift-plus-penalty rule scored
by that body itself from one fused table row per user and slot.  Both
paths step blocks of ``_DRAW_BLOCK`` slots, check every realized action
and rebuild each block's virtual queues from the ages (``_queues``).
Two users at cap 10 walk about 6.6M slots/s and are scored at about 2.6M
(best of 15 runs, ``tools/engine_rates.py``; 2-core x86, numpy 2.4).
"""

from __future__ import annotations

import abc
import functools
import linecache
import logging
import math
import struct
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .model import EVENTS, ActionVector, SystemConfig, event_code, transition_table

log = logging.getLogger(__name__)

_DRAW_BLOCK = 4096


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
        """The (sampler, retransmitter) pair for slot ``t``.  Each list is a
        fresh copy, so changing one leaves the run as it is."""

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
        for the slot state, the run's configuration and these penalties:
        the first in ``dpp.feasible_actions`` order with the least sum of
        float delta scores."""
        return None


# ──────────────────────────────────────────────────────────────────────────
#  run statistics
# ──────────────────────────────────────────────────────────────────────────

@dataclass
class SimStats:
    """Aggregates of one run (slots before ``burn_in`` are excluded), as the
    CSV writers, the acceptance checks and ``summarize`` read them;
    ``final_vqueue_over_t`` is each virtual queue at the horizon over it."""

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
    deliveries: tuple[int, ...]
    aoi_histogram: tuple[tuple[int, ...], ...]   # counts for age 1..cap, per user


# ──────────────────────────────────────────────────────────────────────────
#  randomness
# ──────────────────────────────────────────────────────────────────────────

def _generators(cfg: SystemConfig, replica: int) -> list[np.random.Generator]:
    """``[policy generator, channel generator of user 0, 1, ...]`` for a run,
    the package's only seeding recipe: every run of one (seed, replica) gets
    the same per-user channel streams, whatever the policy."""
    root = np.random.SeedSequence(cfg.seed, spawn_key=(replica,))
    return [np.random.default_rng(s) for s in root.spawn(1 + cfg.num_users)]


# ──────────────────────────────────────────────────────────────────────────
#  the engine
# ──────────────────────────────────────────────────────────────────────────

def run(policy: Policy, cfg: SystemConfig, replica: int = 0) -> SimStats:
    """Simulate ``cfg.horizon`` slots and return their ``SimStats``.

    A policy whose ``plan`` returns actions is table-walked (``_walk``);
    every other policy runs slot by slot (``_slot_loop``).  Both paths step
    each user through ``model.transition_table`` and feed one ``_Tally``;
    the tests cross-check the two paths and the reference stepper of
    ``tests/engine_oracle.py``.  Every action is checked: one that breaks a
    scheduling rule raises ValueError naming the slot."""
    policy_gen, *channel_gens = _generators(cfg, replica)
    policy.reset(cfg, policy_gen)
    plan = policy.plan(min(_DRAW_BLOCK, cfg.horizon))
    log.debug("%s: virtual queues %s", "slot loop" if plan is None else "walk",
              "as exact prefix sums" if (inexact := _inexact_limit(cfg)) is None
              else f"slot by slot, aoi_limit {inexact!r} is not exact in prefix sums")
    if plan is None:
        tally = _slot_loop(policy, cfg, channel_gens)
    else:
        tally = _walk(policy, plan, cfg, channel_gens)
    return tally.stats(policy.name, replica)


def _add_in_order(total, values: np.ndarray):
    """``total`` plus ``values`` along its last axis one at a time, as a
    running ``+=`` adds (``np.sum`` may round otherwise); overwrites them."""
    if values.shape[-1]:
        values[..., 0] += total
        total = np.add.accumulate(values, axis=-1, out=values)[..., -1]
    return total


def _add(total, values: np.ndarray, order_free: bool):
    """``_add_in_order``, or by ``np.sum`` when ``order_free`` says every
    partial sum is exact, so that any order gives the same double."""
    return total + values.sum(-1) if order_free else _add_in_order(total, values)


def _exact_prices(cfg: SystemConfig) -> bool:
    """Whether every partial sum of a run's slot prices is exact.  A
    sample's price s + t and a resend's t are multiples of 1/D, D the larger
    of their denominators (powers of two), and a slot costs at most s + 2t,
    so every partial sum is a multiple of 1/D below horizon · (s + 2t), and
    exact while that bound times D is below 2**53."""
    (a, da), (b, db) = [float(x).as_integer_ratio() for x in
                        (cfg.sample_cost + cfg.transmit_cost, cfg.transmit_cost)]
    den = max(da, db)
    return cfg.horizon * (a * (den // da) + b * (den // db)) < 2**53


def _packed(offsets: list[int]) -> np.ndarray:
    """``offsets`` as a read-only intp array: packed to bytes in one call,
    about twice as fast as ``np.fromiter``."""
    return np.frombuffer(struct.pack(f"{len(offsets)}n", *offsets), np.intp)


def _rejected(t: int, action: ActionVector, occupied, cfg) -> ValueError:
    """The error for slot ``t``, whose ``action`` breaks a scheduling rule."""
    try:
        action.validate(occupied, cfg)
    except ValueError as err:
        return ValueError(f"slot {t}: {err}")
    raise AssertionError(f"slot {t}: {action} breaks no rule")


def _check_block(b0: int, pairs: np.ndarray, tally: _Tally) -> np.ndarray:
    """Raise for the first of slots ``b0, b0 + 1, ...`` whose realized
    actions, read off each user's (state, event) pairs, break a rule; else
    return each slot's sum of ``tally.code`` over its users, clipped to the
    last row of ``tally.bad``."""
    acts = np.minimum(tally.code[pairs].sum(0), len(tally.bad) - 1)
    bad = tally.bad[acts]
    if bad.any():
        t = int(bad.argmax())
        empty, sampled, resent, _ = tally.table.kind[:, pairs[:, t]].tolist()
        raise _rejected(b0 + t, ActionVector(tuple(sampled), tuple(resent)),
                        [not e for e in empty], tally.cfg)
    return acts


@functools.lru_cache(maxsize=4)
def _tally_rows(cap: int, n: int, single: bool) -> tuple[np.ndarray, ...]:
    """``_Tally``'s read-only rows for ``n`` users at ``cap`` (four kept): per
    pair, the age reached (a float) and the action code, whose sum over a
    slot's users has base-(n + 1) digits samples, resends, resends from an
    empty cache; per sum, whether it breaks a rule, samples and resends.
    A legal slot sums to 0, 1, n + 1 or n + 2, so the per-sum rows stop at
    n + 3, which stands for every larger (bad) sum."""
    table = transition_table(cap)
    empty, sampled, resent, _ = table.kind
    b = n + 1
    sums = np.arange(b + 3)
    samples, resends = sums % b, sums // b
    bad = (samples > 1) | (sums > b + 1) | single & (samples + resends > 1)
    rows = (table.age[table.next_state].astype(float),
            sampled + b * resent + b * b * (resent & empty), bad,
            np.stack((samples, resends), 1) > 0)
    for a in rows:
        a.flags.writeable = False
    return rows


class _Tally:
    """What both paths accumulate, fed a block of slots at a time: per-user
    visit counts of the recorded slots' (state, event) pairs, which give the
    integer statistics, the queues at the block's end, and float sums that
    add the recorded slots in slot order, the cost a sample's price before a
    resend's; a sum whose every partial sum is exact (``order_free``) may
    add in any order."""

    def __init__(self, cfg: SystemConfig):
        n = cfg.num_users
        self.cfg = cfg
        self.table = table = transition_table(cfg.aoi_cap)
        self.reached, self.code, self.bad, acting = _tally_rows(
            cfg.aoi_cap, n, cfg.single_transmitter_mode)
        self.visits = np.zeros((n, len(table.successor)), dtype=np.int64)
        self.cost_sum = 0.0
        self.vq_sum = self.vq = np.zeros(n)
        self.limit = np.array(cfg.aoi_limit)[:, None]
        self.exact = _inexact_limit(cfg) is None
        # (cost, queues): whether every partial sum of each is exact
        self.order_free = (_exact_prices(cfg),
                           _inexact_limit(cfg, cfg.horizon) is None)
        self.prices = np.where(acting, [  # per slot sum, in order
            cfg.sample_cost + cfg.transmit_cost, cfg.transmit_cost], 0.0)

    def add(self, b0: int, pairs: np.ndarray) -> None:
        """Check and record slots ``b0, b0 + 1, ...`` from each user's
        (state, event) pairs, an (n, m) array, and their ``_queues``."""
        acts = _check_block(b0, pairs, self)
        vqs = _queues(self, self.reached[pairs])
        rec = slice(max(0, self.cfg.burn_in - b0), pairs.shape[1])
        for visits, row in zip(self.visits, pairs[:, rec]):
            np.add.at(visits, row, 1)   # costs per visit, not per pair
        self.vq = vqs[:, -1].copy()
        free_cost, free_vq = self.order_free
        self.cost_sum = _add(self.cost_sum,
                             self.prices.take(acts[rec], axis=0).ravel(), free_cost)
        self.vq_sum = _add(self.vq_sum, vqs[:, rec], free_vq)

    def stats(self, name: str, replica: int) -> SimStats:
        cfg = self.cfg
        recorded = cfg.horizon - cfg.burn_in
        # kind on the left: about 3x as fast as visits @ kind.T (cap 10)
        empty, samples, resends, delivered = (self.table.kind @ self.visits.T).tolist()
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
            deliveries=tuple(delivered),
            aoi_histogram=tuple(tuple(h) for h in hist),
        )


@functools.lru_cache(maxsize=2)
def _scored_rows(cap: int, sample_penalty: float,
                 resend_penalty: float) -> tuple[tuple, ...]:
    """The slot loop's rows at ``cap`` and these penalties, about 120 bytes
    a pair (24 MB at cap 150; two kept): per pair, successor offset, age and
    the successor's ``_decide_core`` factors of queue × success_prob, with
    aged = min(age + 1, cap): 1 - aged to sample, wait + 1 - aged (< 0) to
    resend, here 0 if empty (no resend), as floats (exact, fast); and a
    gate: the least over both deltas of penalty / -factor · (1 - 2**-40),
    inf for a factor of 0, 0 unless the penalty exceeds 1e-300 (so nothing
    is subnormal), an infinite penalty taken as the largest double (so no
    product overflows to make inf - inf).  Below the gate, queue ×
    success_prob × -factor rounds to at most the penalty, as two roundings
    of 2**-53 stay far under 2**-40, so both deltas are >= +0.0 and neither
    can win."""
    states, successor = transition_table(cap)[:2]

    def gate(pen, c):
        if not c:
            return math.inf
        pen = min(pen, sys.float_info.max)
        return pen / -c * (1 - 2**-40) if pen > 1e-300 else 0.0
    coef = [(1.0 - min(a + 1, cap), w + 1.0 - min(a + 1, cap) if o else 0.0)
            for o, w, a in states]
    rows = [(*c, min(gate(sample_penalty, c[0]), gate(resend_penalty, c[1])))
            for c in coef]
    return tuple((s, float(states[s // EVENTS][2]), *rows[s // EVENTS])
                 for s in successor)


# The slot loop's body for one block, rendered by ``_slot_body``.  The first
# column keeps a line in the modes it names: ' ' all, 'A' asked through
# ``decide``, 'S' scored, 'P' scored with two transmitters.  Each user k
# holds its pair offset, queue, limit and success probability in ak, vk, lk
# and pk; a slot applies the action, then steps each user (``_USER``) while
# scoring the next slot's idle and single actions, then its pairs: only a
# negative sample delta (kept in S) plus a negative resend delta (in R)
# can beat them all.
_SLOTS = """\
 def slots(hits, b0, at, vq, choice, step, limits, probs, sp, rp, decide, states, cfg):
     {a}, = at
     {v}, = vq
     {l}, = limits
     {p}, = probs
     sampler, resender = choice
     for h in range(0, len(hits), {n}):
A        t = b0 + h // {n}
A        occ, wait, aoi = zip({states})
A        sampler, resender = decide(t, list(aoi), list(wait), list(occ), [{v}])
A        if sampler is not None:
A            sampler = _user_index(t, "sampler", sampler, {n})
A        if resender is not None:
A            resender = _user_index(t, "retransmitter", resender, {n})
A            if resender == sampler or not occ[resender]{single}:
A                raise _rejected(t, ActionVector.from_pair({n}, sampler, resender), list(occ), cfg)
         if sampler is not None:
             hits[h + sampler] += 8
         if resender is not None:
             hits[h + resender] += 16
S        best = 0.0
S        sampler = resender = None
P        S = R = ()
 {users}
P        if R:
P            for i, x in S:
P                for j, y in R:
P                    if x + y < best and i != j: best, sampler, resender = x + y, i, j
     return [{a}], [{v}], (sampler, resender)
"""
_USER = """\
         hits[h] = s = a{k} + hits[h]
         a{k}, a, cs, cr, g = step[s]
         d = v{k} - l{k}
         v{k} = (d if d > 0.0 else 0.0) + a
S        xp = v{k} * p{k}
S        if xp >= g:
S            d = xp * cs + sp
P            if d < 0.0: S += ({k}, d),
S            if d < best: best, sampler, resender = d, {k}, None
S            if cr:
S                d = xp * cr + rp
P                if d < 0.0: R += ({k}, d),
S                if d < best: best, sampler, resender = d, None, {k}
         h += 1
"""


@functools.lru_cache(maxsize=8)
def _slot_body(n: int, single: bool, scored: bool):
    """``_SLOTS`` rendered for ``n`` users in one mode and compiled (eight
    kept), its source in ``linecache`` under a name that says so while the
    body lives, for tracebacks, profiles and ``inspect.getsource``."""
    tags = " " + ("S" + "P" * (not single) if scored else "A")

    def keep(template):
        return "".join(line[1:] for line in template.splitlines(True)
                       if line[0] in tags)

    def names(c):
        return ", ".join(f"{c}{k}" for k in range(n))
    text = keep(_SLOTS).format(
        n=n, a=names("a"), v=names("v"), l=names("l"), p=names("p"),
        users="".join(keep(_USER).format(k=k) for k in range(n)),
        states=", ".join(f"states[a{k} // EVENTS]" for k in range(n)),
        single=" or sampler is not None" if single else "")
    name = (f"<aoisched slot loop, {n} users, {'one' if single else 'two'} "
            f"transmitter{'' if single else 's'}, {'scored' if scored else 'asked'}>")
    linecache.cache[name] = entry = len(text), None, text.splitlines(True), name
    scope = {}
    exec(compile(text, name, "exec"), globals(), scope)
    weakref.finalize(scope["slots"], _forget, name, entry)
    return scope["slots"]


def _forget(name: str, entry: tuple) -> None:
    """Drop ``name`` from ``linecache`` unless a newer body's entry holds it."""
    if linecache.cache.get(name) is entry:
        del linecache.cache[name]


def _user_index(t: int, role: str, k, n: int) -> int:
    """The ``role`` index ``k`` that ``decide`` gave for slot ``t``, as an
    int, or the ValueError naming the slot."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"slot {t}: {role} index {k!r} is not an integer")
    if not 0 <= k < n:
        raise ValueError(f"slot {t}: {role} index {k} out of range")
    return int(k)


def _slot_loop(policy: Policy, cfg: SystemConfig,
               channel_gens: list[np.random.Generator]) -> _Tally:
    """Step each user through the table one slot at a time, in the body
    ``_slot_body`` renders for the run's user count and mode.

    A policy whose ``penalties`` gives a pair is scored there with
    ``dpp._decide_core``'s float deltas, at about 2.6M slots/s for two users
    at cap 10: a strict < in ``dpp.feasible_actions`` order, idle and each
    user's single actions as the user steps (those below the row's gate
    skipped, see ``_scored_rows``), then the pairs of negative deltas, the
    only ones that can win.  Any other is asked through ``decide``, and its
    action checked before it applies.  After each block, the scored queues
    are checked against the rebuilt ones.
    """
    n = cfg.num_users
    p = cfg.success_prob
    penalties = policy.penalties()
    # asked: no score is made, so the rows' prices are moot
    sample_penalty, resend_penalty = penalties or (math.inf, math.inf)
    # rendered first: its compiler's transient peak sits on no run arrays
    body = _slot_body(n, cfg.single_transmitter_mode, penalties is not None)
    tally = _Tally(cfg)
    tables = (_scored_rows(cfg.aoi_cap, sample_penalty, resend_penalty),
              cfg.aoi_limit, p, sample_penalty, resend_penalty, policy.decide,
              tally.table.states, cfg)
    at, vq = [0] * n, [0.0] * n     # offsets (0 is the start state), queues
    # scored choice for slot 0: with empty queues each score is sample_penalty
    choice = 0 if sample_penalty < 0 else None, None
    for b0 in range(0, cfg.horizon, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, cfg.horizon - b0)
        # flat, slot-major, overwritten by the pairs; per-slot lists wake the GC
        hits = list(np.stack([g.random(m) < pk for g, pk in zip(channel_gens, p)],
                             1).tobytes())
        at, vq, choice = body(hits, b0, at, vq, choice, *tables)
        # user-major and contiguous: table lookups on a strided view are slow
        tally.add(b0, _packed(hits).reshape(m, n).T.copy())
        if tally.vq.tolist() != vq:
            raise RuntimeError(f"block at slot {b0}: queues {vq} rebuilt as "
                               f"{tally.vq.tolist()}")
    return tally


def _inexact_limit(cfg: SystemConfig, terms: int = 1) -> float | None:
    """The first ``aoi_limit`` whose virtual queue ``_queues`` could round
    in prefix sums, or None; with ``terms`` the horizon, the first whose
    queues could round in a sum over the run.  A finite limit is n/d, d a
    power of two, so every such sum is a multiple of 1/d below ``terms`` ·
    (horizon + ``_DRAW_BLOCK``) · (cap + limit) in size (a queue is at most
    horizon · cap), and exact while that bound times d is below 2**53."""
    span = terms * (cfg.horizon + _DRAW_BLOCK)
    for limit in cfg.aoi_limit:
        if not math.isfinite(limit):
            return limit
        num, den = limit.as_integer_ratio()
        if span * (den * cfg.aoi_cap + num) >= 2**53:
            return limit
    return None


def _walk(policy: Policy, plan: tuple[np.ndarray, np.ndarray],
          cfg: SystemConfig, channel_gens: list[np.random.Generator]) -> _Tally:
    """Walk each user through the table one ``_DRAW_BLOCK`` at a time from
    ``plan``, the policy's first block: Python does one table lookup per user
    and slot, and ``_Tally.add`` checks and records the block."""
    n = cfg.num_users
    tally = _Tally(cfg)
    successor = tally.table.successor
    # each user's last (state, event) pair; at first one leading to the start
    last = [successor.index(0)] * n
    for b0 in range(0, cfg.horizon, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, cfg.horizon - b0)
        if b0:
            plan = policy.plan(m)
        try:
            codes = np.asarray(plan)
        except ValueError:              # arrays of different shapes
            codes = np.empty(0)
        if (codes.shape != (2, n, m) or codes.dtype.kind not in "biu"
                or codes.min() < 0 or codes.max() > 2):
            raise ValueError(
                f"slot {b0}: plan must be two ({n}, {m}) arrays of codes 0, 1, 2")
        hit = np.array([g.random(m) < pk for g, pk in zip(channel_gens, cfg.success_prob)])
        walked = []
        # bytes iterate as small ints, with no list of them to build
        for row, p in zip(event_code(codes[0], codes[1], hit).astype(np.uint8), last):
            walked += [p := successor[p] + e for e in row.tobytes()]
        last = walked[m - 1::m]
        tally.add(b0, _packed(walked).reshape(n, m))
    return tally


def _queues(tally: _Tally, ages: np.ndarray) -> np.ndarray:
    """Each user's virtual queue at the end of each slot of a block, from the
    ages reached, an (n, m) array, and the queues the tally holds: over the
    ages in Lindley's (1952) prefix-sum form when ``_inexact_limit`` finds
    every limit exact, else as the slot loop does; both give equal doubles."""
    vqs = np.empty(ages.shape)
    if not tally.exact:
        for out, v, lim, row in zip(vqs, tally.vq.tolist(),
                                    tally.cfg.aoi_limit, ages.tolist()):
            out[:] = [v := (d if (d := v - lim) > 0.0 else 0.0) + a for a in row]
        return vqs
    # The served backlog u = v - age follows u' = max(u + age - limit, 0),
    # so u = S - min(-u0, cummin S) with S the running sum of the previous
    # slots' age - limit, S = 0 at the first; every partial sum is exact.
    vqs[:, 0] = 0.0
    np.subtract(ages[:, :-1], tally.limit, out=vqs[:, 1:])
    np.cumsum(vqs[:, 1:], axis=1, out=vqs[:, 1:])
    ages += vqs
    np.fmin.accumulate(vqs, axis=1, out=vqs)    # no NaN here; faster than minimum
    np.minimum(-np.maximum(tally.vq[:, None] - tally.limit, 0.0), vqs, out=vqs)
    ages -= vqs
    return ages


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
    sd_cost = _stdev(s.avg_cost for s in stats)

    def per_user(field: str, of=_mean) -> tuple[float, ...]:
        return tuple(map(of, zip(*(getattr(s, field) for s in stats))))
    return ReplicaSummary(
        n_replicas=n, mean_cost=_mean(s.avg_cost for s in stats),
        stdev_cost=sd_cost, stderr_cost=sd_cost / math.sqrt(n),
        mean_aoi=per_user("avg_aoi"),
        stderr_aoi=tuple(sd / math.sqrt(n) for sd in per_user("avg_aoi", _stdev)),
        mean_vqueue=per_user("avg_vqueue"),
        mean_empty_fraction=per_user("empty_fraction"),
        mean_sample_freq=per_user("sample_freq"),
        mean_retransmit_freq=per_user("retransmit_freq"))


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
