"""Discrete-time model of remote status updating over an unreliable shared link.

A fixed population of sources keeps a monitor informed through a slotted,
error-prone channel.  Each source carries three pieces of per-slot state: the
age of information (AoI) of its freshest delivered sample, a single-packet
cache holding its most recent undelivered sample (with that packet's waiting
time), and a virtual queue that tracks accumulated violation of a long-run
average-AoI limit.  In every slot a scheduler may let a source sample-and-send
a fresh packet, resend the cached packet, or stay silent; transmissions
succeed independently with a per-source probability.

This module defines the configuration and state types, the per-slot update
laws, the slot cost, a straightforward reference stepper, and the per-cap
transition table that composes the update laws once for both the simulation
engine and the fresh-or-old chain.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


class InfeasibleError(RuntimeError):
    """No parameter choice can satisfy a user's average-AoI limit."""

    def __init__(self, message: str, user: int | None = None):
        super().__init__(message)
        self.user = user


def _as_tuple(value, n: int, name: str) -> tuple[float, ...]:
    """Broadcast a scalar to ``n`` entries, or validate a length-``n`` sequence."""
    try:
        if isinstance(value, (int, float)):
            return (float(value),) * n
        out = tuple(float(v) for v in value)
    except OverflowError:
        raise ValueError(f"{name}: integer too large for a float") from None
    if len(out) != n:
        raise ValueError(f"{name}: expected {n} entries, got {len(out)}")
    return out


# ──────────────────────────────────────────────────────────────────────────
#  configuration and state types
# ──────────────────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class SystemConfig:
    """Static description of one status-updating instance.

    success_prob and aoi_limit accept either a scalar (applied to every user)
    or one value per user.  ``aoi_cap`` is the saturation value M at which the
    age stops growing; ``aoi_limit`` is each user's long-run average-AoI
    target; ``v_weight`` trades cost against virtual-queue drift in the
    drift-based scheduler.  When ``single_transmitter_mode`` is set (the
    default) at most one user may act per slot; otherwise one sampler and one
    retransmitter may act simultaneously as long as they are distinct users.
    """

    num_users: int
    success_prob: tuple[float, ...]
    sample_cost: float
    transmit_cost: float
    aoi_cap: int
    aoi_limit: tuple[float, ...]
    horizon: int
    seed: int
    v_weight: float = 800.0
    single_transmitter_mode: bool = True
    burn_in: int = 0

    def __post_init__(self):
        for name in ("num_users", "aoi_cap", "horizon", "burn_in", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}") from None
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.num_users < 1:
            raise ValueError("num_users must be at least 1")
        object.__setattr__(
            self, "success_prob",
            _as_tuple(self.success_prob, self.num_users, "success_prob"))
        object.__setattr__(
            self, "aoi_limit",
            _as_tuple(self.aoi_limit, self.num_users, "aoi_limit"))
        for p in self.success_prob:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"success_prob must lie in [0, 1], got {p}")
        for a in self.aoi_limit:
            if not a >= 1.0:   # also rejects NaN; inf means no limit
                raise ValueError(f"aoi_limit must be at least 1, got {a}")
        for name in ("sample_cost", "transmit_cost", "v_weight"):
            value = getattr(self, name)
            if not 0.0 <= value <= math.nextafter(math.inf, 0.0):  # max double
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value}")
        if self.aoi_cap < 2:
            raise ValueError("aoi_cap must be at least 2")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if not 0 <= self.burn_in < self.horizon:
            raise ValueError("burn_in must lie in [0, horizon)")


@dataclass(frozen=True)
class UserState:
    """One user's state at a decision instant (start of a slot)."""

    aoi: int
    waiting_time: int = 0
    cache_occupied: bool = False
    vqueue: float = 0.0

    def validate(self, cap: int) -> None:
        """Raise ValueError unless the state is reachable under the update laws.

        Reachable states keep the cached packet strictly fresher than what the
        monitor already has (waiting_time + 1 < aoi); the update law discards
        the packet the moment equality would occur.  Empty caches carry
        waiting_time 0 by convention.
        """
        if not 1 <= self.aoi <= cap:
            raise ValueError(f"aoi must lie in [1, {cap}], got {self.aoi}")
        if self.vqueue < 0:
            raise ValueError("vqueue must be non-negative")
        if self.cache_occupied:
            if not 1 <= self.waiting_time <= cap - 2:
                raise ValueError(
                    f"cached waiting_time must lie in [1, {cap - 2}], "
                    f"got {self.waiting_time}")
            if self.waiting_time + 1 >= self.aoi:
                raise ValueError(
                    "cached packet must be strictly fresher than the delivered "
                    f"one: waiting_time={self.waiting_time}, aoi={self.aoi}")
        elif self.waiting_time != 0:
            raise ValueError("empty cache must carry waiting_time 0")


@dataclass(frozen=True)
class ActionVector:
    """Per-user sample/retransmit indicators for one slot."""

    sample: tuple[int, ...]
    retransmit: tuple[int, ...]

    @classmethod
    def idle(cls, num_users: int) -> "ActionVector":
        return cls((0,) * num_users, (0,) * num_users)

    @classmethod
    def from_pair(cls, num_users: int, sampler: int | None,
                  retransmitter: int | None) -> "ActionVector":
        """Build the vector acted on by at most one sampler and one resender."""
        s = [0] * num_users
        r = [0] * num_users
        if sampler is not None:
            s[sampler] = 1
        if retransmitter is not None:
            r[retransmitter] = 1
        return cls(tuple(s), tuple(r))

    def acted(self, user: int) -> bool:
        return bool(self.sample[user] or self.retransmit[user])

    def validate(self, occupied: Sequence[bool], cfg: SystemConfig) -> None:
        """Raise ValueError on any scheduling-constraint violation."""
        k = cfg.num_users
        if len(self.sample) != k or len(self.retransmit) != k:
            raise ValueError("action length does not match num_users")
        for v in self.sample + self.retransmit:
            if v not in (0, 1):
                raise ValueError("action entries must be 0 or 1")
        if sum(self.sample) > 1:
            raise ValueError("at most one user may sample per slot")
        if sum(self.retransmit) > 1:
            raise ValueError("at most one user may retransmit per slot")
        for i in range(k):
            if self.sample[i] and self.retransmit[i]:
                raise ValueError(f"user {i} cannot sample and retransmit at once")
            if self.retransmit[i] and not occupied[i]:
                raise ValueError(f"user {i} has no cached packet to retransmit")
        if cfg.single_transmitter_mode:
            if sum(self.sample) + sum(self.retransmit) > 1:
                raise ValueError(
                    "single-transmitter mode allows at most one acting user")


@dataclass(frozen=True)
class SlotOutcome:
    """What one slot produced: per-user delivery flags and the realized cost."""

    delivered: tuple[bool, ...]
    cost: float


# ──────────────────────────────────────────────────────────────────────────
#  per-slot update laws
# ──────────────────────────────────────────────────────────────────────────

def aoi_step(aoi: int, wait_at_transmit: int, delivered: bool, cap: int) -> int:
    """Age at the next instant.

    A successful delivery resets the age to the transmitted packet's waiting
    time plus one (a packet sampled this very slot has waiting time 0, so a
    fresh success yields age 1).  Otherwise the age grows by one, saturating
    at ``cap``.
    """
    if delivered:
        return wait_at_transmit + 1
    return aoi + 1 if aoi < cap else cap


def waiting_time_step(occupied: bool, waiting_time: int, *, sampled: bool,
                      delivered: bool, next_aoi: int, cap: int) -> tuple[bool, int]:
    """Cache state carried into the next decision instant.

    Sampling first resets the cache to a waiting time of 0 within the slot
    (replacing any older packet); delivery empties it.  A surviving packet
    then ages by one slot and is discarded as soon as it can no longer
    strictly improve the age: either its waiting time reaches ``cap - 1``
    (delivering it would merely reproduce the saturated age) or its waiting
    time plus one catches up with the age it would have to beat.
    """
    if delivered:
        return False, 0
    if sampled:
        occupied, waiting_time = True, 0
    if not occupied:
        return False, 0
    wt = waiting_time + 1
    if wt >= cap - 1:
        return False, 0
    if wt + 1 >= next_aoi:
        return False, 0
    return True, wt


def slot_cost(action: ActionVector, cfg: SystemConfig) -> float:
    """Energy cost of one slot: sampling pays sample+transmit, resending pays transmit."""
    total = 0.0
    for s, r in zip(action.sample, action.retransmit):
        total += s * (cfg.sample_cost + cfg.transmit_cost) + r * cfg.transmit_cost
    return total


def vqueue_step(vqueue: float, next_aoi: int, limit: float) -> float:
    """Virtual-queue update: serve ``limit`` per slot, then absorb the new age."""
    served = vqueue - limit
    return (served if served > 0.0 else 0.0) + next_aoi


# ──────────────────────────────────────────────────────────────────────────
#  reference stepper
# ──────────────────────────────────────────────────────────────────────────

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


# ──────────────────────────────────────────────────────────────────────────
#  transition table
# ──────────────────────────────────────────────────────────────────────────

# Events per state: ``event_code`` of (action if empty, action if occupied,
# hit).  The slot loop knows each user's action, so it uses 8 * action + hit.
EVENTS = 18


def event_code(if_empty, if_occupied, hit):
    """The table's event for the action taken if the cache is empty, the
    action taken if it is occupied (each 0 idle, 1 sample, 2 resend) and
    the channel outcome; elementwise."""
    return (3 * if_empty + if_occupied) * 2 + hit


class TransitionTable(NamedTuple):
    """One cap's transition table; see ``transition_table``."""

    states: tuple               # (occupied, waiting time, age) per index
    successor: tuple            # per pair, in offset form
    kind: np.ndarray            # rows empty, sample, resend, delivered
    next_state: np.ndarray      # per pair: index of the successor
    age: np.ndarray             # per state


@functools.lru_cache(maxsize=4)
def transition_table(cap: int) -> TransitionTable:
    """The (state, event) -> state table of one user at ``cap``.

    ``states`` lists every reachable (occupied, waiting time, age) triple,
    empty caches first, so the start state (False, 0, 1) is index 0.  A
    user's state is held in offset form, ``EVENTS`` times its index, so
    ``s + e`` is the pair of event ``e`` at offset ``s``; ``successor[s +
    e]``, composed from ``aoi_step`` and ``waiting_time_step`` as
    ``step_users`` composes them, is the offset it leads to, and ``kind``
    flags whether the pair starts from an empty cache, samples, resends and
    delivers.  Events that break an action rule lead where the laws take
    them; the engine rejects them.  At most four caps are kept.  Cap 64
    (2,017 states) builds in about 0.03 s, cap 150 (11,176) in 0.15 s and
    cap 300 (44,851) in 0.6 s, where the table holds about 41 MB.
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
                EVENTS * index[(next_occupied, next_wait, next_aoi)])
    occupied = np.repeat([s[0] for s in states], EVENTS)
    event = np.tile(np.arange(EVENTS), len(states))
    action = np.where(occupied, event // 2 % 3, event // 6)
    arrays = (np.stack((~occupied, action == 1, action == 2,
                        (action != 0) & (event % 2 == 1))),
              np.array(successor) // EVENTS, np.array([s[2] for s in states]))
    for a in arrays:
        a.flags.writeable = False
    return TransitionTable(tuple(states), tuple(successor), *arrays)


def grid_intervals(step: float) -> int:
    """The number n = 1/step of grid intervals; step must lie in (0, 1]
    and divide 1 evenly."""
    if not 0.0 < step <= 1.0:
        raise ValueError("step must lie in (0, 1]")
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"step must divide 1 evenly, got {step}")
    return n


def probability_grid(step: float) -> list[float]:
    """Evenly spaced probabilities 0, step, ..., 1 (step must divide 1)."""
    n = grid_intervals(step)
    return [i / n for i in range(n + 1)]
