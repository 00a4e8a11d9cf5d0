"""Fresh-or-old randomized policy: probabilistic sampling with retransmissions.

A scheduled user holding a cached (still undelivered) packet either samples
afresh, resends the cached copy, or stays silent, each with a fixed
probability; with an empty cache it samples or stays silent.  Per user this
induces a finite Markov chain over (cache state, cached packet's waiting
time, age): empty states are tracked per age value, and cached states only
exist while the cached copy could still strictly improve the age.

The module builds that chain explicitly, solves it for stationary metrics
(average age, empty-cache fraction, cost rate), and scans the probability
grid for the cheapest parameters meeting an average-age limit.  The grid
scan assembles whole batches of transition matrices from seven fixed 0/1
templates (the transition law is linear in seven action-probability
coefficients) and solves them with one stacked LAPACK call; the chosen point
is re-evaluated through the scalar path as a consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .markov import ChainModel, solve_stationary
from .model import InfeasibleError, SystemConfig, probability_grid
from .simulate import Policy

# ──────────────────────────────────────────────────────────────────────────
#  parameters
# ──────────────────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class OfrpUserParams:
    """One user's action probabilities.

    ``alpha`` is the probability the scheduler picks this user in a slot.
    Conditioned on being picked: with a cached packet the user samples with
    ``sample_occupied``, resends the cached copy with ``retransmit_old``, and
    otherwise idles; with an empty cache it samples with ``sample_empty``.
    """

    alpha: float
    sample_occupied: float
    retransmit_old: float
    sample_empty: float

    def __post_init__(self):
        for name in ("alpha", "sample_occupied", "retransmit_old", "sample_empty"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.sample_occupied + self.retransmit_old > 1.0 + 1e-9:
            raise ValueError(
                "sample_occupied + retransmit_old must not exceed 1, got "
                f"{self.sample_occupied + self.retransmit_old}")


@dataclass(frozen=True)
class OfrpParams:
    """The whole population's probabilities; scheduling must cover each slot."""

    users: tuple[OfrpUserParams, ...]

    def __post_init__(self):
        if not self.users:
            raise ValueError("at least one user required")
        total = sum(u.alpha for u in self.users)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"scheduling probabilities must sum to 1, got {total}")


# ──────────────────────────────────────────────────────────────────────────
#  chain construction
# ──────────────────────────────────────────────────────────────────────────

def chain_states(cap: int) -> tuple[tuple, ...]:
    """Canonical state order: empty states by age, then cached (wait, age) pairs."""
    states: list[tuple] = [("empty", j) for j in range(1, cap + 1)]
    for i in range(1, cap - 1):
        for j in range(i + 2, cap + 1):
            states.append(("cached", i, j))
    return tuple(states)


def _next_cache_state(wait_next: int, aoi_next: int, cap: int) -> tuple:
    """Where an undelivered cached packet lands, honoring the discard rules."""
    if wait_next <= cap - 2 and wait_next + 1 < aoi_next:
        return ("cached", wait_next, aoi_next)
    return ("empty", aoi_next)


@lru_cache(maxsize=16)
def _layout(cap: int):
    """States, metric vectors and per-event index templates for one cap."""
    states = chain_states(cap)
    index = {s: i for i, s in enumerate(states)}
    aoi_vec = np.array([s[-1] for s in states], dtype=float)
    empty_vec = np.array([1.0 if s[0] == "empty" else 0.0 for s in states])
    # Seven event kinds, each a fixed set of (row, col) arcs whose probability
    # is one scalar coefficient.  Order matters: build_chain accumulates
    # per-state in this same event order, so batched assembly is bit-identical.
    events: list[tuple[list[int], list[int]]] = [([], []) for _ in range(7)]

    def arc(event: int, src: tuple, dst: tuple) -> None:
        events[event][0].append(index[src])
        events[event][1].append(index[dst])

    for j in range(1, cap + 1):
        src = ("empty", j)
        aged = min(j + 1, cap)
        arc(0, src, ("empty", 1))                       # fresh sample delivered
        arc(1, src, _next_cache_state(1, aged, cap))    # fresh sample lost
        arc(2, src, ("empty", aged))                    # no transmission
    for i in range(1, cap - 1):
        for j in range(i + 2, cap + 1):
            src = ("cached", i, j)
            aged = min(j + 1, cap)
            arc(3, src, ("empty", 1))                       # fresh sample delivered
            arc(4, src, _next_cache_state(1, aged, cap))    # fresh sample lost
            arc(5, src, ("empty", i + 1))                   # cached copy delivered
            arc(6, src, _next_cache_state(i + 1, aged, cap))  # cached copy kept
    packed = tuple(
        (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))
        for rows, cols in events)
    return states, index, aoi_vec, empty_vec, packed


def _coefficients(user: OfrpUserParams, success_prob: float) -> tuple[float, ...]:
    """Per-event probabilities, in the event order used by the layout."""
    a = user.alpha
    u = user.sample_occupied
    q = user.retransmit_old
    ue = user.sample_empty
    p = success_prob
    return (
        a * ue * p,            # 0: empty, fresh sample delivered
        a * ue * (1.0 - p),    # 1: empty, fresh sample lost
        1.0 - a * ue,          # 2: empty, no transmission
        a * u * p,             # 3: cached, fresh sample delivered
        a * u * (1.0 - p),     # 4: cached, fresh sample lost
        a * q * p,             # 5: cached copy delivered
        1.0 - a * u - a * q * p,  # 6: cached copy kept (incl. failed resend)
    )


def build_chain(user: OfrpUserParams, success_prob: float, cap: int) -> ChainModel:
    """Transition matrix of one user's (cache, waiting time, age) chain."""
    if not 0.0 <= success_prob <= 1.0:
        raise ValueError(f"success_prob must lie in [0, 1], got {success_prob}")
    if cap < 2:
        raise ValueError("cap must be at least 2")
    states, _, _, _, events = _layout(cap)
    coeff = _coefficients(user, success_prob)
    n = len(states)
    matrix = np.zeros((n, n))
    for c, (rows, cols) in zip(coeff, events):
        # No event maps one source to the same target twice, so fancy-index
        # addition is safe; overlaps *between* events accumulate across passes.
        matrix[rows, cols] += c
    return ChainModel(states=states, matrix=matrix)


# ──────────────────────────────────────────────────────────────────────────
#  stationary metrics
# ──────────────────────────────────────────────────────────────────────────

def stationary(chain: ChainModel, user: OfrpUserParams, success_prob: float,
               tol: float = 1e-12) -> np.ndarray:
    """Stationary distribution of ``build_chain(user, success_prob, cap)``.

    Refuses degenerate parameter choices under which fresh deliveries never
    happen (alpha * sample_empty * success_prob = 0): the age-1 state is then
    unreachable and the chain drains into the saturated empty state, so no
    informative stationary analysis exists.
    """
    if user.alpha * user.sample_empty * success_prob == 0.0:
        raise ValueError(
            "degenerate parameters: fresh deliveries have probability 0 "
            "(alpha * sample_empty * success_prob = 0), the age-1 state is "
            "unreachable and the age saturates at the cap")
    pi, _ = solve_stationary(chain.matrix, tol)
    return pi


def aoi_marginal(pi: np.ndarray, cap: int) -> np.ndarray:
    """Stationary mass per age value 1..cap, summed over cache states."""
    _, _, aoi_vec, _, _ = _layout(cap)
    return np.bincount(aoi_vec.astype(np.intp) - 1, weights=pi, minlength=cap)


@dataclass(frozen=True)
class OfrpMetrics:
    avg_aoi: float
    empty_fraction: float
    avg_cost: float


def _cost_rate(user: OfrpUserParams, empty_fraction: float,
               sample_cost: float, transmit_cost: float) -> float:
    sample_price = sample_cost + transmit_cost
    return (empty_fraction * user.alpha * user.sample_empty * sample_price
            + (1.0 - empty_fraction) * user.alpha
            * (user.retransmit_old * transmit_cost
               + user.sample_occupied * sample_price))


def metrics(user: OfrpUserParams, success_prob: float, cap: int,
            sample_cost: float, transmit_cost: float) -> OfrpMetrics:
    """Stationary average age, empty-cache fraction, and cost rate of one user.

    Builds and solves the user's chain.  The two degenerate cases, in which
    nothing fresh is ever delivered, have closed answers for the age:

    - alpha * sample_empty = 0 (never scheduled, or never samples when
      empty): the cache drains for good, the age saturates at the cap and
      neither cost term survives, so the result is (cap, 1, 0);
    - success_prob = 0: the age saturates at the cap, but the futile
      attempts still cost, at the rate the solved chain gives.
    """
    if user.alpha * user.sample_empty == 0.0:
        return OfrpMetrics(float(cap), 1.0, 0.0)
    _, _, aoi_vec, empty_vec, _ = _layout(cap)
    chain = build_chain(user, success_prob, cap)
    if success_prob == 0.0:
        pi, _ = solve_stationary(chain.matrix)
        avg_aoi = float(cap)
    else:
        pi = stationary(chain, user, success_prob)
        avg_aoi = float(pi @ aoi_vec)
    theta = float(pi @ empty_vec)
    return OfrpMetrics(
        avg_aoi=avg_aoi,
        empty_fraction=theta,
        avg_cost=_cost_rate(user, theta, sample_cost, transmit_cost))


# ──────────────────────────────────────────────────────────────────────────
#  grid search
# ──────────────────────────────────────────────────────────────────────────

_scan_cache: dict[tuple, tuple[float, float, float, float, float]] = {}

# Cap on doubles per stacked matrix batch (~64 MB); chunks shrink as the
# state space grows.
_BATCH_BUDGET = 8_000_000


def _scan_user(alpha: float, success_prob: float, cap: int, limit: float,
               sample_cost: float, transmit_cost: float, step: float,
               user_index: int) -> tuple[float, float, float, float, float]:
    """Cheapest (sample_occupied, retransmit_old, sample_empty) for one user.

    Returns (u, q, ue, avg_aoi, avg_cost).  Scan order is sample_occupied
    major, then retransmit_old, then sample_empty, keeping only strict cost
    improvements — so ties resolve to the lexicographically smallest triple.
    """
    key = (alpha, success_prob, cap, limit, sample_cost, transmit_cost, step)
    if key in _scan_cache:
        return _scan_cache[key]

    # sample_empty = 0 never delivers anything fresh: the age saturates at the
    # cap, the cache stays empty in steady state, and the cost rate is 0.
    # Those points are feasible exactly when the limit admits the cap, in
    # which case the all-zero triple is the scan's first (and cheapest) hit.
    if limit >= cap:
        result = (0.0, 0.0, 0.0, float(cap), 0.0)
        _scan_cache[key] = result
        return result
    if alpha * success_prob == 0.0:
        raise InfeasibleError(
            f"user {user_index}: deliveries are impossible "
            f"(alpha={alpha:g}, success_prob={success_prob:g}) and the "
            f"average-age limit {limit:g} is below the cap {cap}",
            user=user_index)

    grid = probability_grid(step)
    n = len(grid) - 1
    pairs = [(iu, iq) for iu in range(n + 1) for iq in range(n + 1 - iu)]
    iu_arr = np.repeat([a for a, _ in pairs], n)
    iq_arr = np.repeat([b for _, b in pairs], n)
    iue_arr = np.tile(np.arange(1, n + 1), len(pairs))
    u_all = iu_arr / n
    q_all = iq_arr / n
    ue_all = iue_arr / n

    states, _, aoi_vec, empty_vec, events = _layout(cap)
    s = len(states)
    chunk = max(1, min(4096, _BATCH_BUDGET // (s * s)))
    eye = np.eye(s)
    sample_price = sample_cost + transmit_cost

    best_cost = np.inf
    best: tuple[float, float, float] | None = None
    total = len(u_all)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        u = u_all[lo:hi]
        q = q_all[lo:hi]
        ue = ue_all[lo:hi]
        m = hi - lo
        coeff = np.column_stack([
            alpha * ue * success_prob,
            alpha * ue * (1.0 - success_prob),
            1.0 - alpha * ue,
            alpha * u * success_prob,
            alpha * u * (1.0 - success_prob),
            alpha * q * success_prob,
            1.0 - alpha * u - alpha * q * success_prob,
        ])
        mats = np.zeros((m, s, s))
        for ev, (rows, cols) in enumerate(events):
            mats[:, rows, cols] += coeff[:, ev:ev + 1]
        lhs = mats.transpose(0, 2, 1) - eye
        lhs[:, -1, :] = 1.0
        rhs = np.zeros((m, s, 1))
        rhs[:, -1, 0] = 1.0
        pi = np.linalg.solve(lhs, rhs)[:, :, 0]
        np.clip(pi, 0.0, None, out=pi)
        pi /= pi.sum(axis=1, keepdims=True)
        aoi = pi @ aoi_vec
        theta = pi @ empty_vec
        cost = (theta * alpha * ue * sample_price
                + (1.0 - theta) * alpha * (q * transmit_cost + u * sample_price))
        ok = (aoi <= limit) & (cost < best_cost)
        if np.any(ok):
            cand = np.where(ok, cost, np.inf)
            at = int(np.argmin(cand))
            best_cost = float(cost[at])
            best = (float(u[at]), float(q[at]), float(ue[at]))
    if best is None:
        raise InfeasibleError(
            f"user {user_index}: no grid point (step {step:g}) meets the "
            f"average-age limit {limit:g} at success_prob {success_prob:g}",
            user=user_index)

    # Confirm through the scalar path; batched and scalar arithmetic agree to
    # rounding, and anything beyond that indicates assembly drift.
    m = metrics(OfrpUserParams(alpha, *best), success_prob, cap,
                sample_cost, transmit_cost)
    if abs(m.avg_cost - best_cost) > 1e-9:
        raise RuntimeError(
            f"grid scan inconsistency: batched cost {best_cost!r} vs scalar "
            f"cost {m.avg_cost!r} at {best}")
    result = (*best, m.avg_aoi, m.avg_cost)
    _scan_cache[key] = result
    return result


def optimize(cfg: SystemConfig, step: float = 0.01) -> OfrpParams:
    """Cheapest per-user probabilities meeting every average-age limit.

    Scheduling is uniform (alpha = 1/K).  Each user's triple is found by an
    exhaustive scan of the probability grid; identical users share one scan.
    Raises InfeasibleError naming the first user whose limit no grid point
    can meet.
    """
    k = cfg.num_users
    alpha = 1.0 / k
    users = []
    for i in range(k):
        u, q, ue, _, _ = _scan_user(
            alpha, cfg.success_prob[i], cfg.aoi_cap, cfg.aoi_limit[i],
            cfg.sample_cost, cfg.transmit_cost, step, i)
        users.append(OfrpUserParams(alpha, u, q, ue))
    return OfrpParams(users=tuple(users))


def total_cost(params: OfrpParams, cfg: SystemConfig) -> float:
    """Analytic cost rate summed over users (solves each user's chain)."""
    return sum(
        metrics(user, cfg.success_prob[i], cfg.aoi_cap, cfg.sample_cost,
                cfg.transmit_cost).avg_cost
        for i, user in enumerate(params.users))


# ──────────────────────────────────────────────────────────────────────────
#  simulation policy
# ──────────────────────────────────────────────────────────────────────────

class OfrpPolicy(Policy):
    """Simulates the randomized policy through the generic slot engine."""

    name = "ofrp"

    def __init__(self, params: OfrpParams):
        self.params = params
        self._cum_alpha: list[float] = []
        self._buf: list[float] = []
        self._pos = 0
        self._rng: np.random.Generator | None = None

    def reset(self, cfg: SystemConfig, rng: np.random.Generator) -> None:
        if len(self.params.users) != cfg.num_users:
            raise ValueError("params sized for a different number of users")
        acc = 0.0
        self._cum_alpha = []
        for user in self.params.users:
            acc += user.alpha
            self._cum_alpha.append(acc)
        self._rng = rng
        self._buf = []
        self._pos = 0

    def _uniform(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self._rng.random(8192).tolist()
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return v

    def decide(self, t, aoi, waiting, occupied, vqueue):
        u_sched = self._uniform()
        u_act = self._uniform()
        user = 0
        last = len(self._cum_alpha) - 1
        while user < last and self._cum_alpha[user] <= u_sched:
            user += 1
        params = self.params.users[user]
        if occupied[user]:
            if u_act < params.sample_occupied:
                return user, None
            if u_act < params.sample_occupied + params.retransmit_old:
                return None, user
            return None, None
        if u_act < params.sample_empty:
            return user, None
        return None, None
