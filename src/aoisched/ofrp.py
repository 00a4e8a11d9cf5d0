"""Fresh-or-old randomized policy: probabilistic sampling with retransmissions.

A scheduled user holding a cached (still undelivered) packet either samples
afresh, resends the cached copy, or stays silent, each with a fixed
probability; with an empty cache it samples or stays silent.  Per user this
induces a finite Markov chain over (cache state, cached packet's waiting
time, age): empty states are tracked per age value, and cached states only
exist while the cached copy could still strictly improve the age.

The module solves that chain for stationary metrics (average age,
empty-cache fraction, cost rate) and searches the probability grid for the
cheapest parameters meeting an average-age limit.  Its states are those of
``model.transition_table``, which the engine steps through, and its law is
linear in seven action-probability coefficients, one per event
(``_coefficients``).

No transition matrix is built.  Off its boundary states (empty, or cached
with waiting time 1) the chain only walks a deterministic "copy kept"
diagonal, so the balance equations reduce to an O(cap) recursion,
``_boundary_masses``.  ``stationary`` expands it onto every state, and
``metrics``, the source of every number in a CSV, reads that vector.
``grid_table`` reduces it to (average age, empty fraction) at every grid
point, once per (alpha, success_prob, cap, step).  The recursion is
elementwise arithmetic in a fixed order and ``metrics`` makes no BLAS call,
so no CPU or BLAS kernel moves a bit of a table or an analytic number.
``_select`` takes the first cheapest point meeting the limit in scan order,
and ``_scan_user`` re-evaluates the pick through ``metrics`` and raises if
the table's age or cost disagree.  The tests check the recursion against a
dense LAPACK solve and, at small caps, an exact rational one.
"""

from __future__ import annotations

import bisect
import logging
import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (InfeasibleError, SystemConfig, grid_intervals,
                    transition_table)
from .simulate import Policy

log = logging.getLogger(__name__)

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
#  chain coefficients
# ──────────────────────────────────────────────────────────────────────────

def _coefficients(alpha, u, q, ue, p) -> tuple:
    """Probabilities of the chain's seven events, in the order below;
    elementwise, so (u, q, ue) may be scalars or equal-length arrays."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success_prob must lie in [0, 1], got {p}")
    return (
        alpha * ue * p,            # 0: empty, fresh sample delivered
        alpha * ue * (1.0 - p),    # 1: empty, fresh sample lost
        1.0 - alpha * ue,          # 2: empty, no transmission
        alpha * u * p,             # 3: cached, fresh sample delivered
        alpha * u * (1.0 - p),     # 4: cached, fresh sample lost
        alpha * q * p,             # 5: cached copy delivered
        1.0 - alpha * u - alpha * q * p,  # 6: cached copy kept (incl. failed resend)
    )


# ──────────────────────────────────────────────────────────────────────────
#  stationary metrics
# ──────────────────────────────────────────────────────────────────────────

def stationary(user: OfrpUserParams, success_prob: float,
               cap: int) -> np.ndarray:
    """Stationary distribution of one user's (cache, waiting time, age)
    chain, over the states of ``transition_table(cap)`` in their order.

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
    return _solve(user, success_prob, cap)


def _solve(user: OfrpUserParams, success_prob: float, cap: int) -> np.ndarray:
    """The chain's stationary vector, ``_expanded_stationary`` of one chain."""
    coeff = _coefficients(user.alpha, user.sample_occupied,
                          user.retransmit_old, user.sample_empty, success_prob)
    if cap < 2:
        raise ValueError("cap must be at least 2")
    return _expanded_stationary(np.array(coeff)[:, None], cap)[0]


def aoi_marginal(pi: np.ndarray, cap: int) -> np.ndarray:
    """Stationary mass per age value 1..cap, summed over cache states."""
    return np.bincount(transition_table(cap).age - 1, weights=pi, minlength=cap)


@dataclass(frozen=True)
class OfrpMetrics:
    avg_aoi: float
    empty_fraction: float
    avg_cost: float


def _cost_rate(alpha, u, q, ue, theta, sample_cost: float,
               transmit_cost: float):
    """Cost per slot given the empty-cache fraction ``theta``; elementwise."""
    sample_price = sample_cost + transmit_cost
    return (theta * alpha * ue * sample_price
            + (1.0 - theta) * alpha * (q * transmit_cost + u * sample_price))


@lru_cache(maxsize=256)
def metrics(user: OfrpUserParams, success_prob: float, cap: int,
            sample_cost: float, transmit_cost: float) -> OfrpMetrics:
    """Stationary average age, empty-cache fraction, and cost rate of one user.

    Reads them off the user's stationary vector, whose first ``cap``
    entries are the empty states.  The result is frozen and kept for the
    last 256 distinct calls (a few hundred bytes each), so the reports that
    follow ``optimize`` reuse the solves its confirmations made.  The two
    degenerate cases, in which nothing fresh is ever delivered, have closed
    answers for the age:

    - alpha * sample_empty = 0 (never scheduled, or never samples when
      empty): the cache drains for good, the age saturates at the cap and
      neither cost term survives, so the result is (cap, 1, 0);
    - success_prob = 0: the age saturates at the cap, but the futile
      attempts still cost, at the rate the solved chain gives.
    """
    if user.alpha * user.sample_empty == 0.0:
        return OfrpMetrics(float(cap), 1.0, 0.0)
    pi = _solve(user, success_prob, cap)
    avg_aoi = (float(cap) if success_prob == 0.0
               else math.fsum(pi * transition_table(cap).age))
    theta = float(pi[:cap].sum())
    return OfrpMetrics(avg_aoi, theta, _cost_rate(
        user.alpha, user.sample_occupied, user.retransmit_old,
        user.sample_empty, theta, sample_cost, transmit_cost))


# ──────────────────────────────────────────────────────────────────────────
#  grid search
# ──────────────────────────────────────────────────────────────────────────

# Grid points per recursion block times cap (its 5 cap - 5 row work buffer
# is 1.3 MB), and per priced block of the pick (32 KB): blocks stay in cache.
_BLOCK_BUDGET = 1 << 15
_PICK_BLOCK = 1 << 12

# Asserted bound on |table - metrics| for the pick's avg_aoi: one reduction of
# the boundary recursion against the other.  Both are within 1e-12 of a dense
# LAPACK solve at caps 2-30 (the tests' oracle).
TAU = 1e-9

# Finest search grid, n = 1/step: 4,060,200 points (the presets use n = 100, 50).
MAX_GRID_INTERVALS = 200


def search_intervals(step: float) -> int:
    """``grid_intervals(step)``, refused above ``MAX_GRID_INTERVALS``."""
    n = grid_intervals(step)
    if n > MAX_GRID_INTERVALS:
        raise ValueError(f"step {step:g} gives {(n + 1) * (n + 2) // 2 * n:,} "
                         f"grid points; the finest is 1/{MAX_GRID_INTERVALS}")
    return n


def _grid_block(n: int, lo: int, hi: int) -> tuple:
    """(sample_occupied, retransmit_old, sample_empty) at the scan indices
    lo..hi-1 of the step-1/n grid, whose scan order is sample_occupied
    major, then retransmit_old (with u + q <= 1), then sample_empty > 0."""
    pair, ue = np.divmod(np.arange(lo, hi), n)
    # the (u, q) pairs of u = i/n start at pair i (2n + 3 - i) / 2
    first = np.arange(n + 1) * (2 * n + 3 - np.arange(n + 1)) // 2
    u = np.searchsorted(first, pair, side="right") - 1
    return u / n, (pair - first[u]) / n, (ue + 1) / n


def _boundary_masses(coeff: tuple, cap: int, work: np.ndarray) -> tuple:
    """Unnormalized stationary masses (x, y, Y, R, powers, walks, capped,
    stuck) of a block of m chains (cap >= 3), one per entry of the
    ``_coefficients`` arrays c0..c6, in O(cap) elementwise row steps in a
    fixed order (rows are added by Python's ``sum``: numpy would sum a
    one-point block pairwise): powers holds r**0 .. r**K, walks[a - 2] the
    mass on the cached states aged a (3 <= a < cap; walks[0] = 0), and
    capped the mass the walks from (1, j < cap) bring to age cap.  x, y,
    powers and walks are rows of ``work``, a (5 cap - 5, m) array filled in
    place.

    The balance equations are solved on the boundary states: empty(a), mass
    x_a, and the wait-1 cached states (1, j), 3 <= j <= cap, mass y_j.  By
    ``transition_table``'s arcs, event 0 (numbered as in ``_coefficients``)
    leads to empty(1), event 2 ages an empty state, and event 1 ages
    empty(1) but caches (1, min(a + 1, cap)) from
    empty(a >= 2).  (1, j) starts a walk of "copy kept" steps (event 6,
    r = c6) through K = cap - 2 cached states, holding r**k y_j on the k-th;
    from there event 3 leads to empty(1), event 5 to empty(k + 2) and event
    4 to (1, min(j + k + 1, cap)), and the last step discards into
    empty(cap).  These exits do not depend on j, so with R = sum_{k<K} r**k
    and Y = sum_j y_j:

        x_a = g_a x_{a-1} + c5 r**(a-2) Y   (2 <= a < cap; g_2 = c1 + c2, else c2)
        (c0 + c1) x_cap = c2 x_{cap-1} + r**K Y          (c0 + c1 = alpha ue)
        y_j = c1 x_{j-1} + c4 sum_{i<j} r**(j-i-1) y_i      (3 <= j < cap)
        ((c3 + c5) R + r**K) y_cap = c1 (x_{cap-1} + x_cap)
                          + c4 sum_{i<cap} y_i sum_{k=cap-i-1}^{K-1} r**k

    y_cap's factor is 1 - c4 R without the cancellation, and the double sum
    is walks[K - 1] (the mass aged cap - 1) plus capped.  With each x_a
    carried as an (x_1, Y) coefficient pair, xx and xy, the balance at
    empty(1) fixes both as sums of non-negative terms: x_1 = c0 X_Y + c3 R
    and Y = c1 sum_{a>=2} xx_a, X_Y the Y coefficient of X = sum x_a.
    A cap state with no exit in floating point takes all the mass, as a dense
    solve would give it: empty(cap) when c2 = 1 (alpha ue below 2**-53); else (1, cap)
    and its walk when their exit rate, y_cap's factor, is 0 or subnormal
    (alpha u = 1 at success_prob 0 or near); their columns are set so.
    """
    c0, c1, c2, c3, c4, c5, r = coeff
    k = cap - 2
    powers, suffix, x, y, xy = np.split(work, np.cumsum((k + 1, k, cap, k)))
    powers[0] = 1.0
    for i in range(k):                          # r**0 .. r**K
        np.multiply(powers[i], r, out=powers[i + 1])
    suffix[-1] = powers[k - 1]                  # sum_{i <= k' < K} r**k'
    for i in range(k - 2, -1, -1):
        np.add(suffix[i + 1], powers[i], out=suffix[i])
    tail = suffix[0]                            # R
    factor = (c3 + c5) * tail + powers[k]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x[0], x[1], xy[0], xy[1] = 1.0, c1 + c2, 0.0, c5    # x holds xx
        np.multiply(c5, powers[1:k], out=xy[2:-1])
        for a in range(2, cap - 1):
            np.multiply(c2, x[a - 1], out=x[a])
            xy[a] += c2 * xy[a - 1]
        x[-1] = c2 * x[-2] / (c0 + c1)
        xy[-1] = (c2 * xy[-2] + powers[k]) / (c0 + c1)
        total_y = c1 * sum(x[1:])
        x *= c0 * sum(xy) + c3 * tail
        x += np.multiply(xy, total_y, out=xy)
        # y_(j+3) = c1 x_(j+2) + c4 walks[j], walks[j+1] = r walks[j] + y_(j+3)
        walks, kept = xy[:k], r + c4
        walks[0] = 0.0
        np.multiply(c1, x[1:k], out=y[:-1])
        for j in range(k - 1):
            np.multiply(kept, walks[j], out=walks[j + 1])
            walks[j + 1] += y[j]
        y[:-1] += c4 * walks[:-1]
        # (1, j) reaches the cap after cap - j steps: y_j suffix[cap - j]
        capped = sum(np.multiply(suffix[:0:-1], y[:-1], out=suffix[:0:-1]))
        y[-1] = (c1 * (x[-2] + x[-1]) + c4 * (walks[-1] + capped)) / factor
    stuck_empty = c2 == 1.0
    stuck = stuck_empty | (factor < np.finfo(float).tiny)
    x[:, stuck] = y[:, stuck] = 0.0
    x[-1, stuck_empty] = y[-1, stuck & ~stuck_empty] = 1.0
    return (x, y, np.where(stuck, y[-1], total_y), tail, powers, walks,
            capped, stuck)


def _boundary_recursion(coeff: tuple, cap: int,
                        work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary (avg_aoi, empty_fraction) of a block of chains, one per
    entry of the ``_coefficients`` arrays, from ``_boundary_masses``: the
    mass is X + R Y, the empty fraction X over it, and the age sum is
    sum_a a x_a plus a times the walks' mass aged a < cap, plus cap times
    their mass at the cap, capped + R y_cap."""
    c0, c1, c2 = coeff[:3]
    if cap == 2:
        # no cached states: x_1 = c0 and x_2 = c1 + c2 balance empty(1)
        return (c0 + 2.0 * (c1 + c2)) / (c0 + c1 + c2), np.ones_like(c0)
    x, y, total_y, tail, _, walks, capped, stuck = _boundary_masses(
        coeff, cap, work)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        walks += x[1:-1]                # all the mass aged 2 .. cap - 1
        walks *= np.arange(2.0, cap)[:, None]
        aged = (x[0] + sum(walks) + cap * x[-1]
                + cap * (capped + tail * y[-1]))
        empty = sum(x)
        mass = empty + tail * total_y
        return np.where(stuck, float(cap), aged / mass), empty / mass


def _expanded_stationary(coeff: tuple, cap: int) -> np.ndarray:
    """Stationary distributions (m, s) of a block of chains, one per entry
    of the ``_coefficients`` arrays, in ``transition_table(cap)`` order.

    ``_boundary_masses`` expanded onto every state in O(states) steps, the
    "uncoupling" that goes with the stochastic complement (Meyer 1989):
    empty(a) holds x_a, (w, a) below the cap r**(w-1) y_(a-w+1), and (w, cap)
    collects the walks that reach it, r**(w-1) sum_(j >= cap-w+1) y_j.
    Each chain is normalized by the sum of its own contiguous row, so its
    vector has the same bits in any block, alone included.
    """
    if cap == 2:
        pi = np.stack((coeff[0], coeff[1] + coeff[2]))
    else:
        x, y, _, _, powers, *_ = _boundary_masses(
            coeff, cap, np.empty((5 * cap - 5, len(coeff[0]))))
        _, wait, age = np.array(transition_table(cap).states[cap:]).T
        # y's rows, then its suffix sums: row cap - 2 + i is sum_(i' >= i) y_i'
        rows = np.concatenate((y, np.cumsum(y[::-1], axis=0)[::-1]))
        at = np.where(age < cap, age - wait - 2, 2 * cap - wait - 4)
        pi = np.concatenate((x, powers[wait - 1] * rows[at]))
    return (pi / np.ascontiguousarray(pi.T).sum(axis=1)).T


@lru_cache(maxsize=2)
def grid_table(alpha: float, success_prob: float, cap: int,
               step: float) -> tuple[np.ndarray, np.ndarray]:
    """Stationary (avg_aoi, empty_fraction) at every grid point, in scan order.

    ``_boundary_recursion`` solves blocks of ``_BLOCK_BUDGET // cap``
    points, read off their scan indices, from the balance equations on the
    chain's boundary states, in one work buffer that every block reuses:
    exact in exact arithmetic, and within 1e-12 of a dense LAPACK solve in
    floating point at caps 2-30, with the same bits on any CPU or BLAS
    kernel.  ``_scan_user`` confirms each pick through ``metrics``.

    The chains depend on neither the age limit nor the prices, so one table
    serves a whole a_max or cost sweep.  The arrays are read-only because
    every caller shares them.  A preset sweep value meets at most two chains
    (one per user), hence two tables: at step 0.01 (515,100 points) each
    holds 2 * 8 * 515,100 bytes = 8.2 MB, 16.5 MB for both, whatever the cap.
    """
    started = time.perf_counter()
    n = search_intervals(step)
    size = (n + 1) * (n + 2) // 2 * n
    block = max(1, _BLOCK_BUDGET // cap)
    buffer = np.empty((5 * cap - 5) * block)
    avg_aoi, empty_fraction = np.empty(size), np.empty(size)
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        avg_aoi[lo:hi], empty_fraction[lo:hi] = _boundary_recursion(
            _coefficients(alpha, *_grid_block(n, lo, hi), success_prob),
            cap, buffer[:(5 * cap - 5) * (hi - lo)].reshape(-1, hi - lo))
    avg_aoi.flags.writeable = False
    empty_fraction.flags.writeable = False
    log.debug("grid_table cap=%d: boundary recursion over %d points, %.3f s",
              cap, size, time.perf_counter() - started)
    return avg_aoi, empty_fraction


def _select(table: tuple[np.ndarray, np.ndarray], step: float, alpha: float,
            limit: float, sample_cost: float, transmit_cost: float) -> int | None:
    """Index of the first least-cost grid point meeting the limit, in scan
    order, or None if none does.  ``table`` is ``grid_table``'s for ``step``;
    it is priced ``_PICK_BLOCK`` points at a time, and a later block wins
    only on a strictly smaller cost."""
    avg_aoi, theta = table
    n, best, at = search_intervals(step), np.inf, None
    for lo in range(0, len(theta), _PICK_BLOCK):
        hi = min(lo + _PICK_BLOCK, len(theta))
        cost = np.where(avg_aoi[lo:hi] <= limit, _cost_rate(
            alpha, *_grid_block(n, lo, hi), theta[lo:hi], sample_cost,
            transmit_cost), np.inf)
        i = int(np.argmin(cost))
        if cost[i] < best:
            best, at = cost[i], lo + i
    return at


def _scan_user(alpha: float, success_prob: float, cap: int, limit: float,
               sample_cost: float, transmit_cost: float, step: float,
               user_index: int) -> OfrpUserParams:
    """One user's cheapest (sample_occupied, retransmit_old, sample_empty).

    Prices the ``grid_table`` points and takes the first least-cost point
    meeting the limit in scan order, so points whose costs are equal
    doubles resolve to the smallest triple.  At success_prob = 1 the cache
    is never used and every (u, q) pair with one sample_empty ties: the
    table's empty fraction there is exactly 1, their costs are equal
    doubles, and the pick is (0, 0, sample_empty).  An exact tie whose
    doubles differ in the last bit goes to the cheaper double.
    """
    # sample_empty = 0 never delivers anything fresh: the age saturates at the
    # cap, the cache stays empty in steady state, and the cost rate is 0.
    # Those points are feasible exactly when the limit admits the cap, in
    # which case the all-zero triple is the scan's first (and cheapest) hit.
    if limit >= cap:
        return OfrpUserParams(alpha, 0.0, 0.0, 0.0)
    if alpha * success_prob == 0.0:
        raise InfeasibleError(
            f"user {user_index}: deliveries are impossible "
            f"(alpha={alpha:g}, success_prob={success_prob:g}) and the "
            f"average-age limit {limit:g} is below the cap {cap}",
            user=user_index)

    avg_aoi, theta = grid_table(alpha, success_prob, cap, step)
    at = _select((avg_aoi, theta), step, alpha, limit, sample_cost,
                 transmit_cost)
    if at is None:
        raise InfeasibleError(
            f"user {user_index}: no grid point (step {step:g}) meets the "
            f"average-age limit {limit:g} at success_prob {success_prob:g}",
            user=user_index)
    best = tuple(float(v[0]) for v in _grid_block(
        search_intervals(step), at, at + 1))
    user = OfrpUserParams(alpha, *best)

    # Confirm through the scalar path: the table's reduction against the
    # expansion's per-state vector; a gap beyond TAU means one has drifted.
    m = metrics(user, success_prob, cap, sample_cost, transmit_cost)
    cost = _cost_rate(alpha, *best, theta[at], sample_cost, transmit_cost)
    if abs(m.avg_cost - cost) > 1e-9 or abs(m.avg_aoi - avg_aoi[at]) > TAU:
        raise RuntimeError(
            f"grid scan inconsistency at {best}: table (avg_aoi, cost) "
            f"{(float(avg_aoi[at]), float(cost))!r} vs scalar "
            f"{(m.avg_aoi, m.avg_cost)!r}")
    return user


def _per_user(cfg: SystemConfig, pick) -> OfrpParams:
    """Uniform scheduling (alpha = 1/K) with each user's point from
    ``pick(alpha, success_prob, aoi_limit, user)``: the per-user search of
    both randomized policies.  Users with one (success_prob, aoi_limit)
    share the first one's pick, and users are picked in order, so an
    InfeasibleError from ``pick`` names the first user it refuses."""
    alpha, picks = 1.0 / cfg.num_users, {}   # pair -> (first user, params)
    pairs = list(zip(cfg.success_prob, cfg.aoi_limit))
    for i, pair in enumerate(pairs):
        if pair in picks:
            log.debug("user %d: reuses user %d's pick", i, picks[pair][0])
        else:
            picks[pair] = i, pick(alpha, *pair, i)
    return OfrpParams(tuple(picks[pair][1] for pair in pairs))


def optimize(cfg: SystemConfig, step: float = 0.01) -> OfrpParams:
    """Cheapest per-user probabilities meeting every average-age limit.

    Scheduling is uniform (alpha = 1/K).  Each user's triple is the first
    least-cost grid point in scan order that meets the user's limit, priced
    from ``grid_table``, which users on one channel and calls differing only
    in limit or prices share, and users with one (success_prob, aoi_limit)
    share a scan.  Raises InfeasibleError naming the first user whose limit
    no grid point can meet, ValueError if ``search_intervals`` refuses step.
    """
    search_intervals(step)
    return _per_user(cfg, lambda alpha, p, limit, user: _scan_user(
        alpha, p, cfg.aoi_cap, limit, cfg.sample_cost, cfg.transmit_cost,
        step, user))


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
    """Simulates the randomized policy; ``run`` table-walks it through
    ``plan``, and ``decide`` is the same rule slot by slot.

    Each slot takes two uniforms, the scheduling draw first: the scheduled
    user is the first whose cumulative alpha exceeds it (the last user if
    none does), and the second draw picks that user's action.
    """

    name = "ofrp"

    def __init__(self, params: OfrpParams):
        self.params = params

    def reset(self, cfg: SystemConfig, rng: np.random.Generator) -> None:
        users = self.params.users
        if len(users) != cfg.num_users:
            raise ValueError("params sized for a different number of users")
        self._cum_alpha = np.cumsum([user.alpha for user in users])
        # per user, the action draw's bounds to sample if empty, if occupied,
        # and to sample or resend if occupied, as an (n, 3, 1) array
        self._bounds = np.array([(u.sample_empty, u.sample_occupied,
                                  u.sample_occupied + u.retransmit_old)
                                 for u in users])[:, :, None]
        self._rng = rng

    def plan(self, n_slots):
        u_sched, u_act = self._rng.random(2 * n_slots).reshape(n_slots, 2).T
        user = (self._cum_alpha[:-1, None] <= u_sched).sum(0)
        below = (u_act < self._bounds).view(np.int8)
        mine = user == np.arange(len(self._bounds))[:, None]
        return mine * below[:, 0], mine * (2 * below[:, 2] - below[:, 1])  # 1, 2 or 0

    def decide(self, t, aoi, waiting, occupied, vqueue):
        u_sched, u_act = self._rng.random(2).tolist()
        user = min(bisect.bisect_right(self._cum_alpha, u_sched),
                   len(self._cum_alpha) - 1)
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
