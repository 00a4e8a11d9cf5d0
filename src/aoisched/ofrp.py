"""Fresh-or-old randomized policy: probabilistic sampling with retransmissions.

A scheduled user holding a cached (still undelivered) packet either samples
afresh, resends the cached copy, or stays silent, each with a fixed
probability; with an empty cache it samples or stays silent.  Per user this
induces a finite Markov chain over (cache state, cached packet's waiting
time, age): empty states are tracked per age value, and cached states only
exist while the cached copy could still strictly improve the age.

The module builds that chain explicitly, solves it for stationary metrics
(average age, empty-cache fraction, cost rate), and searches the probability
grid for the cheapest parameters meeting an average-age limit.  Its states
and arcs are read off ``model.transition_table``, which the engine steps
through; the law is linear in seven action-probability coefficients, one
per event, so matrices are assembled in stacks for stacked LAPACK solves.

``metrics`` solves the full chain densely; it is the oracle, and every
number that reaches a CSV comes from it.  ``grid_table`` evaluates every
grid point once per (alpha, success_prob, cap, step) in closed form, with
no matrix: off its boundary states (empty, or cached with waiting time 1)
the chain only walks a deterministic "copy kept" diagonal, so the balance
equations reduce to an O(cap) recursion.  ``_select`` takes the first
cheapest point meeting the limit and certifies it: every point whose
feasibility or cost rank a table error of ``TAU`` could flip is solved
densely, exactly as a dense table would, and the pick is made from those
values, so it is the dense table's pick.  ``_scan_user`` re-evaluates the
pick through ``metrics`` and raises if the table's age or cost disagree.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .markov import ChainModel, direct_stationary, finalize, solve_stationary
from .model import (EVENTS, InfeasibleError, SystemConfig, event_code,
                    grid_intervals, transition_table)
from .simulate import Policy, uniform_stream

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
#  chain construction
# ──────────────────────────────────────────────────────────────────────────

# The chain's seven events as table events (``event_code`` of the action if
# empty, the action if cached, hit): from an empty cache 0 sample delivered,
# 1 sample lost, 2 idle; from a cached one 3 sample delivered, 4 sample lost,
# 5 resend delivered, 6 idle, where a failed resend lands too.
_CHAIN_EVENTS = tuple(event_code(*e) for e in (
    (1, 0, 1), (1, 0, 0), (0, 0, 0), (0, 1, 1), (0, 1, 0), (0, 2, 1), (0, 0, 0)))


@lru_cache(maxsize=16)
def _layout(cap: int):
    """States, metric vectors and per-event (row, col) arcs for one cap:
    event g leads each empty (g < 3) or cached state to its table successor
    at ``_CHAIN_EVENTS[g]``.  ``_assemble`` adds the events in this order."""
    table = transition_table(cap)
    successor = table.next_state.reshape(-1, EVENTS)
    empty = table.kind[0, ::EVENTS]
    sources = (np.flatnonzero(empty),) * 3 + (np.flatnonzero(~empty),) * 4
    events = tuple((rows, successor[rows, code])
                   for rows, code in zip(sources, _CHAIN_EVENTS))
    return table.states, table.age.astype(float), empty.astype(float), events


def _coefficients(alpha, u, q, ue, p) -> tuple:
    """Per-event probabilities, in the event order used by the layout;
    elementwise, so (u, q, ue) may be scalars or equal-length arrays."""
    return (
        alpha * ue * p,            # 0: empty, fresh sample delivered
        alpha * ue * (1.0 - p),    # 1: empty, fresh sample lost
        1.0 - alpha * ue,          # 2: empty, no transmission
        alpha * u * p,             # 3: cached, fresh sample delivered
        alpha * u * (1.0 - p),     # 4: cached, fresh sample lost
        alpha * q * p,             # 5: cached copy delivered
        1.0 - alpha * u - alpha * q * p,  # 6: cached copy kept (incl. failed resend)
    )


def _assemble(coeff: tuple, cap: int) -> np.ndarray:
    """Transition matrices (m, s, s) from ``_coefficients`` output, whose
    entries are scalars (m = 1) or (m,) arrays."""
    states, _, _, events = _layout(cap)
    weights = np.column_stack(coeff)
    mats = np.zeros((len(weights), len(states), len(states)))
    for g, (rows, cols) in enumerate(events):
        # Each event has one arc per source, so fancy-index addition is safe;
        # overlaps *between* events accumulate across passes.
        mats[:, rows, cols] += weights[:, g:g + 1]
    return mats


def build_chain(user: OfrpUserParams, success_prob: float, cap: int) -> ChainModel:
    """Transition matrix of one user's (cache, waiting time, age) chain."""
    if not 0.0 <= success_prob <= 1.0:
        raise ValueError(f"success_prob must lie in [0, 1], got {success_prob}")
    if cap < 2:
        raise ValueError("cap must be at least 2")
    coeff = _coefficients(user.alpha, user.sample_occupied, user.retransmit_old,
                          user.sample_empty, success_prob)
    return ChainModel(states=_layout(cap)[0], matrix=_assemble(coeff, cap)[0])


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

    Builds and solves the user's chain.  The result is frozen and kept for
    the last 256 distinct calls (a few hundred bytes each), so the reports
    that follow ``optimize`` reuse the solves its confirmations made.  The
    two degenerate cases, in which nothing fresh is ever delivered, have
    closed answers for the age:

    - alpha * sample_empty = 0 (never scheduled, or never samples when
      empty): the cache drains for good, the age saturates at the cap and
      neither cost term survives, so the result is (cap, 1, 0);
    - success_prob = 0: the age saturates at the cap, but the futile
      attempts still cost, at the rate the solved chain gives.
    """
    if user.alpha * user.sample_empty == 0.0:
        return OfrpMetrics(float(cap), 1.0, 0.0)
    _, aoi_vec, empty_vec, _ = _layout(cap)
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
        avg_cost=_cost_rate(user.alpha, user.sample_occupied,
                            user.retransmit_old, user.sample_empty, theta,
                            sample_cost, transmit_cost))


# ──────────────────────────────────────────────────────────────────────────
#  grid search
# ──────────────────────────────────────────────────────────────────────────

# Cap on doubles per stacked matrix batch of the dense re-solve (~64 MB);
# chunks shrink as the state space grows.
_BATCH_BUDGET = 8_000_000

# Doubles per (cap, points) work array of the boundary recursion (2 MB), so
# a table's working memory stays bounded whatever its size.
_BLOCK_BUDGET = 1 << 18

# Asserted bound on |recursion - dense| for a grid point's avg_aoi and
# empty_fraction; the measured gap is below 4e-13.
TAU = 1e-9


def _grid_points(step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sample_occupied, retransmit_old, sample_empty) over the grid, in scan
    order: sample_occupied major, then retransmit_old (with u + q <= 1),
    then sample_empty > 0."""
    n = grid_intervals(step)
    pairs = [(iu, iq) for iu in range(n + 1) for iq in range(n + 1 - iu)]
    iu = np.repeat([a for a, _ in pairs], n)
    iq = np.repeat([b for _, b in pairs], n)
    iue = np.tile(np.arange(1, n + 1), len(pairs))
    return iu / n, iq / n, iue / n


def _boundary_recursion(coeff: tuple, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Stationary (avg_aoi, empty_fraction) of a block of chains, one per
    entry of the ``_coefficients`` arrays c0..c6, in O(cap) array steps.

    The balance equations are solved on the boundary states: empty(a), mass
    x_a, and the wait-1 cached states (1, j), 3 <= j <= cap, mass y_j.  By
    ``_layout``'s arcs, event 0 leads to empty(1), event 2 ages an empty
    state, and event 1 ages empty(1) but caches (1, min(a + 1, cap)) from
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

    y_cap's factor is 1 - c4 R without the cancellation.  With each x_a
    carried as an (x_1, Y) coefficient pair, the balance at empty(1) fixes
    both as sums of non-negative terms: x_1 = c0 X_Y + c3 R and
    Y = c1 sum_{a>=2} x_a|(x_1=1, Y=0), X_Y the Y coefficient of X = sum x_a.
    The mass is X + R Y, the empty fraction X over it, and the age sum adds
    y_j sum_k r**k min(j + k, cap) to sum_a a x_a.  A cap state with no exit
    in floating point takes all the mass, as in the dense solve: empty(cap)
    when c2 = 1 (alpha ue below 2**-53), (1, cap) when its walks' exit rate,
    y_cap's factor, is 0 or subnormal (alpha u = 1 at success_prob 0 or near).
    """
    c0, c1, c2, c3, c4, c5, r = coeff
    if cap == 2:
        # no cached states: x_1 = c0 and x_2 = c1 + c2 balance empty(1)
        return (c0 + 2.0 * (c1 + c2)) / (c0 + c1 + c2), np.ones_like(c0)
    k = cap - 2
    powers = r ** np.arange(k + 1.0)[:, None]            # r**0 .. r**K
    tail = powers[:k].sum(axis=0)                        # R
    factor = (c3 + c5) * tail + powers[k]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xx, xy = [np.ones_like(c0), c1 + c2], [np.zeros_like(c0), c5]
        for a in range(3, cap):
            xx.append(c2 * xx[-1])
            xy.append(c2 * xy[-1] + c5 * powers[a - 2])
        xx.append(c2 * xx[-1] / (c0 + c1))
        xy.append((c2 * xy[-1] + powers[k]) / (c0 + c1))
        total_y = c1 * sum(xx[1:])
        x = (c0 * sum(xy) + c3 * tail) * np.array(xx) + total_y * np.array(xy)
        ys, walking = [], 0.0
        for j in range(3, cap):
            ys.append(c1 * x[j - 2] + c4 * walking)
            walking = r * walking + ys[-1]
        # ages[j - 3, k]: the age on the k-th state of the walk from (1, j);
        # event 4 leads from any state aged cap - 1 or more to (1, cap)
        ages = np.minimum(np.arange(3, cap + 1)[:, None] + np.arange(k), cap)
        fed = sum(y * t for y, t in zip(ys, (ages[:-1] >= cap - 1) @ powers[:k]))
        ys.append((c1 * (x[-2] + x[-1]) + c4 * fed) / factor)
        empty = x.sum(axis=0)
        mass = empty + tail * total_y
        theta = empty / mass
        avg_aoi = (np.arange(1.0, cap + 1) @ x + np.sum(
            np.array(ys) * (ages @ powers[:k]), axis=0)) / mass
    stuck_empty, stuck_cached = c2 == 1.0, factor < np.finfo(float).tiny
    avg_aoi = np.where(stuck_empty | stuck_cached, float(cap), avg_aoi)
    theta = np.where(stuck_empty, 1.0, np.where(stuck_cached, 0.0, theta))
    return avg_aoi, theta


@lru_cache(maxsize=2)
def grid_table(alpha: float, success_prob: float, cap: int,
               step: float) -> tuple[np.ndarray, np.ndarray]:
    """Stationary (avg_aoi, empty_fraction) at every grid point, in scan order.

    ``_boundary_recursion`` solves blocks of ``_BLOCK_BUDGET // cap`` points
    from the balance equations on the chain's boundary states, derived from
    ``_layout``'s seven events: exact in exact arithmetic, and within
    ``TAU`` of the dense solve in floating point (below 4e-13 at caps 2-30).
    ``_select`` certifies its pick against the dense solve.

    The chains depend on neither the age limit nor the prices, so one table
    serves a whole a_max or cost sweep.  The arrays are read-only because
    every caller shares them.  A preset sweep value meets at most two chains
    (one per user), hence two tables: at step 0.01 (515,100 points) each
    holds 2 * 8 * 515,100 bytes = 8.2 MB, 16.5 MB for both, whatever the cap.
    """
    started = time.perf_counter()
    u, q, ue = _grid_points(step)
    block = max(1, _BLOCK_BUDGET // cap)
    avg_aoi = np.empty(len(u))
    empty_fraction = np.empty(len(u))
    for lo in range(0, len(u), block):
        at = slice(lo, lo + block)
        avg_aoi[at], empty_fraction[at] = _boundary_recursion(
            _coefficients(alpha, u[at], q[at], ue[at], success_prob), cap)
    avg_aoi.flags.writeable = False
    empty_fraction.flags.writeable = False
    log.debug("grid_table cap=%d: boundary recursion over %d points, %.3f s",
              cap, len(u), time.perf_counter() - started)
    return avg_aoi, empty_fraction


def _dense_points(alpha: float, success_prob: float, cap: int, step: float,
                  at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense-chain (avg_aoi, empty_fraction) at the sorted grid indices
    ``at``, bit for bit the values a whole-grid dense table has there.

    That table solves the grid in consecutive stacked batches through
    ``_assemble``, ``direct_stationary`` and ``finalize``, all of which treat
    each point alone.  BLAS rounds a row of a matrix-vector product
    differently by its place in the batch, so each solved row is put back
    at its place in a batch of its chunk's shape before the products.
    """
    u, q, ue = _grid_points(step)
    states, aoi_vec, empty_vec, _ = _layout(cap)
    chunk = max(1, min(4096, _BATCH_BUDGET // len(states) ** 2))
    avg_aoi = np.empty(len(at))
    empty_fraction = np.empty(len(at))
    for lo in range(0, len(u), chunk):
        sel = np.flatnonzero((at >= lo) & (at < lo + chunk))
        if not len(sel):
            continue
        idx = at[sel]
        coeff = _coefficients(alpha, u[idx], q[idx], ue[idx], success_prob)
        pi = np.zeros((min(chunk, len(u) - lo), len(states)))
        pi[idx - lo] = finalize(direct_stationary(_assemble(coeff, cap)))
        avg_aoi[sel] = (pi @ aoi_vec)[idx - lo]
        empty_fraction[sel] = (pi @ empty_vec)[idx - lo]
    return avg_aoi, empty_fraction


def _cost_error(alpha, u, q, ue, sample_cost: float, transmit_cost: float):
    """Bound on the cost change a table error of at most ``TAU`` in the
    empty fraction can cause: |d cost / d theta| * TAU, plus TAU times the
    price terms to cover rounding; 0 at zero prices, whose costs are exact."""
    if_empty = _cost_rate(alpha, u, q, ue, 1.0, sample_cost, transmit_cost)
    if_cached = _cost_rate(alpha, u, q, ue, 0.0, sample_cost, transmit_cost)
    return TAU * (np.abs(if_empty - if_cached) + if_empty + if_cached)


def _select(table: tuple[np.ndarray, np.ndarray], alpha: float,
            success_prob: float, cap: int, limit: float, sample_cost: float,
            transmit_cost: float, step: float) -> tuple[int | None, np.ndarray]:
    """(index, resolved): the first least-cost grid point meeting the limit
    in scan order (None if there is none) as the dense table would pick it,
    and the grid indices solved densely to make sure of that.

    ``table`` is ``grid_table(alpha, success_prob, cap, step)``, within
    ``TAU`` of the dense table.  The points solved densely are those whose
    feasibility (avg_aoi within TAU of the limit) or whose cost rank against
    the best surely-feasible point (overlapping ``_cost_error`` intervals)
    could differ in the dense table; the pick is the argmin over their dense
    values.  When the table's pick is the only such point and surely
    feasible, it stands without a dense solve.
    """
    u, q, ue = _grid_points(step)
    avg_aoi, theta = table
    cost = _cost_rate(alpha, u, q, ue, theta, sample_cost, transmit_cost)
    err = _cost_error(alpha, u, q, ue, sample_cost, transmit_cost)
    near = np.abs(avg_aoi - limit) <= TAU
    sure = (avg_aoi <= limit) & ~near
    contenders = (avg_aoi <= limit) | near
    if sure.any():
        # the dense pick cannot rank behind the best surely-feasible point
        high = np.where(sure, cost + err, np.inf)
        best = int(np.argmin(high))
        low = cost - err
        contenders &= (low < high[best]) | (
            (low == high[best]) & (np.arange(len(cost)) <= best))
    resolved = np.flatnonzero(contenders)
    if not len(resolved):
        return None, resolved
    if len(resolved) == 1 and sure[resolved[0]]:
        return int(resolved[0]), resolved[:0]
    dense_aoi, dense_theta = _dense_points(alpha, success_prob, cap, step,
                                           resolved)
    dense_cost = _cost_rate(alpha, u[resolved], q[resolved], ue[resolved],
                            dense_theta, sample_cost, transmit_cost)
    dense_cost = np.where(dense_aoi <= limit, dense_cost, np.inf)
    if not dense_cost.min() < np.inf:
        return None, resolved
    return int(resolved[np.argmin(dense_cost)]), resolved


def _scan_user(alpha: float, success_prob: float, cap: int, limit: float,
               sample_cost: float, transmit_cost: float, step: float,
               user_index: int) -> tuple[float, float, float, float, float]:
    """Cheapest (sample_occupied, retransmit_old, sample_empty) for one user.

    Returns (u, q, ue, avg_aoi, avg_cost).  Prices the ``grid_table`` points
    and takes the first least-cost point meeting the limit in scan order, by
    the certified values ``_select`` settles on.  Exact ties do not always
    resolve to the smallest triple: at success_prob = 1 the cache is never
    used, so every (u, q) pair with one sample_empty ties in exact arithmetic,
    and rounding in the solved empty fraction decides between them.
    """
    # sample_empty = 0 never delivers anything fresh: the age saturates at the
    # cap, the cache stays empty in steady state, and the cost rate is 0.
    # Those points are feasible exactly when the limit admits the cap, in
    # which case the all-zero triple is the scan's first (and cheapest) hit.
    if limit >= cap:
        return (0.0, 0.0, 0.0, float(cap), 0.0)
    if alpha * success_prob == 0.0:
        raise InfeasibleError(
            f"user {user_index}: deliveries are impossible "
            f"(alpha={alpha:g}, success_prob={success_prob:g}) and the "
            f"average-age limit {limit:g} is below the cap {cap}",
            user=user_index)

    avg_aoi, theta = grid_table(alpha, success_prob, cap, step)
    at, resolved = _select((avg_aoi, theta), alpha, success_prob, cap, limit,
                           sample_cost, transmit_cost, step)
    log.debug("user %d: %d grid points re-solved densely", user_index,
              len(resolved))
    if at is None:
        raise InfeasibleError(
            f"user {user_index}: no grid point (step {step:g}) meets the "
            f"average-age limit {limit:g} at success_prob {success_prob:g}",
            user=user_index)
    u, q, ue = _grid_points(step)
    best = (float(u[at]), float(q[at]), float(ue[at]))

    # Confirm through the scalar path; the table is within TAU of it, and
    # anything beyond that indicates assembly drift.
    m = metrics(OfrpUserParams(alpha, *best), success_prob, cap,
                sample_cost, transmit_cost)
    cost = _cost_rate(alpha, *best, theta[at], sample_cost, transmit_cost)
    if abs(m.avg_cost - cost) > 1e-9 or abs(m.avg_aoi - avg_aoi[at]) > TAU:
        raise RuntimeError(
            f"grid scan inconsistency at {best}: table (avg_aoi, cost) "
            f"{(float(avg_aoi[at]), float(cost))!r} vs scalar "
            f"{(m.avg_aoi, m.avg_cost)!r}")
    return (*best, m.avg_aoi, m.avg_cost)


def optimize(cfg: SystemConfig, step: float = 0.01) -> OfrpParams:
    """Cheapest per-user probabilities meeting every average-age limit.

    Scheduling is uniform (alpha = 1/K).  Each user's triple is the first
    least-cost grid point in scan order that meets the user's limit, priced
    from ``grid_table``, which users on one channel and calls differing only
    in limit or prices share.  Raises InfeasibleError naming the first user
    whose limit no grid point can meet.
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
    """Simulates the randomized policy; ``run`` table-walks it through
    ``plan``, and ``decide`` is the same rule slot by slot.

    Each slot takes two uniforms, the scheduling draw first: the scheduled
    user is the first whose cumulative alpha exceeds it (the last user if
    none does), and the second draw picks that user's action.
    """

    name = "ofrp"

    def __init__(self, params: OfrpParams):
        self.params = params
        self._cum_alpha: list[float] = []

    def __reduce__(self):
        # the draw stream is a generator, which cannot be pickled; ``reset``
        # rebuilds it at the start of every run
        return type(self), (self.params,)

    def reset(self, cfg: SystemConfig, rng: np.random.Generator) -> None:
        if len(self.params.users) != cfg.num_users:
            raise ValueError("params sized for a different number of users")
        acc = 0.0
        self._cum_alpha = []
        for user in self.params.users:
            acc += user.alpha
            self._cum_alpha.append(acc)
        self._rng = rng
        self._draws = uniform_stream(rng)

    def plan(self, n_slots):
        users = self.params.users
        u_sched, u_act = self._rng.random(2 * n_slots).reshape(n_slots, 2).T
        user = np.minimum(
            np.searchsorted(self._cum_alpha, u_sched, side="right"),
            len(users) - 1)
        sample_empty = np.array([u.sample_empty for u in users])[user]
        sample_occupied = np.array([u.sample_occupied for u in users])[user]
        sample_or_resend = np.array(
            [u.sample_occupied + u.retransmit_old for u in users])[user]
        slots = np.arange(n_slots)
        if_empty = np.zeros((len(users), n_slots), dtype=np.int8)
        if_occupied = np.zeros_like(if_empty)
        if_empty[user, slots] = u_act < sample_empty
        if_occupied[user, slots] = np.where(
            u_act < sample_occupied, 1, np.where(u_act < sample_or_resend, 2, 0))
        return if_empty, if_occupied

    def decide(self, t, aoi, waiting, occupied, vqueue):
        u_sched = next(self._draws)
        u_act = next(self._draws)
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
