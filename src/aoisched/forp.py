"""Fresh-only randomized policy: sample-and-send with a fixed probability.

Under this policy a scheduled user either samples a fresh packet and
transmits it, or stays silent; cached copies are never resent.  The age seen
by the monitor is then a renewal process with per-slot delivery probability
delta = alpha * sample_prob * success_prob, whose stationary law is a
truncated geometric distribution with an atom at the cap.  Everything here is
closed form, and the search takes each user's first feasible grid value.
A fresh-only policy is the fresh-or-old point that samples with the same
probability whatever the cache holds and never resends, so ``optimize``
returns ``ofrp.OfrpParams``, the engine simulates it as ``ofrp.OfrpPolicy``,
and the closed forms here also serve as that chain's analytic oracle.
"""

from __future__ import annotations

import numpy as np

from .model import InfeasibleError, SystemConfig, grid_intervals
from .ofrp import OfrpParams, OfrpUserParams, _per_user


def delivery_rate(alpha: float, sample_prob: float, success_prob: float) -> float:
    """Per-slot probability that a fresh sample gets through."""
    return alpha * sample_prob * success_prob


def stationary_closed_form(delta: float, cap: int) -> np.ndarray:
    """Stationary age distribution over 1..cap for delivery rate ``delta``."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delivery rate must lie in [0, 1], got {delta}")
    if cap < 2:
        raise ValueError("cap must be at least 2")
    keep = 1.0 - delta
    pi = np.empty(cap)
    pi[: cap - 1] = delta * keep ** np.arange(cap - 1)
    pi[cap - 1] = keep ** (cap - 1)
    return pi


def avg_aoi_closed_form(delta: float, cap: int) -> float:
    """Mean stationary age; continuous at delta = 0 where it equals the cap."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delivery rate must lie in [0, 1], got {delta}")
    if cap < 2:
        raise ValueError("cap must be at least 2")
    if delta == 0.0:
        return float(cap)
    keep = 1.0 - delta
    head = ((cap - 1) * keep ** cap - cap * keep ** (cap - 1) + 1.0) / delta
    return head + cap * keep ** (cap - 1)


def user_cost(alpha: float, sample_prob: float, sample_cost: float,
              transmit_cost: float) -> float:
    """Long-run cost rate: every action pays for a sample plus a transmission."""
    return (sample_cost + transmit_cost) * alpha * sample_prob


def total_cost(params: OfrpParams, cfg: SystemConfig) -> float:
    """Closed-form cost rate summed over users; raises ValueError unless
    each user never resends and samples whatever the cache holds."""
    for i, user in enumerate(params.users):
        if user.retransmit_old or user.sample_occupied != user.sample_empty:
            raise ValueError(f"user {i}: {user} is not a fresh-only point")
    return sum(
        user_cost(u.alpha, u.sample_empty, cfg.sample_cost, cfg.transmit_cost)
        for u in params.users)


def optimize(cfg: SystemConfig, step: float = 0.01) -> OfrpParams:
    """Smallest-cost fresh-only points meeting every user's age limit.

    Under uniform scheduling (alpha = 1/K) a user's cost rate
    (c_s + c_tr)·alpha·phi never decreases as phi grows, so each user takes
    the first value of the probability grid that meets its limit: the
    cheapest, with ties going to the smallest phi; users with one
    (success_prob, aoi_limit) share a scan (``ofrp._per_user``).  Each
    user's point is ``OfrpUserParams(alpha, phi, 0.0, phi)``.  Raises
    InfeasibleError, naming the first offending user, when even phi = 1
    cannot meet the limit.
    """
    n = grid_intervals(step)

    def first_feasible(alpha, p, limit, user):
        for phi in (i / n for i in range(n + 1)):   # 0, step, ..., 1
            aoi = avg_aoi_closed_form(delivery_rate(alpha, phi, p), cfg.aoi_cap)
            if aoi <= limit:
                return OfrpUserParams(alpha, phi, 0.0, phi)
        # aoi is the age at the grid's last value, phi 1
        raise InfeasibleError(
            f"user {user}: even sample_prob 1.0 yields average age "
            f"{aoi:.4f} > limit {limit:g}", user=user)

    return _per_user(cfg, first_feasible)
