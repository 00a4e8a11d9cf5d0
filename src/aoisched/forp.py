"""Fresh-only randomized policy: sample-and-send with a fixed probability.

Under this policy a scheduled user either samples a fresh packet and
transmits it, or stays silent; cached copies are never resent.  The age seen
by the monitor is then a renewal process with per-slot delivery probability
delta = alpha * sample_prob * success_prob, whose stationary law is a
truncated geometric distribution with an atom at the cap.  Everything here is
closed form, and the search takes each user's first feasible grid value.
The policy is simulated as the fresh-or-old policy that samples with the
same probability whatever the cache holds and never resends (``as_ofrp``),
so the closed forms here also serve as its analytic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InfeasibleError, SystemConfig, probability_grid
from .ofrp import OfrpParams, OfrpUserParams


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


@dataclass(frozen=True)
class ForpParams:
    """Per-user scheduling and sampling probabilities."""

    alpha: tuple[float, ...]
    sample_prob: tuple[float, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.sample_prob):
            raise ValueError("alpha and sample_prob must have equal length")
        for a in self.alpha + self.sample_prob:
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"probabilities must lie in [0, 1], got {a}")
        if abs(sum(self.alpha) - 1.0) > 1e-9:
            raise ValueError("scheduling probabilities must sum to 1")

    def as_ofrp(self) -> OfrpParams:
        """The same policy as a fresh-or-old point: sample with sample_prob
        whether or not a packet is cached, never resend."""
        return OfrpParams(tuple(
            OfrpUserParams(a, phi, 0.0, phi)
            for a, phi in zip(self.alpha, self.sample_prob)))


def total_cost(params: ForpParams, cfg: SystemConfig) -> float:
    return sum(
        user_cost(a, phi, cfg.sample_cost, cfg.transmit_cost)
        for a, phi in zip(params.alpha, params.sample_prob))


def optimize(cfg: SystemConfig, step: float = 0.01) -> ForpParams:
    """Smallest-cost sampling probabilities meeting every user's age limit.

    Under uniform scheduling (alpha = 1/K) a user's cost rate
    (c_s + c_tr)·alpha·phi never decreases as phi grows, so each user takes
    the first value of the probability grid that meets its limit: the
    cheapest, with ties going to the smallest phi.  Raises InfeasibleError,
    naming the first offending user, when even sample_prob = 1 cannot meet
    the limit.
    """
    k = cfg.num_users
    alpha = 1.0 / k
    grid = probability_grid(step)
    chosen: list[float] = []
    for user, (p, limit) in enumerate(zip(cfg.success_prob, cfg.aoi_limit)):
        for phi in grid:
            aoi = avg_aoi_closed_form(delivery_rate(alpha, phi, p), cfg.aoi_cap)
            if aoi <= limit:
                break
        else:   # aoi is the age at the grid's last value, sample_prob 1
            raise InfeasibleError(
                f"user {user}: even sample_prob 1.0 yields average age "
                f"{aoi:.4f} > limit {limit:g}", user=user)
        chosen.append(phi)
    return ForpParams(alpha=(alpha,) * k, sample_prob=tuple(chosen))
