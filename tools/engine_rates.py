"""Print the slot engine's rates as the README states them.

Each rate is slots per second, the best of ``--repeats`` runs of ``--slots``
slots, for two users at cap 10 on fig9's configuration (success probability
0.8, sample and transmit costs 1 and 5, aoi_limit 5, V 800):

- walk, exact limit: ``OfrpPolicy`` table-walked, its queues rebuilt as
  prefix sums;
- walk, inexact limit: the same with aoi_limit 4.3, queues slot by slot;
- scored DPP: ``DppPolicy``, scored by the slot loop;
- asked: ``OfrpPolicy`` with its plan withheld, asked through ``decide``;

and for the walk and scored DPP again at cap 30 with aoi_limit 10, fig6's
configuration.  The header line gives the engine's block in slots.

Run from the repository root::

    python3 tools/engine_rates.py                  # 15 runs of 10^5 slots
    python3 tools/engine_rates.py --slots 2000 --repeats 1
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from aoisched import dpp, ofrp  # noqa: E402
from aoisched.model import SystemConfig  # noqa: E402
from aoisched.simulate import _DRAW_BLOCK, run  # noqa: E402


class AskedOfrp(ofrp.OfrpPolicy):
    """The randomized policy with its plan withheld: asked slot by slot."""

    def plan(self, n_slots):
        return None


def rate(policy, cfg: SystemConfig, repeats: int) -> float:
    """Slots per second of the fastest of ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run(policy, cfg)
        best = min(best, time.perf_counter() - t0)
    return cfg.horizon / best


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slots", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    fig9 = dict(num_users=2, success_prob=0.8, sample_cost=1.0,
                transmit_cost=5.0, aoi_cap=10, aoi_limit=5.0,
                horizon=args.slots, seed=746004, v_weight=800.0)
    params = ofrp.OfrpParams(users=(ofrp.OfrpUserParams(0.5, 0.4, 0.3, 0.6),) * 2)
    fig6 = {**fig9, "aoi_cap": 30, "aoi_limit": 10.0}
    cases = [
        ("walk, exact limit", ofrp.OfrpPolicy(params), fig9),
        ("walk, inexact limit", ofrp.OfrpPolicy(params), {**fig9, "aoi_limit": 4.3}),
        ("scored DPP", dpp.DppPolicy(), fig9),
        ("asked", AskedOfrp(params), fig9),
        ("walk, cap 30", ofrp.OfrpPolicy(params), fig6),
        ("scored DPP, cap 30", dpp.DppPolicy(), fig6),
    ]
    print(f"best of {args.repeats} runs of {args.slots} slots, 2 users, cap 10 "
          f"unless named, blocks of {_DRAW_BLOCK} slots")
    for label, policy, config in cases:
        slots_per_s = rate(policy, SystemConfig(**config), args.repeats)
        print(f"{label:20s} {slots_per_s / 1e6:6.2f}M slots/s")


if __name__ == "__main__":
    main()
