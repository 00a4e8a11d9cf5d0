"""Scheduling of status updates over an unreliable shared channel.

Multiple sources keep a monitor fresh under long-run average age-of-
information limits, paying per-slot sampling and transmission costs.  The
package provides:

- ``model``: configuration/state types and the per-slot update laws;
- ``simulate``: a seeded slot-level engine with paired channel randomness;
- ``forp``: the always-fresh randomized sampling policy, its closed-form
  analysis, and its grid optimizer, whose fresh-only points are ``ofrp``
  parameters that never resend;
- ``ofrp``: the fresh-or-old randomized policy (may resend the cached
  packet), its Markov-chain analysis from an O(cap) recursion on the
  chain's boundary states (no matrix is built), and its grid optimizer;
- ``dpp``: the drift-plus-penalty scheduler, whose decision rule is O(K) in
  single-transmitter mode and O(K²) otherwise;
- ``experiments`` / ``cli``: YAML-driven sweeps emitting deterministic CSVs;
- ``validate``: the end-to-end acceptance checks, imported on first use
  (``import aoisched.validate``), so a run never loads them.
"""

from . import dpp, forp, ofrp
from .dpp import DppPolicy
from .experiments import ExperimentSpec, SpecError, load_spec, run_experiment
from .model import (ActionVector, InfeasibleError, SystemConfig, UserState,
                    aoi_step, slot_cost, vqueue_step, waiting_time_step)
from .ofrp import OfrpParams, OfrpPolicy, OfrpUserParams
from .simulate import (Policy, ReplicaSummary, SimStats, run, run_replicas,
                       summarize)

__version__ = "0.1.0"

__all__ = [
    "ActionVector", "DppPolicy", "ExperimentSpec",
    "InfeasibleError", "OfrpParams", "OfrpPolicy", "OfrpUserParams",
    "Policy", "ReplicaSummary", "SimStats",
    "SpecError", "SystemConfig", "UserState", "aoi_step",
    "dpp", "forp", "load_spec", "ofrp", "run",
    "run_experiment", "run_replicas", "slot_cost",
    "summarize", "vqueue_step", "waiting_time_step", "__version__",
]
