"""Scheduling of status updates over an unreliable shared channel.

Multiple sources keep a monitor fresh under long-run average age-of-
information limits, paying per-slot sampling and transmission costs.  The
package provides:

- ``model``: configuration/state types and the per-slot update laws;
- ``simulate``: a seeded slot-level engine with paired channel randomness;
- ``forp``: the always-fresh randomized sampling policy (simulated as a
  special case of ``ofrp``), its closed-form analysis, and its grid
  optimizer;
- ``ofrp``: the fresh-or-old randomized policy (may resend the cached
  packet), its Markov-chain analysis from an O(cap) recursion on the
  chain's boundary states (no matrix is built), and its grid optimizer;
- ``dpp``: the drift-plus-penalty scheduler, whose decision rule is O(K) in
  single-transmitter mode and O(K²) otherwise;
- ``experiments`` / ``cli``: YAML-driven sweeps emitting deterministic CSVs;
- ``validate``: the end-to-end acceptance checks.
"""

from . import dpp, forp, ofrp
from .dpp import DppPolicy
from .experiments import ExperimentSpec, SpecError, load_spec, run_experiment
from .forp import ForpParams
from .model import (ActionVector, InfeasibleError, SlotOutcome, SystemConfig,
                    UserState, aoi_step, initial_states, slot_cost, step_users,
                    vqueue_step, waiting_time_step)
from .ofrp import OfrpParams, OfrpPolicy, OfrpUserParams
from .simulate import (IdlePolicy, Policy, ReplicaSummary, SimStats,
                       channel_uniforms, run, run_replicas, summarize)
from .validate import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "ActionVector", "CheckResult", "DppPolicy",
    "ExperimentSpec", "ForpParams", "IdlePolicy",
    "InfeasibleError", "OfrpParams", "OfrpPolicy", "OfrpUserParams",
    "Policy", "ReplicaSummary", "SimStats", "SlotOutcome",
    "SpecError", "SystemConfig", "UserState", "aoi_step", "channel_uniforms",
    "dpp", "forp", "initial_states", "load_spec", "ofrp", "run",
    "run_checks", "run_experiment", "run_replicas", "slot_cost",
    "step_users", "summarize", "vqueue_step",
    "waiting_time_step", "__version__",
]
