"""Experiment scenario loading, sweep execution, and CSV emission.

A scenario is a YAML document: a base system configuration, a set of policy
tokens, one sweep axis with its values, and execution knobs.  Running a
scenario produces two CSV files — aggregate results per (axis value, policy)
and per-age histograms — whose rows are deterministically ordered and carry a
hash of the fully resolved configuration, so re-running a scenario reproduces
the files byte for byte.

Policy tokens: ``dpp`` (drift-plus-penalty, simulated), ``ofrp`` / ``forp``
(randomized policies at their grid-optimized parameters, simulated), and
``ofrp-analytic`` / ``forp-analytic`` (chain/closed-form predictions, no
simulation).  ``optimize_experiment`` writes a third file, the optimized
parameters per user.  Both writers walk the sweep through one generator,
``_sweep``, and take each analytic per-user number from ``_predicted``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path

import yaml

from . import dpp, forp, ofrp
from .model import InfeasibleError, SystemConfig, grid_intervals
from .simulate import SimStats, run, run_replicas

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "AOISCHED_OUT"
DEFAULT_OUTPUT_DIR = "results"

POLICY_TOKENS = ("dpp", "ofrp", "forp", "ofrp-analytic", "forp-analytic")
# Each randomized token's module, by the token's name before any "-analytic".
_MODULES = {"ofrp": ofrp, "forp": forp}

# Canonical sweep axes and accepted spellings.
_AXIS_ALIASES = {
    "p": "p", "success_prob": "p",
    "a_max": "a_max", "aoi_limit": "a_max",
    "c_s": "c_s", "sample_cost": "c_s",
    "v": "v", "v_weight": "v",
}


class SpecError(ValueError):
    """Scenario document rejected; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: str
    base: SystemConfig
    policies: tuple[str, ...]
    sweep_axis: str
    sweep_values: tuple[float, ...]
    replicas: int = 4
    grid_step: float = 0.01
    out_dir: str | None = None


# ──────────────────────────────────────────────────────────────────────────
#  loading and validation
# ──────────────────────────────────────────────────────────────────────────

def available_presets() -> list[str]:
    box = resources.files("aoisched.scenarios")
    return sorted(p.name[:-5] for p in box.iterdir() if p.name.endswith(".yaml"))


def _read_source(source) -> tuple[dict, str]:
    """Accept a dict, a YAML path, or a packaged preset name."""
    if isinstance(source, dict):
        return source, "<dict>"
    origin = str(source)
    path = Path(source)
    try:    # a name too long for the file system raises from is_file too
        if path.suffix in (".yaml", ".yml") or path.is_file():
            text = path.read_text(encoding="utf-8")
        else:
            box = resources.files("aoisched.scenarios") / f"{source}.yaml"
            if not box.is_file():
                raise SpecError(
                    f"unknown scenario {source!r}: not a file, and available "
                    f"presets are {', '.join(available_presets())}")
            text = box.read_text()
            origin = f"preset:{source}"
        stream = io.StringIO(text)
        stream.name = origin        # PyYAML's error marks name the source
        doc = yaml.safe_load(stream)
    except OSError as exc:
        raise SpecError(f"cannot read scenario file {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"{origin}: not UTF-8 text ({exc})") from exc
    except yaml.YAMLError as exc:
        raise SpecError(f"{origin}: malformed YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError(f"{origin}: top level must be a mapping")
    return doc, origin


def _float(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SpecError(f"{path}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SpecError(f"{path}: integer too large for a float") from None


def _get(doc: dict, key: str, kind, path: str, default=None, required=True):
    if key not in doc:
        if required:
            raise SpecError(f"{path}{key}: missing required field")
        return default
    value = doc[key]
    if kind is float and type(value) is int:
        value = _float(value, path + key)
    # YAML's true and false are ints to isinstance; only a bool field takes them
    if kind is not None and (not isinstance(value, kind)
                             or type(value) is bool and kind is not bool):
        raise SpecError(
            f"{path}{key}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}")
    return value


def load_spec(source) -> ExperimentSpec:
    """Parse and validate a scenario document into an ExperimentSpec.

    Every rejection message carries the dotted path of the bad field.
    """
    doc, _ = _read_source(source)
    known = {"scenario", "config", "policies", "sweep", "replicas",
             "grid_step", "output"}
    for key in doc:
        if key not in known:
            raise SpecError(f"{key}: unknown field (expected one of {sorted(known)})")

    scenario = _get(doc, "scenario", str, "")
    cfg_doc = _get(doc, "config", dict, "")
    cfg_known = {"num_users", "success_prob", "sample_cost", "transmit_cost",
                 "aoi_cap", "aoi_limit", "horizon", "seed", "v_weight",
                 "single_transmitter_mode", "burn_in"}
    for key in cfg_doc:
        if key not in cfg_known:
            raise SpecError(f"config.{key}: unknown field")
    try:
        base = SystemConfig(
            num_users=_get(cfg_doc, "num_users", int, "config."),
            success_prob=_get(cfg_doc, "success_prob", None, "config."),
            sample_cost=_get(cfg_doc, "sample_cost", (int, float), "config."),
            transmit_cost=_get(cfg_doc, "transmit_cost", (int, float), "config."),
            aoi_cap=_get(cfg_doc, "aoi_cap", int, "config."),
            aoi_limit=_get(cfg_doc, "aoi_limit", None, "config."),
            horizon=_get(cfg_doc, "horizon", int, "config."),
            seed=_get(cfg_doc, "seed", int, "config."),
            v_weight=_get(cfg_doc, "v_weight", (int, float), "config.",
                          default=800.0, required=False),
            single_transmitter_mode=_get(
                cfg_doc, "single_transmitter_mode", bool, "config.",
                default=True, required=False),
            burn_in=_get(cfg_doc, "burn_in", int, "config.",
                         default=0, required=False),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"config: {exc}") from exc

    policies = _get(doc, "policies", list, "")
    if not policies:
        raise SpecError("policies: must list at least one policy token")
    for i, token in enumerate(policies):
        if token not in POLICY_TOKENS:
            raise SpecError(
                f"policies[{i}]: unknown token {token!r} "
                f"(expected one of {POLICY_TOKENS})")

    sweep = _get(doc, "sweep", dict, "")
    axis_raw = _get(sweep, "axis", str, "sweep.")
    axis = _AXIS_ALIASES.get(axis_raw)
    if axis is None:
        raise SpecError(
            f"sweep.axis: unknown axis {axis_raw!r} "
            f"(expected one of p, a_max, c_s, v)")
    values = _get(sweep, "values", list, "sweep.")
    if not values:
        raise SpecError("sweep.values: must list at least one value")
    values = [_float(v, f"sweep.values[{i}]") for i, v in enumerate(values)]

    replicas = _get(doc, "replicas", int, "", default=4, required=False)
    if replicas < 1:
        raise SpecError("replicas: must be at least 1")
    grid_step = _get(doc, "grid_step", float, "", default=0.01, required=False)
    try:
        grid_intervals(grid_step)
        if {"ofrp", "ofrp-analytic"} & set(policies):
            ofrp.search_intervals(grid_step)
    except ValueError as exc:
        raise SpecError(f"grid_step: {exc}") from exc
    out_dir = _get(doc, "output", str, "", default=None, required=False)

    spec = ExperimentSpec(
        scenario=scenario,
        base=base,
        policies=tuple(policies),
        sweep_axis=axis,
        sweep_values=tuple(sorted(values)),
        replicas=replicas,
        grid_step=grid_step,
        out_dir=out_dir,
    )
    # Axis values must themselves produce valid configurations.
    for v in spec.sweep_values:
        try:
            apply_axis(base, axis, v)
        except ValueError as exc:
            raise SpecError(f"sweep.values: value {v:g} rejected: {exc}") from exc
    return spec


def apply_axis(cfg: SystemConfig, axis: str, value: float) -> SystemConfig:
    """The base configuration with one swept quantity replaced."""
    if axis == "p":
        return replace(cfg, success_prob=value)
    if axis == "a_max":
        return replace(cfg, aoi_limit=value)
    if axis == "c_s":
        return replace(cfg, sample_cost=value)
    if axis == "v":
        return replace(cfg, v_weight=value)
    raise ValueError(f"unknown sweep axis {axis!r}")


# ──────────────────────────────────────────────────────────────────────────
#  output plumbing
# ──────────────────────────────────────────────────────────────────────────

def resolve_out_dir(cli_out: str | None, spec_out: str | None) -> Path:
    chosen = cli_out or spec_out or os.environ.get(OUTPUT_ENV_VAR) \
        or DEFAULT_OUTPUT_DIR
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def config_hash(spec: ExperimentSpec, cfg: SystemConfig, policy: str,
                replicas: int) -> str:
    """Short digest of everything that determines a row's numbers."""
    payload = {
        "schema": SCHEMA_VERSION,
        "scenario": spec.scenario,
        "policy": policy,
        "replicas": replicas,
        "grid_step": spec.grid_step,
        "axis": spec.sweep_axis,
        "config": asdict(cfg),     # tuples dump as lists
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _fmt(value) -> str:
    """Fixed 12-significant-digit rendering so files are byte-stable."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ──────────────────────────────────────────────────────────────────────────
#  sweep execution
# ──────────────────────────────────────────────────────────────────────────

# The columns that every CSV opens with: each writer's base_cells.
_HEAD = ["schema_version", "scenario", "config_hash", "axis", "axis_value",
         "policy"]


def _results_header(num_users: int) -> list[str]:
    head = _HEAD + ["status", "replicas", "horizon", "grid_step", "avg_cost",
                    "stderr_cost"]
    for k in range(1, num_users + 1):
        head += [f"avg_aoi_u{k}", f"stderr_aoi_u{k}", f"theta_u{k}",
                 f"sample_freq_u{k}", f"retransmit_freq_u{k}",
                 f"mean_vqueue_u{k}"]
    return head


def _hist_header(num_users: int) -> list[str]:
    return _HEAD + ["aoi"] + [f"freq_u{k}" for k in range(1, num_users + 1)]


def _sweep(spec: ExperimentSpec, tokens, say, verb: str = ""):
    """Yield (value, cfg, optimum, token) per row in CSV order, saying each
    row's progress line first.  ``optimum(module)`` runs ``module.optimize``
    once per value, so a token and its analytic twin share one search."""
    for value in spec.sweep_values:
        cfg = apply_axis(spec.base, spec.sweep_axis, value)
        optimum = functools.cache(lambda m: m.optimize(cfg, spec.grid_step))
        for token in tokens:
            say(f"[{spec.scenario}] {verb}{spec.sweep_axis}={value:g} {token}")
            yield value, cfg, optimum, token


def _make_policy(token: str, optimum):
    """The simulated policy for a token: DPP, or the randomized policy at
    ``optimum`` of the token's module."""
    if token == "dpp":
        return dpp.DppPolicy()
    if token in _MODULES:
        return ofrp.OfrpPolicy(optimum(_MODULES[token]))
    raise ValueError(f"{token!r} is not a simulated policy token")


def _predicted(module, params, cfg: SystemConfig, i: int) -> tuple:
    """User ``i``'s analytic (average age, empty fraction, sample frequency,
    resend frequency, cost rate) at ``params``, the optimum of ``module``:
    the fresh-or-old chain's metrics, or the fresh-only closed forms, which
    leave the empty fraction blank and never resend."""
    user = params.users[i]
    if module is ofrp:
        m = ofrp.metrics(user, cfg.success_prob[i], cfg.aoi_cap,
                         cfg.sample_cost, cfg.transmit_cost)
        theta = m.empty_fraction
        sample_freq = (theta * user.alpha * user.sample_empty
                       + (1.0 - theta) * user.alpha * user.sample_occupied)
        resend_freq = (1.0 - theta) * user.alpha * user.retransmit_old
        return m.avg_aoi, theta, sample_freq, resend_freq, m.avg_cost
    alpha, phi = user.alpha, user.sample_empty
    delta = forp.delivery_rate(alpha, phi, cfg.success_prob[i])
    return (forp.avg_aoi_closed_form(delta, cfg.aoi_cap), "", alpha * phi, 0.0,
            forp.user_cost(alpha, phi, cfg.sample_cost, cfg.transmit_cost))


def run_experiment(spec: ExperimentSpec, *, out_dir: str | None = None,
                   replicas: int | None = None, threads: int = 1,
                   log=None) -> tuple[Path, Path]:
    """Execute the sweep and write ``<scenario>_results.csv`` and
    ``<scenario>_hist.csv`` into the resolved output directory."""
    say = log or (lambda *_: None)
    n_rep = spec.replicas if replicas is None else replicas
    if n_rep < 1:
        raise SpecError("replicas: must be at least 1")
    out = resolve_out_dir(out_dir, spec.out_dir)
    k = spec.base.num_users

    rows: list[list] = []
    hist_rows: list[list] = []
    for value, cfg, optimum, token in _sweep(spec, spec.policies, say):
        analytic = token.endswith("-analytic")
        n = 0 if analytic else n_rep
        base_cells = [SCHEMA_VERSION, spec.scenario,
                      config_hash(spec, cfg, token, n), spec.sweep_axis,
                      value, token]
        try:
            if analytic:
                module = _MODULES[token.split("-")[0]]
                params, cost, spread, users = optimum(module), 0.0, "", []
                for i in range(k):
                    aoi, theta, sample_freq, resend_freq, user_cost = (
                        _predicted(module, params, cfg, i))
                    cost += user_cost
                    users += [aoi, "", theta, sample_freq, resend_freq, ""]
            else:
                policy = _make_policy(token, optimum)
        except InfeasibleError as exc:
            rows.append(base_cells + [f"infeasible: {exc}", 0, cfg.horizon,
                                      spec.grid_step] + [""] * (2 + 6 * k))
            continue
        if not analytic:
            stats, summary = run_replicas(policy, cfg, n_rep, threads)
            cost, spread = summary.mean_cost, summary.stderr_cost
            users = [column[i] for i in range(k) for column in (
                summary.mean_aoi, summary.stderr_aoi,
                summary.mean_empty_fraction, summary.mean_sample_freq,
                summary.mean_retransmit_freq, summary.mean_vqueue)]
            hist_rows.extend(_histogram_rows(base_cells, cfg, stats))
        rows.append(base_cells + ["ok", n, cfg.horizon, spec.grid_step, cost,
                                  spread] + users)

    results_path = out / f"{spec.scenario}_results.csv"
    hist_path = out / f"{spec.scenario}_hist.csv"
    _write_csv(results_path, _results_header(k), rows)
    _write_csv(hist_path, _hist_header(k), hist_rows)
    say(f"wrote {results_path}")
    say(f"wrote {hist_path}")
    return results_path, hist_path


def _histogram_rows(base_cells: list, cfg: SystemConfig,
                    stats: list[SimStats]) -> list[list]:
    """Replica-aggregated age frequencies, one row per age value."""
    k = cfg.num_users
    recorded = sum(s.horizon - s.burn_in for s in stats)
    out = []
    for age in range(1, cfg.aoi_cap + 1):
        freqs = [
            sum(s.aoi_histogram[i][age - 1] for s in stats) / recorded
            for i in range(k)]
        out.append(base_cells + [age] + freqs)
    return out


# ──────────────────────────────────────────────────────────────────────────
#  parameter-search reports
# ──────────────────────────────────────────────────────────────────────────

def _params_header() -> list[str]:
    return _HEAD + ["user", "status", "alpha", "sample_occupied",
                    "retransmit_old", "sample_empty", "sample_prob",
                    "analytic_aoi", "analytic_cost", "sim_aoi",
                    "sim_total_cost", "sim_theta"]


def optimize_experiment(spec: ExperimentSpec, *, out_dir: str | None = None,
                        log=None) -> Path:
    """Grid-search the randomized policies over the sweep and write
    ``<scenario>_params.csv`` with analytic predictions and one confirming
    simulation per point."""
    say = log or (lambda *_: None)
    out = resolve_out_dir(out_dir, spec.out_dir)
    shorts = dict.fromkeys(token.split("-")[0] for token in spec.policies)
    wanted = [short for short in shorts if short in _MODULES]
    if not wanted:
        raise SpecError(
            "policies: nothing to optimize (need an ofrp or forp token)")

    rows: list[list] = []
    for value, cfg, optimum, token in _sweep(spec, wanted, say, "optimize "):
        base_cells = [SCHEMA_VERSION, spec.scenario,
                      config_hash(spec, cfg, token, 1), spec.sweep_axis,
                      value, token]
        try:
            policy = _make_policy(token, optimum)
        except InfeasibleError as exc:
            rows.append(base_cells + [exc.user, f"infeasible: {exc}"]
                        + [""] * 10)
            continue
        module = _MODULES[token]
        params = optimum(module)
        stats = run(policy, cfg)
        for i, user in enumerate(params.users):
            knobs = ([user.alpha, user.sample_occupied, user.retransmit_old,
                      user.sample_empty, ""] if module is ofrp
                     else [user.alpha, "", "", "", user.sample_empty])
            aoi, _, _, _, cost = _predicted(module, params, cfg, i)
            rows.append(base_cells + [i, "ok"] + knobs + [
                aoi, cost, stats.avg_aoi[i], stats.avg_cost,
                stats.empty_fraction[i]])

    path = out / f"{spec.scenario}_params.csv"
    _write_csv(path, _params_header(), rows)
    say(f"wrote {path}")
    return path
