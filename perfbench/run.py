"""aoisched benchmark: preset workloads timed end to end, layers timed by tracing.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig9_dpp --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --record        # re-record perfbench/reference.json

Each workload is a packaged scenario preset with its horizon and grid step
reduced.  The benchmark writes the scenario (with the run's seed) into a work
directory inside the checkout and runs it through the public API
(``load_spec`` + ``run_experiment``/``optimize_experiment``, threads=1) in a
fresh interpreter per repeat, with ``src`` on ``PYTHONPATH`` and BLAS pinned
to one thread.  Fresh interpreters matter: ``ofrp``'s module-level scan cache
and the chain-layout ``lru_cache`` would turn in-process repeats into
warm-cache runs, while a CLI user pays the cold cost on every invocation.

A run first executes the workload once at the preset seed and compares every
CSV byte for byte (sha256) with ``reference.json``.  It then repeats the
workload at ``--seed`` until ``--seconds`` seconds have passed since the
start.  Every repeat must give the same CSV digests as the first one, and
the seed-independent cells (analytic columns, parameters, layout) must match
the reference.  With ``--trace 0`` the medians of wall time, set-up time and
peak RSS are reported.  With ``--trace 1`` untraced and traced repeats
alternate, and the per-layer metrics come from the traced ones (see
``child.py``).

Times with tracing off are scaled to a reference host speed.  The speed a
shared host gives a process drifts by up to 2x for seconds to minutes at a
time, and CPU time drifts with it.  Every untraced child therefore runs a
fixed probe from an interval timer (see ``child.py``).  Its own time is taken
out of the child's times, which are then multiplied by ``REF_PROBE_S`` over
the child's mean probe duration.  The raw times are reported per layer.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (CSV files checked / not matching) and
``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PRESETS = SRC / "aoisched" / "scenarios"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

# workload -> packaged preset and public entry point
WORKLOADS = {
    "fig9_dpp": ("fig9", "run"),
    "fig6_optimize": ("fig6", "optimize"),
    "fig5a_full": ("fig5a", "run"),
}
# Reduced sizes per profile; "smoke" is the tiny one used by smoke.py.
PROFILES = {
    "bench": {
        "fig9_dpp": {"horizon": 20000},
        "fig6_optimize": {"horizon": 10000, "grid_step": 0.2},
        "fig5a_full": {"horizon": 10000, "grid_step": 0.05},
    },
    "smoke": {
        "fig9_dpp": {"horizon": 500},
        "fig6_optimize": {"horizon": 300, "grid_step": 0.5},
        "fig5a_full": {"horizon": 500, "grid_step": 0.25},
    },
}

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "simulate.run.calls": "count", "simulate.slots": "count",
    "simulate.run_s": "s", "simulate.self_s": "s",
    "simulate.slots_per_s.dpp": "1/s", "simulate.slots_per_s.ofrp": "1/s",
    "simulate.slots_per_s.forp": "1/s",
    "dpp.decide.calls": "count", "dpp.decide_s": "s", "dpp.decide_us": "us",
    "ofrp.optimize.calls": "count", "ofrp.optimize_s": "s",
    "ofrp.assembly_s": "s", "ofrp.grid_points": "count",
    "ofrp.points_per_optimize": "count", "ofrp.grid_points_per_s": "1/s",
    "ofrp.decide.calls": "count", "ofrp.decide_s": "s",
    "lapack.solve.calls": "count", "lapack.matrices": "count",
    "lapack.solve_s": "s",
    "markov.solve_stationary.calls": "count",
    "markov.solve_stationary_s": "s", "markov.states_solved": "count",
    "forp.optimize_s": "s", "forp.decide.calls": "count", "forp.decide_s": "s",
    "experiments.self_s": "s", "experiments.csv_bytes": "bytes",
    "experiments.row_s.p50": "s", "experiments.row_s.max": "s",
    "process.cpu_s": "s", "process.tracing_overhead": "ratio",
    "process.wall_raw_s": "s", "process.setup_raw_s": "s",
    "process.probe_ms": "ms",
}

# Probe duration that defines the reference host speed: about the median
# on a 2-vCPU 2.1 GHz Xeon VM, so that scaled times read close to raw ones.
REF_PROBE_S = 0.00075

# Hand-measured baseline (2 users, cap 10) that traced figures must agree
# with in order of magnitude; a factor beyond 10 points at a broken wrapper
# or at a real change, so it is reported as a warning.
BASELINE = {"simulate.slots_per_s.dpp": 262e3, "simulate.slots_per_s.ofrp": 336e3,
            "ofrp.assembly_share_cap10": 0.46}

CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
RUN_DEADLINE_S = 160    # no child may still run this long after the start


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


# ──────────────────────────────────────────────────────────────────────────
#  inputs
# ──────────────────────────────────────────────────────────────────────────

def scenario_doc(workload: str, profile: str, seed: int | None) -> dict:
    """The preset document with the profile's sizes and the run's seed."""
    preset, _ = WORKLOADS[workload]
    doc = yaml.safe_load((PRESETS / f"{preset}.yaml").read_text())
    sizes = PROFILES[profile][workload]
    doc["config"]["horizon"] = sizes["horizon"]
    if "grid_step" in sizes:
        doc["grid_step"] = sizes["grid_step"]
    if seed is not None:
        doc["config"]["seed"] = seed
    return doc


def recorded_values(doc: dict) -> dict:
    return {"horizon": doc["config"]["horizon"], "seed": doc["config"]["seed"],
            "grid_step": doc.get("grid_step"), "replicas": doc.get("replicas"),
            "policies": doc["policies"], "sweep": doc["sweep"],
            "aoi_cap": doc["config"]["aoi_cap"], "threads": 1}


# ──────────────────────────────────────────────────────────────────────────
#  one fresh-interpreter execution
# ──────────────────────────────────────────────────────────────────────────

def run_child(workdir: Path, tag: str, scenario: Path, entry: str,
              traced: bool, deadline: float) -> dict:
    """Run child.py once; returns its result plus spawn time and CSV digests."""
    out = workdir / tag
    out.mkdir()
    result_path = workdir / f"{tag}.json"
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "AOISCHED_OUT", "PYTHONSTARTUP")}
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, "-s", str(BENCH_DIR / "child.py"), str(scenario),
           entry, str(out), str(result_path), "1" if traced else "0"]
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - t_spawn))
    t_exit = time.perf_counter() - t_spawn
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stderr[-4000:])
        return {"ok": False, "traced": traced, "digests": {}, "seed_free": {},
                "csv_bytes": 0, "t_exit": t_exit}
    res = json.loads(result_path.read_text())
    expected_file = (SRC / "aoisched" / "__init__.py").resolve()
    if Path(res["versions"]["aoisched_file"]).resolve() != expected_file:
        raise BenchError(f"child imported aoisched from "
                         f"{res['versions']['aoisched_file']}, not {expected_file}")
    csvs = sorted(out.glob("*.csv"))
    res.update(
        ok=True, traced=traced, t_spawn=t_spawn, t_exit=t_exit,
        digests={p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in csvs},
        seed_free={p.name: seed_free_digest(p) for p in csvs},
        csv_bytes=sum(p.stat().st_size for p in csvs))
    shutil.rmtree(out)
    return res


def seed_free_digest(path: Path) -> str:
    """sha256 of the cells that do not depend on the scenario seed.

    Dropped: ``config_hash`` (it hashes the seed), simulated statistics
    (``sim_*``, ``freq_u*``, and every column after ``grid_step`` on a
    simulated results row).  Kept: layout, statuses, optimized parameters
    and analytic predictions.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    keep = [i for i, h in enumerate(header)
            if h != "config_hash" and not h.startswith(("sim_", "freq_u"))]
    cut = None
    if "grid_step" in header and "replicas" in header:
        cut = header.index("grid_step") + 1
        replicas = header.index("replicas")
    h = hashlib.sha256()
    for n, row in enumerate(rows):
        cols = keep
        if cut is not None and n > 0 and row[replicas] != "0":
            cols = [i for i in keep if i < cut]
        h.update(("\x1f".join(row[i] for i in cols) + "\n").encode())
    return h.hexdigest()


# ──────────────────────────────────────────────────────────────────────────
#  metrics
# ──────────────────────────────────────────────────────────────────────────

def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def scale(res: dict) -> None:
    """Add an untraced child's times without probe time, raw and scaled."""
    probe = res.get("probe") or {}
    if not probe.get("count"):
        raise BenchError("no probe ran in an untraced repeat")
    mean = probe["total_s"] / probe["count"]
    res["wall"] = res["t_done"] - res["t_spawn"] - probe["total_s"]
    res["setup"] = res["t_setup"] - res["t_spawn"] - probe["setup_s"]
    res["probe_ms"] = 1e3 * mean
    res["wall_ref"] = res["wall"] * REF_PROBE_S / mean
    res["setup_ref"] = res["setup"] * REF_PROBE_S / mean


def row_times(res: dict) -> list[float]:
    """Per (value, token) row: from its log message to the next one."""
    marks = res.get("log_marks") or []
    out = []
    for (t, wrote), (t_next, _) in zip(marks, marks[1:]):
        if not wrote:
            out.append(t_next - t)
    return out


def layer_metrics(res: dict) -> dict:
    spans = res["spans"]
    counts = res["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "simulate.run.calls": calls("simulate.run"),
        "simulate.slots": counts.get("simulate.slots", 0),
        "simulate.run_s": total("simulate.run"),
        "simulate.self_s": own("simulate.run") + own("simulate.run_replicas"),
    }
    for policy in ("dpp", "ofrp", "forp"):
        m[f"simulate.slots_per_s.{policy}"] = ratio(
            counts.get(f"simulate.slots.{policy}", 0),
            counts.get(f"simulate.run_s.{policy}", 0.0))
        m[f"{policy}.decide.calls"] = calls(f"{policy}.decide")
        m[f"{policy}.decide_s"] = total(f"{policy}.decide")
    m["dpp.decide_us"] = 1e6 * ratio(m["dpp.decide_s"], m["dpp.decide.calls"])
    grid_points = counts.get("ofrp.grid_points", 0)
    m.update({
        "ofrp.optimize.calls": calls("ofrp.optimize"),
        "ofrp.optimize_s": total("ofrp.optimize"),
        "ofrp.assembly_s": own("ofrp.optimize"),
        "ofrp.grid_points": grid_points,
        "ofrp.points_per_optimize": ratio(grid_points, calls("ofrp.optimize")),
        "ofrp.grid_points_per_s": ratio(grid_points, total("ofrp.optimize")),
        "lapack.solve.calls": calls("lapack.solve"),
        "lapack.matrices": counts.get("lapack.matrices", 0),
        "lapack.solve_s": total("lapack.solve"),
        "markov.solve_stationary.calls": calls("markov.solve_stationary"),
        "markov.solve_stationary_s": total("markov.solve_stationary"),
        "markov.states_solved": counts.get("markov.states_solved", 0),
        "forp.optimize_s": total("forp.optimize"),
        "experiments.self_s": own("experiments"),
        "experiments.csv_bytes": res["csv_bytes"],
    })
    return m


def trace_checks(res: dict, cap: int) -> tuple[list[str], list[str]]:
    """(errors, warnings) for one traced execution."""
    errors, warnings = [], []
    spans = res["spans"]
    negative = {n: s[2] for n, s in spans.items() if s[2] < -1e-6}
    if negative:
        errors.append(f"negative self time: {negative}")
    covered = sum(s[2] for s in spans.values())
    window = res["t_done"] - res["t_imported"]
    if abs(covered - window) > 0.02 * window + 1e-3:
        errors.append(f"layer self times sum to {covered:.4f} s but the traced "
                      f"window after import is {window:.4f} s")
    m = layer_metrics(res)
    for name in ("simulate.slots_per_s.dpp", "simulate.slots_per_s.ofrp"):
        if m[name] and not BASELINE[name] / 10 <= m[name] <= BASELINE[name] * 10:
            warnings.append(f"{name} = {m[name]:.0f} is not within 10x of the "
                            f"baseline {BASELINE[name]:.0f}")
    solve = res["counts"].get("ofrp.grid_solve_s", 0.0)
    if cap == 10 and solve:
        share = m["ofrp.assembly_s"] / (m["ofrp.assembly_s"] + solve)
        base = BASELINE["ofrp.assembly_share_cap10"]
        if not (base / 10 <= share and (1 - base) / 10 <= 1 - share):
            warnings.append(f"cap-10 scan split {share:.0%} assembly / "
                            f"{1 - share:.0%} solve is not within 10x of the "
                            f"baseline {base:.0%} / {1 - base:.0%}")
    return errors, warnings


# ──────────────────────────────────────────────────────────────────────────
#  environment
# ──────────────────────────────────────────────────────────────────────────

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(child: dict) -> dict:
    return {
        "git_rev": git_rev(), "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": child["versions"]["python"], "numpy": child["versions"]["numpy"],
        "scipy": child["versions"]["scipy"], "blas": child["blas"],
        "blas_env": {k: v for k, v in CHILD_ENV.items() if "THREADS" in k},
    }


# ──────────────────────────────────────────────────────────────────────────
#  a benchmark run
# ──────────────────────────────────────────────────────────────────────────

def load_reference(profile: str, workload: str) -> dict:
    try:
        return json.loads(REFERENCE.read_text())[profile][workload]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference digests for {profile}/{workload} in "
                         f"{REFERENCE}: {exc}") from exc


def compare(found: dict, expected: dict) -> tuple[int, int]:
    """(files checked, files missing, extra or differing)."""
    names = set(found) | set(expected)
    return len(names), sum(found.get(n) != expected.get(n) for n in names)


def bench(workload: str, seed: int | None, seconds: float, trace: bool,
          profile: str, workdir: Path) -> dict:
    run_start = time.perf_counter()
    deadline = run_start + RUN_DEADLINE_S
    load_start = os.getloadavg()
    _, entry = WORKLOADS[workload]
    ref = load_reference(profile, workload)

    ref_doc = scenario_doc(workload, profile, None)
    doc = scenario_doc(workload, profile, seed)
    ref_yaml = workdir / "reference.yaml"
    run_yaml = workdir / "scenario.yaml"
    ref_yaml.write_text(yaml.safe_dump(ref_doc, sort_keys=False))
    run_yaml.write_text(yaml.safe_dump(doc, sort_keys=False))

    attempted = failed = 0
    problems: list[str] = []

    # Byte-identical check at the preset seed, traced when tracing is on.
    reference = run_child(workdir, "ref", ref_yaml, entry, trace, deadline)
    n, bad = compare(reference["digests"], ref["files"])
    attempted += n
    failed += bad
    if bad:
        problems.append(f"preset-seed run: {bad}/{n} CSVs differ from reference.json")

    kinds = [True, False] if trace else [False]
    min_count = 2 if trace else 3
    children: list[dict] = []
    while True:
        child = run_child(workdir, f"c{len(children)}", run_yaml, entry,
                          kinds[len(children) % len(kinds)], deadline)
        children.append(child)
        now = time.perf_counter()
        recent = sum(c["t_exit"] for c in children[-len(kinds):])
        if (len(children) % len(kinds) == 0 and len(children) >= min_count
                and (now - run_start + recent > seconds
                     or now + recent > deadline)):
            break

    preset_seed = seed is None or seed == ref_doc["config"]["seed"]
    expected = ref["files"] if preset_seed else next(
        (c["digests"] for c in children if c["ok"]), {})
    for i, child in enumerate(children):
        n, bad = compare(child["digests"], expected)
        _, bad_free = compare(child["seed_free"], ref["seed_free"])
        attempted += n
        failed += max(bad, bad_free)
        if bad or bad_free or not child["ok"]:
            kind = "traced" if child["traced"] else "untraced"
            problems.append(f"repeat {i} ({kind}): {max(bad, bad_free)}/{n} CSVs "
                            "differ (full digest vs first repeat, or seed-free "
                            "digest vs reference.json)")

    ok = [c for c in children if c["ok"]]
    if not ok:
        raise BenchError("every repeat failed")
    plain = [c for c in ok if not c["traced"]]
    traced = [c for c in ok if c["traced"]]
    for c in traced:
        c["wall"] = c["t_done"] - c["t_spawn"]
    for c in plain:
        scale(c)

    metrics: dict[str, float] = {}
    warnings: list[str] = []
    if not trace:
        metrics = {
            "wall_ref_s": median(c["wall_ref"] for c in plain),
            "setup_s": median(c["setup_ref"] for c in plain),
            "peak_rss_mb": median(c["maxrss_kb"] / 1024 for c in plain),
        }
    else:
        per = [layer_metrics(c) for c in traced]
        if not per or not plain:
            raise BenchError("no successful traced/untraced repeat pair")
        metrics = {name: median(p[name] for p in per) for name in per[0]}
        rows = [row_times(c) for c in plain]
        metrics["experiments.row_s.p50"] = median(
            median(r) for r in rows if r)
        metrics["experiments.row_s.max"] = median(max(r) for r in rows if r)
        metrics["process.cpu_s"] = median(c["cpu_s"] for c in plain)
        metrics["process.wall_raw_s"] = median(c["wall"] for c in plain)
        metrics["process.setup_raw_s"] = median(c["setup"] for c in plain)
        metrics["process.probe_ms"] = median(c["probe_ms"] for c in plain)
        metrics["process.tracing_overhead"] = (
            median(c["wall"] for c in traced) / median(c["wall"] for c in plain))
        cap = ref_doc["config"]["aoi_cap"]
        for c in ([reference] if reference["ok"] else []) + traced:
            errs, warns = trace_checks(c, cap)
            problems += [f"trace: {e}" for e in errs]
            warnings += warns
    names = END_TO_END if not trace else PER_LAYER
    missing = [n for n in names if n not in metrics]
    if missing:
        problems.append(f"metrics not computed: {missing}")

    env = environment(ok[0])
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    report = {
        "workload": workload, "profile": profile, "trace": int(trace),
        "scenario": recorded_values(doc),
        "repeats": {"untraced": len(plain), "traced": len(traced),
                    "failed": len(children) - len(ok)},
        "env": env,
        "digests": None if preset_seed else expected,
        "problems": problems, "warnings": warnings,
        "output_mismatch_ratio": failed / attempted if attempted else 1.0,
        "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": u}
                    for n, u in names.items()},
    }
    if trace:
        report["layer_breakdown_s"] = layer_breakdown(traced[0])
    return report


def layer_breakdown(res: dict) -> dict:
    """Traced wall split into interpreter+import and each layer's self time."""
    layers: dict[str, float] = {"import": res["t_imported"] - res["t_spawn"]}
    for name, (_, _, own) in res["spans"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    layers["sum"] = sum(layers.values())
    layers["traced_wall"] = res["t_done"] - res["t_spawn"]
    return {k: round(v, 6) for k, v in layers.items()}


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} ({report['profile']} profile, "
          f"trace {report['trace']})")
    print("scenario " + json.dumps(report["scenario"], sort_keys=True))
    print("repeats " + json.dumps(report["repeats"]))
    print("env " + json.dumps(report["env"], sort_keys=True))
    if report["digests"]:
        print("digests (seed differs from the preset; compare across commits):")
        for name, digest in sorted(report["digests"].items()):
            print(f"  {name} {digest}")
    if "layer_breakdown_s" in report:
        print("layer self time (s) " + json.dumps(report["layer_breakdown_s"]))
    for line in report["warnings"]:
        print(f"warning: {line}")
    for line in report["problems"]:
        print(f"FAILED: {line}")
    print(f"metric output_mismatch_ratio = {report['output_mismatch_ratio']:.6g} "
          f"ratio ({report['failed']}/{report['attempted']} CSVs)")
    for name, m in report["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))


# ──────────────────────────────────────────────────────────────────────────
#  recording the reference digests
# ──────────────────────────────────────────────────────────────────────────

def record(workdir: Path) -> None:
    """Digests at each preset seed, checked for determinism and tracing."""
    reference: dict = {}
    for profile in PROFILES:
        reference[profile] = {}
        for workload, (_, entry) in WORKLOADS.items():
            preset_doc = scenario_doc(workload, profile, None)
            paths = {}
            for label, doc in (("preset", preset_doc),
                               ("other", scenario_doc(workload, profile, 1))):
                paths[label] = workdir / f"{profile}-{workload}-{label}.yaml"
                paths[label].write_text(yaml.safe_dump(doc, sort_keys=False))
            runs = [run_child(workdir, f"{profile}-{workload}-{i}", paths[label],
                              entry, traced, time.perf_counter() + RUN_DEADLINE_S)
                    for i, (label, traced) in enumerate(
                        (("preset", False), ("preset", True), ("other", False)))]
            if not all(r["ok"] for r in runs):
                raise BenchError(f"{profile}/{workload}: a recording run failed")
            if runs[0]["digests"] != runs[1]["digests"]:
                raise BenchError(f"{profile}/{workload}: traced run changed the CSVs")
            if runs[0]["seed_free"] != runs[2]["seed_free"]:
                raise BenchError(f"{profile}/{workload}: seed-free digests "
                                 "depend on the seed")
            reference[profile][workload] = {
                "scenario": recorded_values(preset_doc),
                "files": runs[0]["digests"],
                "seed_free": runs[0]["seed_free"],
            }
            print(f"recorded {profile}/{workload}: {sorted(runs[0]['digests'])}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


# ──────────────────────────────────────────────────────────────────────────
#  entry point
# ──────────────────────────────────────────────────────────────────────────

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the preset's own)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="length of the run, preset-seed check included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="bench")
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json at the preset seeds")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "aoisched" / "__init__.py").is_file():
        print(f"error: {SRC / 'aoisched'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.record:
            record(workdir)
            return 0
        report = bench(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.profile, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
