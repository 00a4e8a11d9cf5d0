"""Tests for scenario loading, sweep execution, CSV output, and the CLI."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import aoisched
from aoisched import cli, markov, ofrp, validate
from aoisched.experiments import (ExperimentSpec, SpecError, apply_axis,
                                  available_presets, config_hash, load_spec,
                                  optimize_experiment, resolve_out_dir,
                                  run_experiment)


def tiny_doc(**overrides):
    doc = {
        "scenario": "tiny",
        "config": {
            "num_users": 2, "success_prob": 0.8, "sample_cost": 1.0,
            "transmit_cost": 5.0, "aoi_cap": 10, "aoi_limit": 5.0,
            "horizon": 3000, "seed": 5,
        },
        "policies": ["forp", "forp-analytic"],
        "sweep": {"axis": "p", "values": [0.6, 0.9]},
        "replicas": 2,
        "grid_step": 0.05,
    }
    doc.update(overrides)
    return doc


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ── loading and validation ────────────────────────────────────────────────

def test_load_spec_from_dict():
    spec = load_spec(tiny_doc())
    assert spec.scenario == "tiny"
    assert spec.base.num_users == 2
    assert spec.policies == ("forp", "forp-analytic")
    assert spec.sweep_axis == "p"
    assert spec.sweep_values == (0.6, 0.9)
    assert spec.replicas == 2


def test_load_spec_from_yaml_file(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(tiny_doc()))
    assert load_spec(path) == load_spec(tiny_doc())
    assert load_spec(str(path)) == load_spec(tiny_doc())


def test_sweep_values_are_sorted():
    spec = load_spec(tiny_doc(sweep={"axis": "p", "values": [0.9, 0.6]}))
    assert spec.sweep_values == (0.6, 0.9)


def test_axis_aliases():
    for alias in ("p", "success_prob"):
        assert load_spec(tiny_doc(
            sweep={"axis": alias, "values": [0.5]})).sweep_axis == "p"
    assert load_spec(tiny_doc(
        sweep={"axis": "aoi_limit", "values": [4]})).sweep_axis == "a_max"


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("scenario"), "scenario"),
    (lambda d: d.pop("policies"), "policies"),
    (lambda d: d["config"].pop("num_users"), "config.num_users"),
    (lambda d: d["config"].update(bogus=1), "config.bogus"),
    (lambda d: d.update(bogus=1), "bogus"),
    (lambda d: d.update(policies=["nope"]), "policies[0]"),
    (lambda d: d.update(policies=[]), "policies"),
    (lambda d: d["sweep"].update(axis="q"), "sweep.axis"),
    (lambda d: d["sweep"].update(values=[]), "sweep.values"),
    (lambda d: d["sweep"].update(values=[0.5, "x"]), "sweep.values[1]"),
    (lambda d: d.update(replicas=0), "replicas"),
    (lambda d: d["config"].update(success_prob=1.4), "config"),
    (lambda d: d["sweep"].update(values=[1.5]), "rejected"),
    (lambda d: d.update(grid_step=0.03), "grid_step"),
    (lambda d: d.update(grid_step=-0.5), "grid_step"),
])
def test_spec_errors_name_the_field(mutate, fragment):
    doc = tiny_doc()
    mutate(doc)
    with pytest.raises(SpecError, match=fragment.replace("[", r"\[")):
        load_spec(doc)


def test_unknown_source_lists_presets():
    with pytest.raises(SpecError, match="fig5a"):
        load_spec("definitely-not-a-preset")


def test_preset_name_wins_over_a_directory_of_that_name(tmp_path, monkeypatch):
    # ``aoisched run --config fig5a --out fig5a`` leaves such a directory
    (tmp_path / "fig5a").mkdir()
    monkeypatch.chdir(tmp_path)
    assert load_spec("fig5a").scenario == "fig5a"


def test_packaged_presets_all_parse():
    names = available_presets()
    assert {"fig5a", "fig6", "fig7", "fig9", "vsweep"} <= set(names)
    for name in names:
        spec = load_spec(name)
        assert spec.scenario == name
        assert spec.sweep_values
    assert load_spec("fig6").grid_step == 0.02
    assert load_spec("fig6").base.aoi_cap == 30


def test_apply_axis_targets_the_right_field():
    base = load_spec(tiny_doc()).base
    assert apply_axis(base, "p", 0.25).success_prob == (0.25, 0.25)
    assert apply_axis(base, "a_max", 7).aoi_limit == (7.0, 7.0)
    assert apply_axis(base, "c_s", 9.0).sample_cost == 9.0
    assert apply_axis(base, "v", 10.0).v_weight == 10.0


def test_config_hash_tracks_inputs():
    spec = load_spec(tiny_doc())
    h1 = config_hash(spec, spec.base, "forp", 2)
    assert h1 == config_hash(spec, spec.base, "forp", 2)
    assert len(h1) == 12
    assert h1 != config_hash(spec, spec.base, "dpp", 2)
    assert h1 != config_hash(spec, apply_axis(spec.base, "p", 0.5), "forp", 2)


def test_resolve_out_dir_precedence(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    monkeypatch.setenv("AOISCHED_OUT", str(env_dir))
    assert resolve_out_dir(None, None) == env_dir
    assert env_dir.is_dir()
    spec_dir = tmp_path / "spec"
    assert resolve_out_dir(None, str(spec_dir)) == spec_dir
    cli_dir = tmp_path / "cli"
    assert resolve_out_dir(str(cli_dir), str(spec_dir)) == cli_dir


# ── sweep execution ───────────────────────────────────────────────────────

def test_run_experiment_writes_deterministic_csv(tmp_path):
    spec = load_spec(tiny_doc())
    results, hist = run_experiment(spec, out_dir=tmp_path)
    assert results.name == "tiny_results.csv"
    first = results.read_bytes(), hist.read_bytes()
    run_experiment(spec, out_dir=tmp_path)
    assert (results.read_bytes(), hist.read_bytes()) == first

    rows = read_rows(results)
    assert len(rows) == 4              # 2 sweep values x 2 policies
    assert [r["axis_value"] for r in rows] == ["0.6", "0.6", "0.9", "0.9"]
    assert [r["policy"] for r in rows] == ["forp", "forp-analytic"] * 2
    sim = rows[0]
    assert sim["status"] == "ok"
    assert sim["replicas"] == "2"
    assert float(sim["avg_cost"]) > 0
    assert float(sim["stderr_cost"]) >= 0
    analytic = rows[1]
    assert analytic["replicas"] == "0"
    assert analytic["stderr_cost"] == ""
    # simulation and analysis agree loosely even at this tiny horizon
    assert float(sim["avg_cost"]) == pytest.approx(
        float(analytic["avg_cost"]), rel=0.2)


def test_histogram_frequencies_sum_to_one(tmp_path):
    spec = load_spec(tiny_doc())
    _, hist = run_experiment(spec, out_dir=tmp_path)
    rows = read_rows(hist)
    assert rows, "simulated policies must produce histogram rows"
    totals = {}
    for row in rows:
        key = (row["axis_value"], row["policy"])
        for col in ("freq_u1", "freq_u2"):
            totals.setdefault((key, col), 0.0)
            totals[(key, col)] += float(row[col])
    for total in totals.values():
        assert total == pytest.approx(1.0, abs=1e-9)


def test_infeasible_sweep_point_gets_status_row(tmp_path):
    doc = tiny_doc(policies=["dpp", "forp"],
                   sweep={"axis": "p", "values": [0.2, 0.9]})
    doc["config"]["aoi_limit"] = 2.5
    results, hist = run_experiment(load_spec(doc), out_dir=tmp_path)
    rows = read_rows(results)
    by_key = {(r["axis_value"], r["policy"]): r for r in rows}
    bad = by_key[("0.2", "forp")]
    assert bad["status"].startswith("infeasible")
    assert bad["avg_cost"] == ""
    assert by_key[("0.2", "dpp")]["status"] == "ok"     # dpp always runs
    assert by_key[("0.9", "forp")]["status"] == "ok"
    hist_policies = {(r["axis_value"], r["policy"]) for r in read_rows(hist)}
    assert ("0.2", "forp") not in hist_policies
    assert ("0.9", "forp") in hist_policies


def test_replica_override(tmp_path):
    spec = load_spec(tiny_doc(policies=["forp"]))
    results, _ = run_experiment(spec, out_dir=tmp_path, replicas=1)
    assert {r["replicas"] for r in read_rows(results)} == {"1"}


def test_optimize_experiment_reports_parameters(tmp_path):
    doc = tiny_doc(policies=["forp", "ofrp"],
                   sweep={"axis": "p", "values": [0.8]})
    path = optimize_experiment(load_spec(doc), out_dir=tmp_path)
    rows = read_rows(path)
    assert len(rows) == 4              # 2 policies x 2 users
    forp_rows = [r for r in rows if r["policy"] == "forp"]
    assert {r["user"] for r in forp_rows} == {"0", "1"}
    assert all(r["status"] == "ok" for r in rows)
    for r in forp_rows:
        assert r["sample_prob"] != "" and r["sample_occupied"] == ""
        assert float(r["analytic_aoi"]) <= 5.0
    ofrp_rows = [r for r in rows if r["policy"] == "ofrp"]
    for r in ofrp_rows:
        assert r["sample_prob"] == "" and r["sample_empty"] != ""
        assert float(r["sim_total_cost"]) > 0


@pytest.mark.parametrize("token", ["ofrp", "ofrp-analytic"])
def test_parameter_reports_reuse_the_optimizer_solves(tmp_path, monkeypatch,
                                                      token):
    """Reporting the optimized users' chain metrics solves no chain that
    ofrp.optimize has not already solved."""
    solves = []

    def counting(matrix, *args, **kwargs):
        solves.append(len(matrix))
        return markov.solve_stationary(matrix, *args, **kwargs)

    monkeypatch.setattr(ofrp, "solve_stationary", counting)
    doc = tiny_doc(policies=[token], replicas=1, grid_step=0.1,
                   config={**tiny_doc()["config"], "success_prob": [0.7, 0.9],
                           "horizon": 200},
                   sweep={"axis": "a_max", "values": [4.0, 6.0]})
    spec = load_spec(doc)
    ofrp.metrics.cache_clear()
    for value in spec.sweep_values:
        ofrp.optimize(apply_axis(spec.base, "a_max", value), spec.grid_step)
    optimizer_solves = len(solves)
    assert optimizer_solves > 0
    del solves[:]
    ofrp.metrics.cache_clear()
    if token == "ofrp":
        optimize_experiment(spec, out_dir=tmp_path)
    else:
        run_experiment(spec, out_dir=tmp_path)
    assert len(solves) == optimizer_solves


COLD_START = """
import dataclasses, json, sys, tempfile
from aoisched import ofrp
from aoisched.experiments import load_spec, optimize_experiment, run_experiment
spec = load_spec("fig5a")
spec = dataclasses.replace(spec, base=dataclasses.replace(spec.base, horizon=300),
                           replicas=1, grid_step=0.25)
with tempfile.TemporaryDirectory() as out:
    run_experiment(spec, out_dir=out, threads=1)
    optimize_experiment(spec, out_dir=out)
print(json.dumps({
    "chains_solved": ofrp.metrics.cache_info().misses,
    "loaded": sorted(m for m in sys.modules if m.startswith("scipy")
                     or m == "concurrent.futures.process")}))
"""


def test_single_process_runs_import_neither_scipy_nor_the_process_pool():
    # A fresh interpreter, so modules other tests import do not count.
    src = str(Path(aoisched.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["chains_solved"] > 0       # the recurrence scan ran
    assert report["loaded"] == []


def test_optimize_experiment_needs_a_randomized_policy():
    with pytest.raises(SpecError, match="nothing to optimize"):
        optimize_experiment(load_spec(tiny_doc(policies=["dpp"])))


# ── command-line interface ────────────────────────────────────────────────

def test_cli_run_and_optimize(tmp_path):
    cfg_path = tmp_path / "tiny.yaml"
    cfg_path.write_text(yaml.safe_dump(tiny_doc(policies=["forp"])))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(out), "--seeds", "1"]) == 0
    assert (out / "tiny_results.csv").exists()
    assert (out / "tiny_hist.csv").exists()
    assert cli.main(["optimize", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert (out / "tiny_params.csv").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: broken\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert cli.main(["run", "--config", "no-such-preset"]) == 2
    # an integer limit beyond the float range is a field error, not a crash
    doc = tiny_doc()
    doc["config"]["aoi_limit"] = 10 ** 400
    bad.write_text(yaml.safe_dump(doc))
    capsys.readouterr()
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--config", "fig5a", "--threads", "0"],
    ["run", "--config", "fig5a", "--threads", "-3"],
    ["validate", "--threads", "0"],
    ["validate", "--threads", "two"],
    ["run", "--config", "fig5a", "--seeds", "0"],
    ["run", "--config", "fig5a", "--seeds", "-1"],
])
def test_cli_rejects_thread_counts_below_one(argv, capsys):
    """Thread and seed counts below one are usage errors naming the flag."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}:" in capsys.readouterr().err


def test_cli_validate_subcommand(capsys):
    assert cli.main(["validate", "--only", "decision-oracle"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "decision-oracle" in out
    assert "1/1 checks passed" in out
    assert cli.main(["validate", "--only", "zzz-no-such-check"]) == 2


# ── validation registry plumbing ──────────────────────────────────────────

def test_registry_names_are_stable():
    assert list(validate.CHECKS) == [
        "fresh-only-identity", "fresh-only-montecarlo",
        "fresh-or-old-montecarlo", "dpp-feasibility",
        "policy-cost-ordering", "error-free-equivalence",
        "v-weight-tradeoff", "old-packet-advantage", "decision-oracle"]


def test_select_checks_filters_by_substring():
    assert validate.select_checks(None) == list(validate.CHECKS)
    assert validate.select_checks("ordering") == ["policy-cost-ordering"]
    assert validate.select_checks("fresh-only") == [
        "fresh-only-identity", "fresh-only-montecarlo"]
    with pytest.raises(ValueError):
        validate.select_checks("zzz")


def test_run_checks_times_and_reports():
    results = validate.run_checks(only="decision-oracle")
    assert len(results) == 1
    assert results[0].passed
    assert results[0].seconds > 0
    line = validate.format_result(results[0])
    assert line.startswith("PASS") and "decision-oracle" in line


def test_zero_tolerance_makes_identity_check_fail():
    """The checks must actually compare numbers: squeezing the tolerance to
    zero has to flip the verdict."""
    result = validate.check_fresh_only_identity(tolerance=0.0)
    assert not result.passed
    assert "FAIL" in validate.format_result(result)


def test_decision_oracle_budget_is_injectable():
    result = validate.check_decision_oracle(snapshots=5)
    assert result.passed
    assert "5 random snapshots" in result.detail
