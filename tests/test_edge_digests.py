"""Edge-case sweeps stay byte-identical, and the two writers agree.

Three small scenarios run every policy token at grid step 0.05 and horizon
400: an age limit equal to the cap at p = 0, 0.3 and 1; per-user success
probabilities over limits from the infeasible 1.5 to the slack 12; and
per-user limits (2.2, 6) at two sample costs.  Between them they write
infeasible rows for every token in both ``run_experiment`` and
``optimize_experiment``, which no preset does.  Every CSV is compared by
sha256 with the digest recorded for it, and each parameter row's analytic
numbers must match the ``*-analytic`` results row of the same sweep point.
"""

import csv
import hashlib

import pytest

from aoisched.experiments import (POLICY_TOKENS, load_spec,
                                  optimize_experiment, run_experiment)


def _doc(name, sweep, **config):
    return {
        "scenario": name,
        "config": {"num_users": 2, "success_prob": 0.8, "sample_cost": 1.0,
                   "transmit_cost": 5.0, "aoi_cap": 10, "aoi_limit": 5.0,
                   "horizon": 400, "seed": 11, **config},
        "policies": list(POLICY_TOKENS),
        "sweep": sweep,
        "replicas": 2,
        "grid_step": 0.05,
    }


_SCENARIOS = {
    "limit_at_cap": _doc("limit_at_cap", {"axis": "p", "values": [0, 0.3, 1]},
                         aoi_limit=10.0),
    "per_user_p": _doc("per_user_p",
                       {"axis": "a_max", "values": [1.5, 2, 3, 5, 12]},
                       success_prob=[0.3, 0.9]),
    "per_user_limit": _doc("per_user_limit", {"axis": "c_s", "values": [0, 3]},
                           aoi_limit=[2.2, 6.0]),
}

# scenario -> {CSV name: sha256}
_DIGESTS = {
    "limit_at_cap": {
        "limit_at_cap_results.csv": "e094648487bbd85f1b0d7b75a83d43e2a23910ff7d2fd0ba21e7b656428a5988",
        "limit_at_cap_hist.csv": "a638c65cff55e0fc409bbc76cceb11d8fda666a6c6949c2f40dde3bf3b6f6d0a",
        "limit_at_cap_params.csv": "f20c0f803f070ee3b18996c7a401510d4fe66164419487e7aaa299ff3d1cbdcb",
    },
    "per_user_limit": {
        "per_user_limit_results.csv": "08340267d39cf0562366a3c4791ac4d44bd659ea75c4a45da72930b5a4f2604c",
        "per_user_limit_hist.csv": "7bcba8af26f652132c83e6ff5449afe592b325d8976e2bfbd04643b612af1dc2",
        "per_user_limit_params.csv": "154240a23b2995107703eaf1a12f7f0a6f2a52788143e835bacd42050a035cf3",
    },
    "per_user_p": {
        "per_user_p_results.csv": "140ca8dc9c37ebe43cd6f293d54c8414f7255ae25b40d291d144f5ca2cfbc639",
        "per_user_p_hist.csv": "b71d37844de5070a0b2302578e63ae284c743b1a312849005f1327b66511edb2",
        "per_user_p_params.csv": "daf4a00d54ca577f89b7a4a54d66db4b303d294c05a39f27278b39095349b8f3",
    },
}


def _write(tmp_path, name):
    spec = load_spec(_SCENARIOS[name])
    results, hist = run_experiment(spec, out_dir=tmp_path, threads=1)
    return results, hist, optimize_experiment(spec, out_dir=tmp_path)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_edge_csvs_keep_their_recorded_digests(tmp_path, name):
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in _write(tmp_path, name)}
    assert digests == _DIGESTS[name]


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_parameter_rows_match_the_analytic_results_rows(tmp_path, name):
    results, _, params = _write(tmp_path, name)
    analytic = {(r["axis_value"], r["policy"]): r for r in _rows(results)
                if r["policy"].endswith("-analytic")}
    by_point = {}
    for row in _rows(params):
        by_point.setdefault((row["axis_value"], row["policy"]), []).append(row)
    assert len(by_point) == len(analytic)
    for (value, token), rows in by_point.items():
        twin = analytic[value, f"{token}-analytic"]
        if twin["status"] != "ok":
            assert [r["status"] for r in rows] == [twin["status"]]
            continue
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert [r["analytic_aoi"] for r in rows] == [twin["avg_aoi_u1"],
                                                    twin["avg_aoi_u2"]]
        assert sum(float(r["analytic_cost"]) for r in rows) == pytest.approx(
            float(twin["avg_cost"]), rel=1e-11, abs=1e-11)
