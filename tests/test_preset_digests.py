"""Preset CSVs stay byte-identical: reduced copies of the five presets.

Each preset runs at horizon 3,000 with 2 replicas, at its own grid step and,
when it has a randomized policy to optimize, at step 0.05 too.  Every CSV
``run_experiment`` and ``optimize_experiment`` write is compared by sha256
with the digest recorded for it, so a change to the chain solver, the grid
pick or the engine that moves any byte of a preset's output fails here.
"""

import dataclasses
import hashlib

import pytest

from aoisched.experiments import load_spec, optimize_experiment, run_experiment

# (preset, grid_step) -> {CSV name: sha256}
_DIGESTS = {
    ("fig5a", 0.01): {
        "fig5a_results.csv": "808381a5ad54eeb3cc0c4c05de18663fc0b2fd3984476ad0bc286e9c08d229e7",
        "fig5a_hist.csv": "5a0961d5250c2072707299ccd42fc6bd51ea97971ec5ee69141ef8af44b863c9",
        "fig5a_params.csv": "52e09d19c0f32ddac85f6e0887a783d4c45b5eeec39d1b687af680d9cb6f3409",
    },
    ("fig5a", 0.05): {
        "fig5a_results.csv": "b8f21d5ea5b1bb1461e54b12e090d1fba218cf8456581106af0c6d846f4395db",
        "fig5a_hist.csv": "16506eaea59e4d17c7a95a1291d84fda1c872af76f4d85b9173dca5ec8b30514",
        "fig5a_params.csv": "5912c73efa7958ec22b81b8988313edfa2cb52caefb29ccf78919e9826fe47e0",
    },
    ("fig6", 0.02): {
        "fig6_results.csv": "0710901f87a4269738be3945f8a7a2451893ece40f4a3794a3eeab0e93ab500a",
        "fig6_hist.csv": "af47e5b13d9bf1fd3fbfd820cf629438ef405a05b17a450e3d08fa2d8e04e928",
        "fig6_params.csv": "54e8c08bec09147fe22784c7c510bdba45af812a13feaa0f78832e8ecba218b0",
    },
    ("fig6", 0.05): {
        "fig6_results.csv": "6c6b73ec3a9eceb813f59ee1910bf94cc1a89286960c2ec6caf8c82a50ef43b7",
        "fig6_hist.csv": "1b6bdd147ec5c3aea9efd8b4259cb990d19ecfef7358acb7eb0f9f3a14ad892c",
        "fig6_params.csv": "ec73bb0b748ed164bc23f28cf93e74e9187eff89d7391b11a18b3a570e07851b",
    },
    ("fig7", 0.01): {
        "fig7_results.csv": "6f7a5c9ae4c5168bd5093dcf5fb040332690f2a0478a738e4eac548e6497009c",
        "fig7_hist.csv": "3f5de3b204bfd461aee5ef1c0c69c59fa23e158b9a0ff46f7c9e40984df15eb3",
        "fig7_params.csv": "52c6c8fa667fb975f37217665957f59241aa68dc602309cf806479f9f557cb4c",
    },
    ("fig7", 0.05): {
        "fig7_results.csv": "4a98681cbea508a8ec23c3fa39daa0d9bca8d0634027ad691888f5bad37ab100",
        "fig7_hist.csv": "23f1e2c58e4b4a8751257613cdc3bc2b5160608171cb3a0409b146887f801a6f",
        "fig7_params.csv": "81e00e9179dfa5e5eb51bb240f30fccb9eeee9d645da79e25aa305dc7ff35f68",
    },
    ("fig9", 0.01): {
        "fig9_results.csv": "2992045e49314a2909a231c899f37a5741e75caa9c35edeebd11f1542ccc5f13",
        "fig9_hist.csv": "e641d2309b570f03363e98ef37f5e25514bfb3a064473b54ee9a0d54ed302b78",
    },
    ("vsweep", 0.01): {
        "vsweep_results.csv": "0d8e20da53aaaa3cd668da158fcb70d55efff24d3a68ef380e35d91c099f77b0",
        "vsweep_hist.csv": "181a2f0c0b944e2089168c12d7ff83b7d634937bff923ca9087b8c8cdce0926f",
    },
}


@pytest.mark.parametrize("preset, step", sorted(_DIGESTS),
                         ids=[f"{name}-{step}" for name, step in sorted(_DIGESTS)])
def test_preset_csvs_keep_their_recorded_digests(tmp_path, preset, step):
    spec = load_spec(preset)
    spec = dataclasses.replace(
        spec, base=dataclasses.replace(spec.base, horizon=3000), replicas=2,
        grid_step=step)
    paths = list(run_experiment(spec, out_dir=tmp_path, threads=1))
    if any(token.split("-")[0] in ("ofrp", "forp") for token in spec.policies):
        paths.append(optimize_experiment(spec, out_dir=tmp_path))
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in paths}
    assert digests == _DIGESTS[preset, step]
