"""Run the five presets at full size and compare every CSV with its digest.

Each preset runs as shipped (its own horizon, replicas and grid step):
``run_experiment`` with 2 worker processes, then ``optimize_experiment``
when it has an ``ofrp`` or ``forp`` token.  Every CSV is compared by sha256
with ``tools/reproduce.json``, and the wall time of each preset is printed;
all five took 51–73 s on a 2-core x86 host.  The CSVs go to a temporary
directory that is removed afterwards.

Run from the repository root::

    python3 tools/reproduce.py             # exit 1 on a mismatch
    python3 tools/reproduce.py --record    # rewrite the JSON from this tree
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from aoisched.experiments import (available_presets, load_spec,  # noqa: E402
                                  optimize_experiment, run_experiment)

DIGESTS = Path(__file__).with_suffix(".json")


def digests(preset: str, out: Path) -> dict[str, str]:
    """``{CSV name: sha256}`` of every CSV the preset writes into ``out``."""
    spec = load_spec(preset)
    paths = list(run_experiment(spec, out_dir=out, threads=2))
    if any(token.split("-")[0] in ("ofrp", "forp") for token in spec.policies):
        paths.append(optimize_experiment(spec, out_dir=out))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help=f"write the digests to {DIGESTS.name} instead of "
                             "comparing them")
    args = parser.parse_args(argv)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    moved = []
    total = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for preset in available_presets():
            t0 = time.perf_counter()
            got = digests(preset, Path(tmp))
            same = got == recorded.get(preset)
            print(f"{preset:8s} {time.perf_counter() - t0:6.1f} s  "
                  f"{'recorded' if args.record else 'same' if same else 'MOVED'}")
            if not same:
                moved.append(preset)
            recorded[preset] = got
    print(f"total    {time.perf_counter() - total:6.1f} s")
    if args.record:
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        return 0
    for preset in moved:
        print(f"{preset}: CSV digests differ from {DIGESTS.name}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
