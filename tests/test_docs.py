"""The README's examples run, or parse, as documented."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import aoisched
from aoisched import cli, validate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_cli_examples_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line.split("#")[0] for block in blocks
             for line in block.splitlines() if line.startswith("aoisched ")]
    assert lines
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli._build_parser().parse_args(argv).command == argv[0]


def test_readme_check_tolerances_are_the_checks():
    """The check table's "to N %" tolerances are the ones the checks apply."""
    rows = re.findall(r"^\| `([a-z-]+)` *\|.* to (\d+) %", README.read_text(),
                      re.M)
    assert {name: int(pct) / 100 for name, pct in rows} == {
        "fresh-only-montecarlo": validate.FRESH_ONLY_TOLERANCE,
        "fresh-or-old-montecarlo": validate.FRESH_OR_OLD_TOLERANCE}


RUNTIME_IMPORTS = """
import json, sys
import aoisched, aoisched.cli, aoisched.validate
print(json.dumps(sorted({m.split(".")[0] for m in sys.modules}
                        & {"scipy", "hypothesis", "pytest"})))
"""


def _fresh_modules(code: str):
    """What ``code`` prints as JSON, run in a fresh interpreter, so modules
    the test run imports do not count."""
    src = str(Path(aoisched.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_runtime_needs_only_numpy_and_pyyaml():
    """The README says the package requires numpy and PyYAML: importing it,
    its CLI and its checks loads none of the test extra."""
    assert _fresh_modules(RUNTIME_IMPORTS) == []


RUN_PATH_IMPORTS = """
import json, sys
import aoisched, aoisched.cli
print(json.dumps(sorted(m for m in sys.modules if m.startswith("aoisched."))))
"""


def test_run_path_does_not_import_the_checks():
    """Importing the package and its CLI leaves the acceptance checks
    unloaded; ``aoisched validate`` imports them when it runs."""
    loaded = _fresh_modules(RUN_PATH_IMPORTS)
    assert "aoisched.cli" in loaded
    assert "aoisched.validate" not in loaded


ENGINE_ORACLE_NAMES = ["AlwaysSamplePolicy", "IdlePolicy", "SlotOutcome",
                       "channel_uniforms", "initial_states", "policy_rng",
                       "probability_grid", "step_users"]

SURFACE = """
import json, sys
import aoisched, aoisched.model, aoisched.simulate
print(json.dumps({
    "unresolved": [n for n in aoisched.__all__ if not hasattr(aoisched, n)],
    "oracle": sorted(f"{m.__name__}.{n}" for m in (aoisched, aoisched.model,
                                                   aoisched.simulate)
                     for n in %r if hasattr(m, n)),
    "loaded": sorted(m for m in sys.modules if m.endswith("_oracle")),
}))
""" % ENGINE_ORACLE_NAMES


def test_package_surface_leaves_the_engine_oracle_out():
    """Every name in ``aoisched.__all__`` resolves, the engine's test-only
    twins (``tests/engine_oracle.py``) are not attributes of the package,
    and importing it loads no oracle module."""
    assert _fresh_modules(SURFACE) == {"unresolved": [], "oracle": [],
                                       "loaded": []}
