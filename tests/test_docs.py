"""The README's examples run, or parse, as documented."""

import re
import shlex
from pathlib import Path

from aoisched import cli

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
