"""The README's Python examples run as written, and its CLI lines parse."""

import re
import shlex
from pathlib import Path

from qmtradeoff import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_cli_lines_parse():
    """Every documented ``qmtradeoff ...`` command line is accepted by the
    parser, so a documented flag cannot be removed unnoticed."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("qmtradeoff ")]
    argvs = [shlex.split(ln)[1:] for ln in lines]
    commands = {"sweep", "analyze", "verify", "simulate-reversal", "average"}
    assert {argv[0] for argv in argvs} == commands
    parser = cli.build_parser()
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0], argv
