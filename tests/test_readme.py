"""The README's Python examples run as written, its CLI lines parse, and
the module names it cites exist."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import qmtradeoff
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


def test_module_references_resolve():
    """Every backticked ``module.name`` whose module is a qmtradeoff module
    names an attribute of it, so a rename cannot leave the README pointing
    at a name that is gone, private ones included."""
    modules = {m.name for m in pkgutil.iter_modules(qmtradeoff.__path__)}
    refs = sorted({ref for ref in re.findall(r"`(\w+)\.(\w+)", README.read_text())
                   if ref[0] in modules})
    assert len(refs) >= 7
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"qmtradeoff.{module}"), name)]
    assert not missing
