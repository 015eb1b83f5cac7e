"""Set-up probe: import ``qmtradeoff.cli`` and finish one minimal call of a
workload's entry point, then exit. ``run.py`` times this script from spawn
to exit in a fresh interpreter; that wall time is ``setup_s``.

Usage: python3 perfbench/probe.py WORKLOAD
"""

import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import qmtradeoff.cli  # noqa: E402

import entry  # noqa: E402


def main(workload: str) -> int:
    if workload == "operators":
        entry.minimal_operator()
        return 0
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = qmtradeoff.cli.main(entry.minimal_argv(workload))
    return 0 if rc in (0, 1) else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
