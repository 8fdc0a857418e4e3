import os
import subprocess
import sys

import pytest

import permrow

sys.path.insert(0, os.path.dirname(__file__))

# one PASS/FAIL line per acceptance criterion, filled by test_acceptance.py
acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)


@pytest.fixture
def run_cli():
    """Run ``python -m permrow.cli ARGS`` in a fresh interpreter, with the
    tested package first on its path and ``env`` added to the environment;
    returns the CompletedProcess with text stdout and stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(permrow.__file__)))

    def run(*args, env=None):
        full = {**os.environ, **(env or {})}
        full["PYTHONPATH"] = os.pathsep.join(filter(None, (src, full.get("PYTHONPATH"))))
        argv = [sys.executable, "-m", "permrow.cli", *map(str, args)]
        return subprocess.run(argv, env=full, capture_output=True, encoding="utf-8", timeout=120)

    return run
