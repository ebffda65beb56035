import json
import os

import numpy as np
import pytest

_ACCEPTANCE = {}


def record_acceptance(line: str) -> None:
    """Keep the running test's acceptance line, keyed by its pytest node id."""
    test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]
    _ACCEPTANCE[test] = line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print this session's acceptance lines and merge them into
    acceptance.json, keeping the entries of tests this session did not run."""
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE.values():
            terminalreporter.write_line(line)
        path = config.rootpath / "acceptance.json"
        try:
            entries = json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            entries = {}
        entries.update(_ACCEPTANCE)
        with open(path, "w") as fh:
            json.dump(entries, fh, indent=2)
            fh.write("\n")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
