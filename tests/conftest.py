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
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE.values():
            terminalreporter.write_line(line)
        with open(config.rootpath / "acceptance.json", "w") as fh:
            json.dump(_ACCEPTANCE, fh, indent=2)
            fh.write("\n")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
