import json
import os
from typing import NamedTuple

import numpy as np
import pytest
import scipy.fft as sfft

_ACCEPTANCE = {}


class FullGrid(NamedTuple):
    wavenumbers: list       # k_j per axis, 'ij' meshgrid
    magnitude: np.ndarray   # |k|
    nyquist: np.ndarray     # True where some axis has the Nyquist index N/2
    dealias: np.ndarray     # 2/3 rule: integer modes |m| < N/3 on every axis


def full_grid(g) -> FullGrid:
    """Full `fftn`-layout oracles of a Grid, built as the grid once built
    them; its half-grid arrays must equal their columns 0..N/2."""
    ks = np.meshgrid(*([g.axis_wavenumbers] * g.n), indexing="ij")
    nyquist = np.zeros(g.shape, dtype=bool)
    for ax in range(g.n):
        idx = [slice(None)] * g.n
        idx[ax] = g.N // 2
        nyquist[tuple(idx)] = True
    keep = 3 * np.abs(np.rint(sfft.fftfreq(g.N) * g.N).astype(int)) < g.N
    dealias = np.ones(g.shape, dtype=bool)
    for ax in range(g.n):
        shape = [1] * g.n
        shape[ax] = g.N
        dealias &= keep.reshape(shape)
    return FullGrid(ks, np.sqrt(sum(k * k for k in ks)), nyquist, dealias)


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
