import os

import numpy as np
import pytest

import reckoner.workers
from reckoner.data import ColumnSpec, Dataset, Schema


@pytest.fixture
def numeric_schema():
    return Schema(columns=(
        ColumnSpec("f0", "numeric"),
        ColumnSpec("f1", "numeric"),
        ColumnSpec("y", "label"),
        ColumnSpec("s", "sensitive"),
    ))


def make_separable(n=200, seed=0, m=2):
    """Linearly separable two-group dataset: label is the sign of feature 0.

    Mass near the boundary keeps the low-confidence subset nonempty for any
    reasonably fitted identifier.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m))
    y = (x[:, 0] > 0).astype(int)
    s = rng.integers(0, 2, n)
    cols = [ColumnSpec(f"f{i}", "numeric") for i in range(m)]
    cols += [ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")]
    return Dataset(x=x, y=y, s=s, schema=Schema(columns=tuple(cols)))


def assert_no_child_processes() -> None:
    """Every process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cap_workers(monkeypatch, n: int) -> None:
    """``fork_map`` forks at most ``n`` workers in this test, whatever the
    host."""
    monkeypatch.setattr(reckoner.workers, "usable_cpus", lambda: n)
