import os

# One BLAS thread, set before numpy loads: forked workers keep the thread
# count of the process they fork from, so two workers would otherwise run
# two BLAS threads each on a two-core host.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reckoner.workers  # noqa: E402
from reckoner.data import ColumnSpec, Dataset, Schema  # noqa: E402


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
