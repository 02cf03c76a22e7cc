import base64
import contextlib
import dataclasses
import os

# One BLAS thread, set before numpy loads: forked workers keep the thread
# count of the process they fork from, so two workers would otherwise run
# two BLAS threads each on a two-core host.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reckoner.cli  # noqa: E402
import reckoner.workers  # noqa: E402
from reckoner import pipeline  # noqa: E402
from reckoner.checkpoint import checkpoint_dict  # noqa: E402
from reckoner.data import ColumnSpec, Dataset, Schema  # noqa: E402
from reckoner.serial import write_json  # noqa: E402


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


@contextlib.contextmanager
def high_steps():
    """The parameter values after each Adam step that ``reckoner.pipeline``
    takes inside the block on the first ``ModelParams`` it steps, one copy
    per step. That is the high classifier in ``train``, whose
    initialization steps it first, and the one classifier in
    ``erm_baseline``."""
    steps: list[np.ndarray] = []
    first = []
    adam_step = pipeline.adam_step

    def recording(params, grad, state):
        adam_step(params, grad, state)
        if not first:
            first.append(params)
        if params is first[0]:
            steps.append(params.values.copy())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "adam_step", recording)
        yield steps


def init_high_on_all_rows(monkeypatch) -> None:
    """``initialize`` puts every train row on the high side of its split, in
    order, so the high classifier initializes on the whole train split, as
    the ERM baseline does. The low side keeps its rows."""
    split = pipeline.split_by_confidence
    monkeypatch.setattr(pipeline, "split_by_confidence", lambda d, model, threshold:
                        dataclasses.replace(split(d, model, threshold),
                                            high=np.arange(d.n)))


def f8_blob(values: np.ndarray) -> str:
    """A checkpoint blob: the padded base64 of ``values``' ``<f8`` bytes."""
    return base64.b64encode(np.ascontiguousarray(values, "<f8").tobytes()).decode("ascii")


def v3_checkpoint_dict(model: pipeline.ReckonerModel, schema: Schema, mean: np.ndarray,
                       std: np.ndarray, manifest_sha256: str | None = None) -> dict:
    """``model`` as the version 3 document that checkpoint format 3 wrote:
    ``models.noise`` holds the noise wrapper's blobs where version 4 has
    ``models.perturbation``, and every other key is version 4's."""
    doc = checkpoint_dict(model, schema, mean, std, manifest_sha256)
    noise = model.noise
    doc["format_version"] = 3
    doc["models"] = {"high": doc["models"]["high"], "noise": {
        "layout": noise.params.layout.to_dict(),
        "values": f8_blob(noise.params.values),
        "eta": f8_blob(noise.eta),
        "hidden": noise.hidden,
    }}
    return doc


@contextlib.contextmanager
def saved_as_v3_too():
    """In the block, each checkpoint that ``reckoner.cli`` saves is also
    written as version 3, to ``checkpoint_v3.json`` beside it."""
    save = reckoner.cli.save_checkpoint

    def both(path, model, schema, mean, std, manifest_sha256=None):
        save(path, model, schema, mean, std, manifest_sha256)
        write_json(path.with_name("checkpoint_v3.json"),
                   v3_checkpoint_dict(model, schema, mean, std, manifest_sha256))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reckoner.cli, "save_checkpoint", both)
        yield
