"""The benchmark's view of the package: every name ``perfbench`` wraps or
stamps must exist, or ``--trace`` and the setup stamp break at launch.

``perfbench/spans.py`` names each traced function in ``LAYERS`` and
``perfbench/launch.py`` stamps the functions its ``--stamp-at`` choices
name in ``reckoner.cli``. Both files are read as source, not imported, so
this test runs nothing of the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module_constant(path: Path, name: str):
    """The literal value assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _stamp_choices(path: Path) -> tuple:
    """The ``choices`` of ``launch.py``'s ``--stamp-at`` option."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "--stamp-at"):
            for kw in node.keywords:
                if kw.arg == "choices":
                    return ast.literal_eval(kw.value)
    raise AssertionError("launch.py has no --stamp-at choices")


PACKAGE = _module_constant(PERFBENCH / "spans.py", "PACKAGE")
LAYERS = _module_constant(PERFBENCH / "spans.py", "LAYERS")
TRACED = [(layer, attr) for layer, attrs in LAYERS.items() for attr in attrs]
STAMPED = _stamp_choices(PERFBENCH / "launch.py")


def test_contract_is_read():
    assert PACKAGE == "reckoner"
    assert len(TRACED) >= 20
    assert set(STAMPED) == {"train", "predict"}


@pytest.mark.parametrize("layer, attr", TRACED,
                         ids=[f"{layer}.{attr}" for layer, attr in TRACED])
def test_traced_name_resolves(layer, attr):
    """``Tracer.install`` looks a method up in its class's own ``__dict__``
    and a function up as a module attribute."""
    module = importlib.import_module(f"{PACKAGE}.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert inspect.isclass(cls)
        assert callable(cls.__dict__[meth])
    else:
        assert inspect.isfunction(getattr(module, attr))


@pytest.mark.parametrize("name", STAMPED)
def test_stamped_name_resolves(name):
    cli = importlib.import_module(f"{PACKAGE}.cli")
    assert callable(getattr(cli, name))
