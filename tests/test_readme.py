"""README's "Library use" example runs as it is written there."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S)
    assert block, "the Library use section opens with a python block"
    exec(compile(block.group(1), f"{README.name} (Library use)", "exec"), {})
    report = ast.literal_eval(capsys.readouterr().out)
    assert 0.5 < report["accuracy"] <= 1.0
    assert set(report["group_sizes"]) == {"0", "1"}
