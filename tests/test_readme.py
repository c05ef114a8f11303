"""Every ``python`` code block in README.md runs as written."""

import re
from pathlib import Path

import pytest

import nps2

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_names_every_export():
    text = README.read_text(encoding="utf-8")
    missing = [name for name in nps2.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert missing == []
