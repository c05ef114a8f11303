"""Every ``python`` code block in README.md runs as written, and the
report schema's example is what the CLI writes."""

import json
import re
from pathlib import Path

import pytest

import nps2
from nps2.cli import parse_config, run

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


def test_readme_report_example_is_a_trimmed_sweep_report(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Report schema", 1)[1]
    block = re.search(r"^```json\n(.*?)^```", section, re.M | re.S).group(1)
    example = json.loads(block)
    assert block == json.dumps(example, indent=2, sort_keys=True) + "\n"  # keys sorted
    path = tmp_path / "report.json"
    assert run(parse_config(["sweep", "--n", "8", "--report", str(path)])) == 0
    report = json.loads(path.read_text(encoding="utf-8"))
    trimmed = {"generated_at", "results"}
    assert sorted(example) == sorted(report)
    assert {k: v for k, v in example.items() if k not in trimmed} == {
        k: v for k, v in report.items() if k not in trimmed}
    assert example["results"] and all(e in report["results"] for e in example["results"])
