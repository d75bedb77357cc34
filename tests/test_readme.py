"""Every ```python block of README.md runs as written, and its sample output is current."""

import re
from pathlib import Path

import pytest

from dgtime.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})


def test_readme_sample_markdown_output_is_what_the_cli_prints(capsys):
    sample = re.search(r"Sample Markdown\s+output:\n\n```\n(.*?)```", TEXT, re.DOTALL)
    assert sample, "README.md lost its sample Markdown output block"
    assert main(["study", "--problem", "heat1d", "--q", "2", "--Ns", "8,16,32"]) == 0
    assert capsys.readouterr().out == sample.group(1)
