"""The fenced Python blocks of README.md run as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _python_blocks():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_has_python_blocks():
    assert _python_blocks()


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_block_runs(index):
    code = _python_blocks()[index]
    exec(compile(code, "README.md[python %d]" % index, "exec"), {})
