"""Every ```python block of README.md runs as written, its asserts included."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = README.read_text()
# (line of the opening fence, source) of each python block
BLOCKS = [
    (_TEXT.count("\n", 0, m.start()) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", _TEXT, re.M | re.S)
]


def test_readme_has_python_blocks():
    assert BLOCKS


# named by ordinal, so that an edit above a block leaves its name alone
@pytest.mark.parametrize("fence, source", BLOCKS,
                         ids=[f"block{k}" for k in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(fence, source):
    # padded so that a traceback names the README's own line numbers
    code = compile("\n" * fence + source, str(README), "exec")
    exec(code, {"__name__": "readme"})
