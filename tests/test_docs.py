"""The documentation's examples run: the docstring examples of the core
types, the matchers, the oracle and the reduction, and the README's Library
code block."""

import doctest
import re
from pathlib import Path

import pytest

from permpart import core, matchers, oracle, reduction

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", [core, matchers, oracle, reduction], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    failed, attempted = doctest.testmod(module)
    assert attempted > 0 and failed == 0


def test_readme_library_block():
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block is not None
    exec(compile(block.group(1), f"{README}:Library", "exec"), {})
