"""The documentation's examples run: the docstring examples of the core
types, the matchers, the oracle and the reduction, and the README's Library
code block.  The README's sanitizer recipe and CI's sanitizer step name the
same test modules, every one that builds the compiled kernels."""

import ast
import doctest
import re
from pathlib import Path

import pytest

from permpart import core, matchers, oracle, reduction

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# The fixtures that build the compiled kernels: compiled, and those that
# request it, conftest's kernels and test_kernels' backend.
COMPILED_FIXTURES = {"compiled", "kernels", "backend"}


@pytest.mark.parametrize("module", [core, matchers, oracle, reduction], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    failed, attempted = doctest.testmod(module)
    assert attempted > 0 and failed == 0


def test_readme_library_block():
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block is not None
    exec(compile(block.group(1), f"{README}:Library", "exec"), {})


def sanitized_modules(text):
    """The test modules that a sanitizer command names, in order."""
    return re.findall(r"tests/test_\w+\.py", text)


def requests_compiled(path):
    """Does the test module take a fixture that builds the compiled kernels,
    as a parameter of one of its functions or by getfixturevalue?"""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.update(a.arg for a in node.args.args)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "getfixturevalue":
            names.update(a.value for a in node.args if isinstance(a, ast.Constant))
    return bool(names & COMPILED_FIXTURES)


def test_sanitizer_runs_every_module_that_builds_the_kernels():
    step = WORKFLOW.read_text().split("name: Kernel tests under ASan and UBSan", 1)[1]
    step = step.split("\n      - ", 1)[0]  # up to the next step, if any
    recipe = re.search(r"```sh\n(asan=.*?)```", README.read_text(), re.S)
    assert recipe is not None
    ci, readme = sanitized_modules(step), sanitized_modules(recipe.group(1))
    assert ci == readme
    wanted = {f"tests/{p.name}" for p in (ROOT / "tests").glob("test_*.py") if requests_compiled(p)}
    assert "tests/test_kernels.py" in wanted
    assert set(ci) == wanted
