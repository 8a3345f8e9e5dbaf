"""The package's modules form one stack: each imports only modules below it.

A module may import from the package only modules earlier in ``ORDER``, so
that, for example, the solver hands its discrete point to the reconstruction
and never calls into it.  ``__init__`` re-exports the public names of every
layer and is not part of the stack.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ssoc_certify"
ORDER = (
    "errors", "ad", "numerics", "model", "transcription", "solver",
    "reconstruction", "residuals", "constants", "certify", "refine", "cli",
)


def _package_imports(tree):
    """Names of the package modules a module imports, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                yield from (alias.name for alias in node.names)
            elif node.level == 1:
                yield node.module.split(".")[0]
            elif node.level == 0 and (node.module or "").startswith("ssoc_certify."):
                yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ssoc_certify."):
                    yield alias.name.split(".")[1]


def test_every_module_is_in_the_order():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_imports_only_earlier_modules(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    earlier = set(ORDER[: ORDER.index(module)])
    later = sorted(set(_package_imports(tree)) - earlier)
    assert not later, f"{module} imports {later}, which are not below it"
