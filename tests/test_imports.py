"""Every name a module of the package imports is read somewhere in it.

Each ``src/uncert/*.py`` but the package's ``__init__.py``, which binds its
submodules for ``import uncert``, is parsed with :mod:`ast`.  A name bound
by ``import`` or ``from ... import`` (``from __future__`` excepted) must be
loaded by some expression of the module, annotations included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "uncert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n\n"
              "def f(x: np.ndarray):\n    return field(default=x)\n")
    assert unused_imports(source) == ["math", "dataclass"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
