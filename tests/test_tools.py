"""The helper scripts under ``tools/``, loaded by path and run on small
inputs, and the import layering of the package's modules."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''\
"""Module docstring."""
import os


@decorator
@other(
    1)
def f(x):
    """Function docstring."""
    global y
    try:
        y = x
    except ValueError:
        raise
'''


def test_statement_heads_lists_the_statements_that_run_code():
    heads = _load("untested").statement_heads(SOURCE)
    assert heads == [
        (2, 2, 2),  # import os
        (8, 5, 8),  # def f: from its first decorator to the line before its body
        (12, 12, 12),  # y = x
        (14, 14, 14),  # raise inside except
    ]


# the package's modules, each importing only modules listed before it
LAYERS = ("errors", "problems", "transport", "distance", "corruption",
          "landscape", "empirical", "serialize", "cli")


def test_each_module_imports_only_the_layers_below_it():
    modules = sorted((ROOT / "src" / "riskspace").glob("*.py"))
    assert sorted(LAYERS) == sorted(m.stem for m in modules if m.stem != "__init__")
    for module in modules:
        if module.stem == "__init__":
            continue
        imported = set()
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import x
                    imported.update(alias.name for alias in node.names)
                else:  # from .x import ...
                    imported.add(node.module)
        below = set(LAYERS[:LAYERS.index(module.stem)])
        assert imported <= below, (module.stem, sorted(imported - below))
