"""The helper scripts under ``tools/``, loaded by path and run on small
inputs."""

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
