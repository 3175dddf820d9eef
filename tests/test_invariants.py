"""Invariants must not rely on ``assert``, which ``python -O`` strips."""

import ast
import os

import finmot

SRC = os.path.dirname(finmot.__file__)


def _asserts(directory):
    found = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found.extend(f"{name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    return found


def test_no_assert_statements_in_package():
    assert _asserts(SRC) == []
