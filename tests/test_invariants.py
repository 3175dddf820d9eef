"""Package invariants must not rely on ``assert``, which ``python -O`` strips."""

import ast
import os

import finmot

SRC = os.path.dirname(finmot.__file__)


def test_no_assert_statements_in_package():
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found.extend(f"{name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []
