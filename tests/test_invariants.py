"""Invariants must not rely on ``assert``, which ``python -O`` strips."""

import ast
import os
import subprocess
import sys

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


# the packed entry format and the helpers that read or write it
PACKED_NAMES = {"_aligned", "_fields", "_pack", "_room", "_rung", "_settle", "_window",
                "_rows_at", "_from_packed", "_from_products"}
PACKED_ATTRIBUTES = {"rows", "width"}


def _packed_format_uses(directory):
    found = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py") or name == "supercat.py":
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used = node.id in PACKED_NAMES
            elif isinstance(node, ast.alias):
                used = node.name in PACKED_NAMES
            elif isinstance(node, ast.Attribute):
                used = node.attr in PACKED_NAMES | PACKED_ATTRIBUTES
            else:
                continue
            if used:
                found.append(f"{name}:{node.lineno}")
    return found


def test_packed_entry_format_stays_inside_supercat():
    assert _packed_format_uses(SRC) == []


# the Schur idempotent on a tensor power, which only the tests build
# (tests/schur_oracle.py), and the type blocks summed from the n!-term Young
# idempotent: a Schur image is its verdicts, each type's trace a strip count
TENSOR_POWER_SCHUR_NAMES = {"_young_rows", "_power_idempotent", "_checked_supertrace",
                            "operator_on_power", "_largest_nonvanishing", "_build",
                            "_young_blocks", "_central_blocks", "_type_block",
                            "_young_column", "_check_slot_swaps", "_orbit_size",
                            "BLOCK_ENTRY_BOUND"}


def _tensor_power_schur_uses(directory):
    found = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            used = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
                    ast.FunctionDef: "name", ast.Constant: "value"}.get(type(node))
            if used and getattr(node, used) in TENSOR_POWER_SCHUR_NAMES:
                found.append(f"{name}:{node.lineno}")
    return found


def test_no_schur_idempotent_on_a_tensor_power_in_package():
    assert _tensor_power_schur_uses(SRC) == []


def test_karoubi_imports_no_group_algebra_idempotent():
    # the Schur verdicts read strip counts, never the n!-term Young
    # idempotent or the degree bound on its convolution
    with open(os.path.join(SRC, "karoubi.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="karoubi.py")
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"young_idempotent", "CONVOLUTION_BOUND"}


def test_cli_import_loads_no_record_machinery():
    # every finmot command runs in a fresh interpreter, so its imports are
    # paid on each call: records are plain classes and NamedTuples, not
    # dataclasses (which pull in inspect, ast, dis and tokenize), and csv
    # loads only when a report is written as CSV
    env = {**os.environ, "PYTHONPATH": os.path.dirname(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, finmot.cli; "
         "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
