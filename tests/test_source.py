"""Source-level checks on the package and the test helpers."""

import ast
from pathlib import Path

import pytest

import reflexorb

SOURCES = sorted(Path(reflexorb.__file__).parent.glob("*.py"))
# pytest rewrites asserts only in test modules, so python -O strips the
# asserts of the helper modules beside them
HELPERS = sorted(p for p in Path(__file__).parent.glob("*.py") if not p.name.startswith("test_"))


def assert_lines(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # python -O strips assert statements; internal checks raise AuditError
    lines = assert_lines(path)
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("path", HELPERS, ids=[p.name for p in HELPERS])
def test_no_assert_statements_in_test_helpers(path):
    # helper checks raise AssertionError themselves, so they run under -O too
    lines = assert_lines(path)
    assert lines == [], f"tests/{path.name} has assert statements on lines {lines}"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "fan.py", "hodge.py", "linalg.py", "polytope.py"}
    assert {p.name for p in HELPERS} >= {"boxes.py", "oracles.py", "pairing.py"}
