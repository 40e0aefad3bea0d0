"""Source-level checks on the package."""

import ast
from pathlib import Path

import pytest

import reflexorb

SOURCES = sorted(Path(reflexorb.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # python -O strips assert statements; internal checks raise AuditError
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "fan.py", "hodge.py", "linalg.py", "polytope.py"}
