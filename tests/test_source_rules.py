"""Rules on the library source itself that no behavioural test sees."""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "tropstiefel"


def test_no_assert_in_library_code():
    """``python -O`` strips ``assert``, so library code raises instead;
    ``raise AssertionError`` sanity checks stay allowed."""
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in library code: {found}"
