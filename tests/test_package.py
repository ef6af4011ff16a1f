import ast
import re
import sys
from pathlib import Path

import pytest

import drowsy

ROOT = Path(__file__).resolve().parent.parent
# bench/ is in pytest's testpaths, so tier-1 imports its modules too
MODULES = sorted(
    path
    for directory in (ROOT / "src" / "drowsy", ROOT / "scripts", ROOT / "bench")
    for path in directory.glob("*.py")
)


def test_public_names_resolve():
    assert len(set(drowsy.__all__)) == len(drowsy.__all__)
    for name in drowsy.__all__:
        assert hasattr(drowsy, name), name
    assert "SchemeMapError" not in drowsy.__all__


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name listed in __all__ is a re-export."""
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_scan_flags_orphans():
    source = "import os, os.path\nimport json as j\nfrom a import b, c as d\nos.sep\nb()\n"
    assert unused_imports(source) == ["d", "j"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# the interpreter floor pyproject.toml declares, as a feature_version for ast.parse
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    ).groups()
)
SOURCES = sorted(
    path
    for directory in (ROOT / "src" / "drowsy", ROOT / "scripts", ROOT / "tests", ROOT / "bench")
    for path in directory.glob("*.py")
)


def test_syntax_floor_check_rejects_newer_syntax():
    assert FLOOR == (3, 10)
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11 syntax
    if sys.version_info >= (3, 11):
        ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=FLOOR)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_source_parses_at_the_requires_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
