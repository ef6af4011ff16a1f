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


def unused_private_names(source: str) -> list[str]:
    """Module-level _names (not __dunders__) a module defines but never reads."""
    tree = ast.parse(source)
    defined: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        name for name in defined - read if name.startswith("_") and not name.startswith("__")
    )


def test_unused_private_name_scan_flags_orphans():
    source = (
        "_a = 1\n_b, (_c, d) = 2, (3, 4)\n_e: int = 5\n__all__ = []\n"
        "def _f():\n    return _a + _c\n"
        "class _G:\n    _h = 6\n"
        "def public(_i=_G):\n    _j = 7\n"
    )
    assert unused_private_names(source) == ["_b", "_e", "_f"]
    assert unused_private_names("_k = 1\n_k = 2\nprint(_k)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def envelope_uses(source: str) -> list[int]:
    """Lines that name FORMAT_VERSION or use "format_version" as a dict key."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named = node.id == "FORMAT_VERSION"
        elif isinstance(node, ast.Attribute):
            named = node.attr == "FORMAT_VERSION"
        elif isinstance(node, ast.alias):
            named = "FORMAT_VERSION" in (node.name, node.asname)
        elif isinstance(node, ast.Dict):
            named = any(isinstance(k, ast.Constant) and k.value == "format_version"
                        for k in node.keys)
        elif isinstance(node, ast.Subscript):
            named = isinstance(node.slice, ast.Constant) and node.slice.value == "format_version"
        elif isinstance(node, ast.keyword):
            named = node.arg == "format_version"
        else:
            continue
        if named:
            lines.add(node.lineno)
    return sorted(lines)


def test_envelope_scan_flags_every_form():
    source = (
        "from .io import FORMAT_VERSION\n"
        "from . import io as dio\n"
        "a = {'mode': 'format_version', **b}\n"
        "c = {'format_version': 1}\n"
        "d = dio.FORMAT_VERSION\n"
        "e['format_version'] = 1\n"
        "f = dict(format_version=1)\n"
        "g = {'FORMAT_VERSION': 1}\n"
    )
    assert envelope_uses(source) == [1, 4, 5, 6, 7]


PACKAGE = sorted((ROOT / "src" / "drowsy").glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_io_writes_the_document_envelope(path):
    # io.write_document adds format_version to every document it writes
    uses = envelope_uses(path.read_text(encoding="utf-8"))
    assert (uses != []) == (path.name == "io.py"), uses


_WRITE_MODE = re.compile(r"[rbt]*[wax+][rwaxbt+]*")


def opens_for_writing(call: ast.Call) -> bool:
    """open with a write mode, or with one the scan cannot read; any fdopen or mkstemp."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("fdopen", "mkstemp"):
        return True
    if name != "open":
        return False
    # open(path, mode), a path's .open(mode), and os.open(path, flags)
    modes = call.args[1:2] if isinstance(func, ast.Name) else call.args[:2]
    modes = [*modes, *(kw.value for kw in call.keywords if kw.arg == "mode")]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
        or _WRITE_MODE.fullmatch(mode.value)
        for mode in modes
    )


def output_openers(source: str) -> list[str]:
    """The functions (or "<module>") that open a file for writing, each by its innermost def."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and opens_for_writing(child):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_output_opener_scan_flags_every_form():
    source = (
        "open('a', 'w')\n"
        "def f(p, m):\n    return open(p, m)\n"
        "def g(p):\n    return open(p, encoding='utf-8'), open(p, 'rb'), p.open(), p.open('r')\n"
        "def h(p):\n    return p.open('a')\n"
        "def i(p):\n    return open(p, mode='x')\n"
        "def j():\n    return os.fdopen(3)\n"
        "def k():\n    return tempfile.mkstemp()\n"
        "def l():\n    from tempfile import mkstemp\n    return lambda: mkstemp()\n"
        "def m(p):\n    return os.open(p, os.O_WRONLY)\n"
        "class N:\n    def o(self, p):\n        return open(p, 'r+')\n"
    )
    assert output_openers(source) == ["<module>", "f", "h", "i", "j", "k", "l", "m", "o"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_open_out_opens_outputs(path):
    # cli._open_out gives every output its buffer, its atomic rename and its mode
    openers = output_openers(path.read_text(encoding="utf-8"))
    assert openers == (["_open_out"] if path.name == "cli.py" else []), openers


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
