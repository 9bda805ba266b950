"""Every name the package defines is used somewhere.

A module-level function, class or assigned name of src/quiver_dt, or a
method that is not a dunder, must appear as a word on some line other than
its definition line, in a Python file under src/, tests/ or perfbench/.
__all__ is the one exception: it is read by import machinery, not by name.
"""

import ast
import re
from pathlib import Path

import quiver_dt

ROOT = Path(quiver_dt.__file__).resolve().parents[2]
PACKAGE = Path(quiver_dt.__file__).resolve().parent


def defined_names(path: Path):
    """(name, definition line) for each module-level function, class and
    assigned name, and each non-dunder method, of the module at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield item.name, item.lineno


def word_lines(root: Path):
    """Each word of the Python files under src/, tests/ and perfbench/ of
    root, with the (path, line number) of every line it is on."""
    out = {}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            lines = path.resolve().read_text(encoding="utf-8").splitlines()
            for number, text in enumerate(lines, 1):
                for word in set(re.findall(r"\w+", text)):
                    out.setdefault(word, set()).add((path.resolve(), number))
    return out


def dead_names(root: Path = ROOT, package: Path = PACKAGE):
    """Each name defined in package and used on no other line under root,
    as "module:line name"."""
    lines = word_lines(root)
    dead = []
    for module in sorted(package.glob("*.py")):
        for name, at in defined_names(module):
            if name != "__all__" and not (lines.get(name, set())
                                          - {(module.resolve(), at)}):
                dead.append(f"{module.name}:{at} {name}")
    return dead


def test_every_defined_name_is_used():
    assert dead_names() == []


def test_the_scan_finds_a_name_used_nowhere(tmp_path):
    module = tmp_path / "src" / "quiver_dt" / "extra.py"
    module.parent.mkdir(parents=True)
    module.write_text("import os\n\n\nclass Holder:\n"
                      "    def kept(self):\n        return self.dropped\n\n"
                      "    def dropped(self):\n        return os.sep\n\n"
                      "    def unread(self):\n        return 0\n\n\n"
                      "UNREAD = Holder().kept()\n", encoding="utf-8")
    assert dead_names(tmp_path, module.parent) == [
        "extra.py:11 unread", "extra.py:15 UNREAD"]
