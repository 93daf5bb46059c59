"""Every imported name in the package and its tests is used, and every
name the package root re-exports is imported from the root somewhere.

No linter is a dependency, so this walks the syntax tree with the standard
library. Package `__init__.py` files are skipped by the unused-import check:
their imports are the public re-export surface, which the second check
holds to what callers use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name != "__init__.py":
            yield path
    yield from sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def reexports(init_source: str) -> set[str]:
    """Names a package `__init__.py` binds by relative imports."""
    return {alias.asname or alias.name for node in ast.walk(ast.parse(init_source))
            if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names}


def root_imports(source: str, package: str) -> set[str]:
    """Names a module takes from the package root: `from package import name`,
    or `name` read as an attribute of the root bound by `import package`."""
    tree = ast.parse(source)
    names, roots = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == package:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            roots.update(alias.asname or package for alias in node.names if alias.name == package)
    names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in roots)
    return names


def test_checker_finds_unused_and_accepts_used():
    src = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
           "from a import b, c as d\nprint(os.path.sep, d)\n")
    assert unused_imports(src) == ["line 3: j", "line 4: b"]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)} {item}"
             for path in _sources() for item in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_root_import_checker_counts_both_import_forms():
    init = "from .a import (x, y)\nfrom .b import z\nimport os\n__version__ = '1'\n"
    assert reexports(init) == {"x", "y", "z"}
    src = ("import pkg as p\nimport pkg.sub as sub\nfrom pkg import x\nfrom pkg.b import z\n"
           "p.y(sub.w)\n")
    assert root_imports(src, "pkg") == {"x", "y"}


def test_every_reexport_is_imported_from_the_root():
    package = ROOT / "src" / "surrogate_forge"
    used = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != package / "__init__.py":
                used |= root_imports(path.read_text(), package.name)
    unused = sorted(reexports((package / "__init__.py").read_text()) - used)
    assert not unused, "re-exported but never imported from the package root: " + ", ".join(unused)
