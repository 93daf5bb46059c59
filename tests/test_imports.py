"""Every imported name in the package and its tests is used.

No linter is a dependency, so this walks the syntax tree with the standard
library. Package `__init__.py` files are skipped: their imports are the
public re-export surface.
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


def test_checker_finds_unused_and_accepts_used():
    src = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
           "from a import b, c as d\nprint(os.path.sep, d)\n")
    assert unused_imports(src) == ["line 3: j", "line 4: b"]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)} {item}"
             for path in _sources() for item in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
