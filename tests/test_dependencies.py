"""The program imports only the standard library and itself, as
``pyproject.toml``'s ``dependencies = []`` declares."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def top_level_imports(path: Path) -> set[str]:
    """The first name of each absolute import anywhere in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_src_module_imports_only_the_stdlib_or_semdrought():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    outside = {f"{path.relative_to(SRC)}: {name}" for path in modules
               for name in top_level_imports(path)
               if name != "semdrought" and name not in sys.stdlib_module_names}
    assert not outside
