"""The program imports only the standard library and itself, as
``pyproject.toml``'s ``dependencies = []`` declares; so does the oracle
module the benchmark imports, but for pytest."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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


def test_the_oracle_module_perfbench_imports_needs_only_pytest_beyond_the_stdlib():
    """``perfbench/world.py`` imports ``tests/test_cep_engine.py`` for its
    oracle, so what that module imports counts in every benchmark run's
    ``peak_rss_mb``."""
    outside = {name for name in top_level_imports(ROOT / "tests" / "test_cep_engine.py")
               if name not in {"pytest", "semdrought"} and name not in sys.stdlib_module_names}
    assert not outside
