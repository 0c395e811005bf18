"""Every module of the package and of the tests reads each name it imports,
and the CLI starts without sympy."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unread_imports(path):
    """The names that ``path`` binds by an import and never reads.

    A package ``__init__`` is skipped: its imports are the package's API.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_no_unread_imports():
    files = [p for p in sorted((ROOT / "src").rglob("*.py"))
             if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 20
    unread = {str(p.relative_to(ROOT)): names for p in files
              if (names := unread_imports(p))}
    assert unread == {}


def test_cli_import_loads_no_sympy():
    # sympy is imported only where a gcd needs it; a cold import of it
    # costs every CLI process about half a second.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, spinetorsion.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'sympy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
