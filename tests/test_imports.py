"""Every module of the package and of the tests reads each name it imports,
and no part of the package loads sympy."""

import ast
import os
import pathlib
import subprocess
import sys

from spinetorsion.spinefile import serialize

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


def loaded_modules(code, *args):
    """The modules loaded after ``code`` runs with ``args`` in a fresh
    interpreter; ``code`` may print to stdout, the list comes last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nprint(' '.join(sorted(sys.modules)))",
         *args], env=env, capture_output=True, text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


def sympy_modules(modules):
    return sorted(m for m in modules if m.split(".")[0] == "sympy")


def test_cli_import_loads_no_sympy():
    # The gcd module is imported only where a gcd is taken: a CLI process
    # that takes none compiles no more of the package than it runs.
    modules = loaded_modules("import sys, spinetorsion.cli")
    assert sympy_modules(modules) == []
    assert "spinetorsion.polygcd" not in modules


def test_gcd_taking_invariance_loads_no_sympy(census2, tmp_path):
    # This walk reduces rational functions in two variables, so it takes
    # gcds; a cold import of sympy cost each such process about 0.5 s.
    path = tmp_path / "spine.txt"
    path.write_text(serialize(census2[4]), encoding="utf-8")
    modules = loaded_modules(
        "import sys\nfrom spinetorsion.cli import main\nmain(sys.argv[1:])",
        "invariance", str(path), "--rep", "free-abelian", "--steps", "3",
        "--seed", "5", "--max-tets", "4")
    assert "spinetorsion.polygcd" in modules
    assert sympy_modules(modules) == []


def test_no_sympy_import_in_src():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [str(path.relative_to(ROOT)) for name in names
                      if name.split(".")[0] == "sympy"]
    assert found == []
