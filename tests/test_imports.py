"""Every module of the package and of the tests reads each name it imports,
no part of the package loads sympy, and a process loads only the modules
its command runs."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys
import types

import pytest

import spinetorsion
from spinetorsion.spinefile import serialize

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unread_imports(path):
    """The names that ``path`` binds by an import and never reads."""
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
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 20
    unread = {str(p.relative_to(ROOT)): names for p in files
              if (names := unread_imports(p))}
    assert unread == {}


def private_definitions(tree):
    """(name, statement) for each module-level name of ``tree`` that starts
    with one underscore, bound by a def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def loaded_names(node):
    """The names and attribute names that ``node`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_no_unread_private_helpers():
    # A private helper that nothing reads any longer is dead code; a read
    # inside its own definition (a recursive call) does not count.
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src").rglob("*.py"))}
    statements = [(node, loaded_names(node)) for tree in trees.values()
                  for node in tree.body]
    defined = [(path, name, node) for path, tree in trees.items()
               for name, node in private_definitions(tree)]
    assert len(defined) > 50
    unread = [(path, name) for path, name, node in defined
              if not any(name in reads for other, reads in statements if other is not node)]
    assert unread == []


def test_no_unread_public_definitions():
    # A public def or class that no other statement of the package reads,
    # that the package does not export and that the benchmark's tracer does
    # not patch is kept for the tests alone; it belongs in ``tests/``.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {part for _mod, attr, _span in tracer.TARGETS for part in attr.split(".")}
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src").rglob("*.py"))}
    statements = [(node, loaded_names(node)) for tree in trees.values()
                  for node in tree.body]
    defined = [(path, node.name, node) for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert len(defined) > 50
    unread = [(path, name) for path, name, node in defined
              if name not in spinetorsion.__all__ and name not in traced
              and not any(name in reads for other, reads in statements if other is not node)]
    assert unread == []


def test_every_oracle_is_called():
    # An oracle that no test reaches checks nothing: each function of
    # ``tests/oracles.py`` is imported by a test module, or read by an
    # oracle that is.
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    reads = {node.name: loaded_names(node) for node in oracles.body
             if isinstance(node, ast.FunctionDef)}
    assert len(reads) > 10
    stack = [alias.name for p in sorted((ROOT / "tests").glob("test_*.py"))
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.module == "oracles"
             for alias in node.names]
    live = set()
    while stack:
        name = stack.pop()
        if name in reads and name not in live:
            live.add(name)
            stack += reads[name]
    assert sorted(set(reads) - live) == []


def test_every_error_class_is_raised():
    # An error class that nothing raises, and that no raised class derives
    # from, promises callers a failure that cannot happen.
    tree = ast.parse((ROOT / "src" / "spinetorsion" / "errors.py").read_text(encoding="utf-8"))
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in tree.body if isinstance(node, ast.ClassDef)}
    assert len(bases) > 15
    live = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                live.add(getattr(exc, "id", getattr(exc, "attr", None)))
    stack = list(live & set(bases))
    while stack:
        for base in bases[stack.pop()]:
            if base in bases and base not in live:
                live.add(base)
                stack.append(base)
    assert sorted(set(bases) - live) == []


def run_fresh(code, *args):
    """The stdout lines of ``code`` run with ``args`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout.splitlines()


def loaded_modules(code, *args):
    """The modules loaded after ``code`` runs with ``args`` in a fresh
    interpreter; ``code`` may print to stdout, the list comes last."""
    return set(run_fresh(code + "\nprint(' '.join(sorted(sys.modules)))", *args)[-1].split())


def package_modules(modules):
    return {m.split(".", 1)[1] for m in modules if m.startswith("spinetorsion.")}


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


# The package's 55 exported names, in the order of ``__all__``.
EXPORTS = [
    "census_branched", "enumerate_triangulations",
    "CellComplexX", "GroupData", "Representation", "SpiderAnchors",
    "TwistedComplex", "make_representation",
    "BasisRankMismatch", "CyclicTriangle", "Disconnected", "MoveError",
    "NonOrientable", "NotAcyclicNoBasis", "NotApplicable",
    "RelatorNotKilled", "SelfAdjacentFace", "SpineError",
    "SpineSyntaxError", "Stuck", "TorsionError", "TransportFailure",
    "UnpairedFace", "ValidationError",
    "EulerData", "euler_chain_class", "euler_data", "maw_cochain",
    "path_choice_independence", "pd_consistency",
    "HCycleReport", "MoveInstance", "apply_negative", "apply_positive",
    "available_moves", "h_cycle_check", "is_rigid", "positive_move",
    "random_walk", "transport_homology", "transport_rational_homology",
    "transport_representation",
    "BranchedSpine", "enumerate_branchings",
    "parse", "parse_move_log", "replay_move_log", "serialize",
    "serialize_move_log",
    "TorsionValue", "auto_twisted_homology", "invariance_suite",
    "sign_refined_torsion", "torsion",
    "Triangulation",
]


def test_package_import_loads_no_submodule():
    assert package_modules(loaded_modules("import sys, spinetorsion")) == set()


def test_cli_import_loads_only_the_spine_parser():
    modules = package_modules(loaded_modules("import sys, spinetorsion.cli"))
    assert modules == {"cli", "errors", "perms", "spine", "spinefile", "triangulation"}


@pytest.mark.parametrize("args, loads, skips", [
    (["validate"], {"complexes", "intlinalg"},
     {"fields", "torsion", "moves", "census", "euler"}),
    (["summary"], {"complexes", "moves", "rng"},
     {"fields", "torsion", "census", "euler"}),
    (["torsion", "--rep", "cyclic:5", "--sign-refined"], {"fields", "torsion"},
     {"moves", "census", "euler"}),
    (["euler"], {"euler"}, {"fields", "torsion", "moves", "census"}),
])
def test_command_loads_only_what_it_runs(census2, tmp_path, args, loads, skips):
    path = tmp_path / "spine.txt"
    path.write_text(serialize(census2[4]), encoding="utf-8")
    modules = package_modules(loaded_modules(
        "import sys\nfrom spinetorsion.cli import main\nmain(sys.argv[1:])",
        args[0], str(path), *args[1:]))
    assert modules >= loads and not modules & skips


def test_package_exports():
    assert spinetorsion.__all__ == EXPORTS
    namespace = {}
    exec("from spinetorsion import *", namespace)
    assert set(EXPORTS) <= set(namespace) and set(EXPORTS) <= set(dir(spinetorsion))
    assert not hasattr(spinetorsion, "no_such_name")
    from spinetorsion import moves
    assert isinstance(moves, types.ModuleType) and moves.__name__ == "spinetorsion.moves"


def test_exports_survive_submodule_loads():
    # Loading submodule ``torsion`` sets the package attribute ``torsion``;
    # the exported function must keep that name whatever loads first.
    out = run_fresh("""
import importlib, pkgutil, sys, spinetorsion as S
from spinetorsion import moves
print(moves.__name__)
for info in sorted(pkgutil.iter_modules(S.__path__), key=lambda m: m.name, reverse=True):
    importlib.import_module("spinetorsion." + info.name)
print(sorted(n for n in S.__all__
             if getattr(S, n) is not getattr(sys.modules[getattr(S, n).__module__], n)))
print(S.torsion is sys.modules["spinetorsion.torsion"].torsion, callable(S.torsion))
""")
    assert out == ["spinetorsion.moves", "[]", "True True"]


def test_modules_loaded_while_traced_keep_no_wrapper():
    # The benchmark's tracer imports its target modules one by one while it
    # patches; a module that bound a patched function at import would keep
    # the wrapper, and go on recording spans, after ``uninstall``.
    out = run_fresh("""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import spinetorsion as S
t = tracer.Tracer()
t.install()
t.uninstall()
S.census_branched(1)
print(len(t.start))
""", str(ROOT / "perfbench" / "tracer.py"))
    assert out == ["0"]
