"""Rules on the package source itself, checked by parsing it."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ogmm"
PERFBENCH = SRC.parents[1] / "perfbench"


def private_imports(path: Path) -> list:
    """Each leading-underscore name the module at path imports from a module
    of the package, as "file:line name from module"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ogmm")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_another_modules_private_names():
    """A leading-underscore name is known to its own module alone. Names
    from outside the package (numpy's `_umath_linalg`) are not checked."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [entry for path in paths for entry in private_imports(path)]
    assert not found, found


def kd_tree_imports(path: Path) -> list:
    """Each import of scipy's k-d tree class in the module at path, as
    "file:line name"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in ("cKDTree", "KDTree")
    ]


def test_only_geometry_imports_the_kd_tree():
    """geometry.tree_neighbors is the one k-d tree search and holds the one
    tie rule; a tree built elsewhere would need a second copy of it."""
    found = [
        entry
        for path in sorted(SRC.glob("*.py"))
        if path.name != "geometry.py"
        for entry in kd_tree_imports(path)
    ]
    assert not found, found
    assert kd_tree_imports(SRC / "geometry.py")


# Names through which a module could reach an SVD: numpy's and scipy's
# `svd` and `svdvals`, the `svd_*` gufuncs behind np.linalg.svd, and the
# LAPACK routines (`dgesdd`, `gesvd`, ...).
SVD_NAME = re.compile(r"svd|svdvals|svd_[a-z]+|[sdcz]?ges[dv]d\w*")


def svd_uses(path: Path) -> list:
    """Each reference to an SVD routine in the module at path, as
    "file:function name" (function "<module>" outside any function)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        found.extend(f"{path.name}:{function} {n}" for n in names if SVD_NAME.fullmatch(n))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_only_kabsch_rotation_computes_an_svd():
    """geometry.kabsch_rotation is the one Kabsch core: the mixture solve
    and ICP's row-matched solve both call it, so neither keeps a second
    SVD path with its own sign rule."""
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in svd_uses(path)]
    assert found == ["geometry.py:kabsch_rotation svd_f"], found


# Public names that no module of the package or the benchmark calls, each
# kept because an acceptance criterion checks it.
TEST_ONLY_NAMES = {
    "full_self_attention": "criterion 5's exact reference for clustered self-attention",
    "welsch": "criterion 10 checks its value",
    "welsch_derivative": "criterion 10 checks it against central differences",
    "binary_cross_entropy_derivative": "criterion 10 checks it against central differences",
}
# A string naming a module attribute, as perfbench's span table binds them
# ("ogmm.registration", "encode").
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def public_definitions(path: Path) -> list:
    """The public module-level functions and classes of the module at path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def names_used(path: Path) -> set:
    """Each (name, owner) the module at path refers to, as a variable, an
    attribute or a string naming one; owner is the module-level function
    or class the reference sits in, or None. Docstrings, comments and
    imports are not references."""
    found = set()

    def visit(node, owner):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Name):
            found.add((node.id, owner))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, owner))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED_NAME.fullmatch(node.value):
                found.update((part, owner) for part in node.value.split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for top in ast.parse(path.read_text(), filename=str(path)).body:
        defines = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        visit(top, (path, top.name) if defines else None)
    return found


def test_every_public_definition_has_a_caller_outside_the_tests():
    """A public function or class stays only if the pipeline, the CLI or
    the benchmark names it: some module of src/ogmm/ other than
    __init__.py's re-exports, or of perfbench/, refers to it outside its
    own definition. The allow-list holds what only the tests call."""
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    used = set()
    for path in paths + sorted(PERFBENCH.glob("*.py")):
        used |= names_used(path)
    unused, allowed = set(), set()
    for path in paths:
        for name in public_definitions(path):
            if not any(n == name and owner != (path, name) for n, owner in used):
                unused.add(f"{path.name}:{name}")
            if name in TEST_ONLY_NAMES:
                allowed.add(f"{path.name}:{name}")
    assert unused == allowed, sorted(unused ^ allowed)



def called_name(node) -> str:
    """The name a call expression calls (`f(...)` or `module.f(...)`), or ""
    when node is no such call."""
    if not isinstance(node, ast.Call):
        return ""
    return getattr(node.func, "id", getattr(node.func, "attr", ""))


def sinkhorn_calls(path: Path) -> list:
    """Each call of `sinkhorn` in the module at path, as ("file:line", the
    expression passed as epsilon=, or None when there is none)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (f"{path.name}:{node.lineno}",
         next((k.value for k in node.keywords if k.arg == "epsilon"), None))
        for node in ast.walk(tree)
        if called_name(node) == "sinkhorn"
    ]


def test_every_sinkhorn_call_takes_the_relative_epsilon():
    """Every transport solve in the package passes epsilon= as a call of
    `transport.relative_epsilon`, a scale times the mean cost, so no call
    site brings back an epsilon tied to the cost's units."""
    calls = [call for path in sorted(SRC.glob("*.py")) for call in sinkhorn_calls(path)]
    assert {site.split(":")[0] for site, _ in calls} >= {"clustering.py", "mixture.py"}
    bad = [site for site, epsilon in calls if called_name(epsilon) != "relative_epsilon"]
    assert not bad, bad
