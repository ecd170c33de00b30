"""Rules on the package source itself, checked by parsing it."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ogmm"


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
    """geometry.kabsch_rotation is the one Kabsch core: the mixture solve,
    ICP's row-matched solve and compose all call it, so none keeps a
    second SVD path with its own sign rule."""
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in svd_uses(path)]
    assert found == ["geometry.py:kabsch_rotation svd"], found
