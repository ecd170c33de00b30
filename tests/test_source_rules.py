"""Rules on the package source itself, checked by parsing it."""

import ast
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
