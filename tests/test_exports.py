"""Every name the package exports has a caller in the program or its benchmark, every name a
module imports is read, and the Gram wrapper stops at ``kernels``."""
import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "qsvm_boost"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _references(path: Path) -> set[str]:
    """Every name and attribute name a module reads; a def's or class's own name is neither."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(_tree(path)) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_exported_name_has_a_caller():
    # an export that no package module and no benchmark file references is an API that nothing uses
    exported = {alias.asname or alias.name for node in ast.walk(_tree(PACKAGE / "__init__.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert exported
    modules = [*PACKAGE.glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    assert sorted(exported - set().union(*map(_references, modules))) == []


def _imported_names(path: Path) -> set[str]:
    """The names a module's imports bind, ``from __future__`` aside: it sets how the module compiles."""
    return {(alias.asname or alias.name).split(".")[0] for node in ast.walk(_tree(path))
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names}


def test_no_module_imports_a_name_it_does_not_read():
    # __init__.py's imports are its exports, held to their callers above
    unread = {path.name: sorted(_imported_names(path) - _references(path))
              for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    assert {module: names for module, names in unread.items() if names} == {}


def test_no_module_past_kernels_names_gram_matrix():
    # the Gram builders' wrapper stops at kernels: the solver and both grid searches take arrays
    naming = [path.name for path in PACKAGE.glob("*.py") if path.name not in ("kernels.py", "__init__.py")
              and "GramMatrix" in _references(path) | _imported_names(path)]
    assert naming == []
