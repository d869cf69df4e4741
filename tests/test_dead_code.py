"""Every function, class, method and module-level name in src/flagdual is
referenced somewhere, and every module-level import is read by its module.

References are read from the syntax trees of src, tests, perfbench and
scripts, so a name that only occurs in a docstring or a comment does not
count, and neither does the assignment that defines it.  A string constant
that is an identifier does count: the benchmark tracer wraps functions by
name.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flagdual"
SCANNED = ("src", "tests", "perfbench", "scripts")


def _is_click_command(node) -> bool:
    """Decorated with ``@<group>.command(...)`` or ``@<x>.group(...)``."""
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _assigned_names(node):
    """The plain names a module-level assignment binds; an attribute or
    subscript target defines nothing."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def definitions():
    """(qualified name, bare name) of each top-level function, class and
    assigned name of the package and each method of its classes, less the
    exempt ones."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for name in _assigned_names(node):
                yield f"{path.stem}.{name}", name
            if not isinstance(node, defs):
                continue
            members = [(f"{path.stem}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{path.stem}.{node.name}.{sub.name}", sub)
                            for sub in node.body if isinstance(sub, defs)]
            for qualname, member in members:
                dunder = member.name.startswith("__") and member.name.endswith("__")
                if not dunder and not _is_click_command(member):
                    yield qualname, member.name


def references(scanned=SCANNED) -> set:
    """Names read as a Name, used as an Attribute, an import alias or an
    identifier string anywhere in the trees ``scanned``."""
    names = set()
    for top in scanned:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    names.add(node.value)
    return names


def test_no_unreferenced_definitions():
    used = references()
    unused = [qualname for qualname, name in definitions() if name not in used]
    assert not unused, f"defined but referenced nowhere: {unused}"


# Definitions of the package that only tests read.  The list may only shrink:
# a test-only definition missing from it fails, and so does a listed name
# that something outside the tests now reads (or that is gone).  These three
# wait for the Hodge-equivalence check (ROADMAP item 3), which gives them a
# stage.
TEST_ONLY = {
    "bwb.koszul_euler",
    "bwb.koszul_h0",
    "motivic.schubert_mul",
}


def test_test_only_definitions_are_listed():
    outside = references(tuple(top for top in SCANNED if top != "tests"))
    test_only = {qualname for qualname, name in definitions() if name not in outside}
    assert test_only == TEST_ONLY, (f"test-only, not listed: {sorted(test_only - TEST_ONLY)}; "
                                    f"listed, not test-only: {sorted(TEST_ONLY - test_only)}")


def unused_imports():
    """module.name of each module-level import of the package whose bound
    name its module never reads; ``from __future__`` is exempt."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        yield f"{path.stem}.{bound}"


def test_no_unused_imports():
    unused = list(unused_imports())
    assert not unused, f"imported but never read: {unused}"
