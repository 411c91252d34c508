"""Source-level rules: checks survive ``python -O``; the suites live outside the CLI; imports."""

import ast
from pathlib import Path

import aztecbridge
from aztecbridge import cli, regions, verify


def test_no_assert_statements_in_the_package():
    sources = sorted(Path(aztecbridge.__file__).parent.glob("*.py"))
    assert {"regions.py", "stats.py", "formulas.py"} <= {p.name for p in sources}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "python -O strips these asserts: " + ", ".join(found)


def test_no_call_in_the_package_indents_json():
    """``json.dumps(indent=...)`` runs json's pure-Python encoder; ``cli._dumps`` writes its bytes."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(aztecbridge.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)
    ]
    assert found == []


def test_no_namedtuple_call_or_typing_import_in_the_package():
    """Both cost every start: namedtuple ``eval``s a ``__new__`` per class (see ``regions._Tuple``)."""
    found = []
    for path in sorted(Path(aztecbridge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                bad = name == "namedtuple"
            elif isinstance(node, ast.Import):
                bad = any(a.name.partition(".")[0] == "typing" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = not node.level and node.module.partition(".")[0] == "typing"
            else:
                continue
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_cli_dispatches_every_suite_through_the_verify_module():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert [name for name in defined if name.startswith("suite_")] == []
    _, ((_, _, suite),), _ = cli.COMMANDS["verify"]
    assert list(suite) == list(verify.SUITES)


def _imports(module):
    """Every import statement of a module's source, at module level or inside a function."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_regions_imports_no_other_module_of_the_package():
    found = [
        f"line {node.lineno}"
        for node in _imports(regions)
        if (isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("aztecbridge")))
        or (isinstance(node, ast.Import) and any(a.name.startswith("aztecbridge") for a in node.names))
    ]
    assert found == [], "regions imports the package at " + ", ".join(found)


def test_verify_imports_no_private_name():
    found = [
        alias.name
        for node in _imports(verify)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def _package_trees():
    """(file name, parsed source) of every module of the package."""
    for path in sorted(Path(aztecbridge.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_but_engine_imports_a_private_name_of_engine():
    """The sweep's packing, cell orders and move tables and the Kasteleyn skeleton are engine's."""
    found = [
        f"{name}:{node.lineno} {alias.name}"
        for name, tree in _package_trees()
        if name != "engine.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module == "engine" and node.level == 1 or node.module == "aztecbridge.engine")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_no_module_but_regions_reads_the_white_parity():
    """Every other module reads a cell's colour from ``Lattice.colour``, derived once."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        if name != "regions.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "white_parity"
    ]
    assert found == []
