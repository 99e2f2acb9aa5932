"""Import hygiene of the package and test modules, read from their syntax trees."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "ttrealize"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_scan_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom a.b import c, d as e\nprint(os, e)\n"
    assert unused_imports(source) == ["line 3: c"]


def function_local_imports(source: str) -> list[str]:
    """Import statements inside a function body, with their lines."""
    found = {
        node.lineno: ast.unparse(node)
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [f"line {line}: {text}" for line, text in sorted(found.items())]


def test_scan_sees_a_function_local_import():
    source = "import os\ndef f():\n    import sys\n    def g():\n        from a import b\n    return os, sys, g\n"
    assert function_local_imports(source) == ["line 3: import sys", "line 5: from a import b"]


def by_module(scan, paths) -> dict[str, list[str]]:
    return {
        path.name: found
        for path in paths
        if (found := scan(path.read_text(encoding="utf-8")))
    }


def test_no_test_module_imports_a_name_it_never_reads():
    assert by_module(unused_imports, sorted(TESTS.glob("*.py"))) == {}


def test_no_package_module_imports_a_name_it_never_reads():
    """``__init__`` is skipped: its imports are the public re-exports."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert modules, PACKAGE
    assert by_module(unused_imports, modules) == {}


def test_no_package_module_imports_inside_a_function():
    """Every import of the package is at module top, where a cycle shows
    on import."""
    assert by_module(function_local_imports, sorted(PACKAGE.glob("*.py"))) == {}


def test_no_test_module_imports_inside_a_function():
    """The tests import at module top too, so each module's imports are
    read in one place."""
    assert by_module(function_local_imports, sorted(TESTS.glob("*.py"))) == {}


def names_read(source: str, functions: tuple[str, ...]) -> dict[str, set[str]]:
    """The names and attribute names each named top-level function reads."""
    return {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in functions
    }


def test_scan_sees_the_names_a_function_reads():
    source = "def f(g):\n    return g.is_primitive(NONE_FOUND)\ndef h():\n    pass\n"
    assert names_read(source, ("f",)) == {"f": {"g", "is_primitive", "NONE_FOUND"}}


def test_grading_a_realization_reads_no_search_and_no_primitivity():
    """A realization's two grades rest on the hypotheses of Theorem 6.2
    alone: the grader reads neither the Nielsen-path search nor the
    primitivity of final."""
    graders = ("certify_realization", "grade_realization", "_whitehead_connected")
    read = names_read((PACKAGE / "certify.py").read_text(encoding="utf-8"), graders)
    assert set(read) == set(graders)
    banned = {"find_periodic_inps", "NONE_FOUND", "InpSearchResult", "is_primitive"}
    assert {name: sorted(names & banned) for name, names in read.items() if names & banned} == {}


# the queries a factor shared with a chain before chains alone answered them
DROPPED_FACTOR_QUERIES = {
    "image", "image_length", "direction", "apply_path", "word_image_length", "factors",
    "fixes_all_vertices",
}
MAP_TYPES = {"GraphMap", "MapChain"}


def _name(node: ast.AST) -> str | None:
    """The name a definition, import alias, name or attribute binds or reads."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.alias)):
        return node.name
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def map_type_dispatch(source: str) -> list[str]:
    """Every definition or use of ``as_chain``, and every ``isinstance``
    call that names a map type, with their lines.  ``GraphMap`` checking
    its own type inside its class body (its ``__eq__``) is no dispatch
    between the two types, and is not reported."""
    tree = ast.parse(source)
    own = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "GraphMap"
        for node in ast.walk(cls)
    }
    found = set()
    for node in ast.walk(tree):
        if _name(node) == "as_chain":
            found.add((node.lineno, "as_chain"))
        if isinstance(node, ast.Call) and _name(node.func) == "isinstance":
            types = MAP_TYPES & {_name(n) for n in ast.walk(node.args[-1])}
            if id(node) in own:
                types.discard("GraphMap")
            if types:
                found.add((node.lineno, "isinstance with " + ", ".join(sorted(types))))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scan_sees_map_type_dispatch():
    source = (
        "from .maps import as_chain\n"
        "def as_chain(f):\n"
        "    return f if isinstance(f, (maps.MapChain, int)) else MapChain(f.graph, [f])\n"
        "class GraphMap:\n"
        "    def __eq__(self, other):\n"
        "        return isinstance(other, GraphMap) and not isinstance(other, MapChain)\n"
        "def f(x):\n"
        "    return isinstance(x, GraphMap), ttrealize.maps.as_chain(x)\n"
    )
    assert map_type_dispatch(source) == [
        "line 1: as_chain",
        "line 2: as_chain",
        "line 3: isinstance with MapChain",
        "line 6: isinstance with MapChain",
        "line 8: as_chain",
        "line 8: isinstance with GraphMap",
    ]


def test_a_factor_answers_no_queries_and_nothing_dispatches_on_map_type():
    """A ``GraphMap`` is a validated factor and a ``MapChain`` answers every
    query: no package module converts between the two or dispatches on
    them, and ``GraphMap`` defines none of the queries a chain answers."""
    assert by_module(map_type_dispatch, sorted(PACKAGE.glob("*.py"))) == {}
    tree = ast.parse((PACKAGE / "maps.py").read_text(encoding="utf-8"))
    (factor,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GraphMap"]
    defined = {n.name for n in factor.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    defined |= {t.id for n in factor.body if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)}
    assert sorted(defined & DROPPED_FACTOR_QUERIES) == []
