"""Every public top-level function, class and constant in vbrsim has a reader outside the tests,
every top-level import in vbrsim and in the tests is read by its module, no
vbrsim module reads a private attribute of anything but ``self``, the policies
and estimators raise nothing, only ``model.check`` renders a rule's wording, the
CLI tests start a process only in the two entry-point tests, and the file
loaders read their path only to open it."""

import ast
from pathlib import Path

from tests_support import load_tracer

import vbrsim

SOURCES = sorted(Path(vbrsim.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
TEST_TREES = {
    path.name: ast.parse(path.read_text(), str(path))
    for path in sorted(Path(__file__).parent.glob("*.py"))
}


def _traced():
    """(module, top-level name) of each function the benchmark's tracer patches."""
    return {tuple(name.split(".")[:2]) for name in load_tracer().FUNCTIONS}


def _read(tree) -> set:
    """Every name and attribute name that ``tree`` reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def _defined(node) -> list:
    """The names that the top-level statement ``node`` defines: a function, a
    class, or each name that an assignment binds, such as a constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for t in targets for name in ast.walk(t) if isinstance(name, ast.Name)]


def test_every_public_name_is_read_exported_or_traced():
    kept = set().union(*map(_read, TREES.values())) | set(vbrsim.__all__)
    traced = _traced()
    unread = [
        f"{module}.{name}"
        for module, tree in TREES.items()
        for node in tree.body
        for name in _defined(node)
        if not name.startswith("_") and name not in kept and (module, name) not in traced
    ]
    assert not unread, f"nothing in vbrsim reads {unread}"


def test_every_import_is_read_by_its_module():
    unread = []
    for module, tree in [*TREES.items(), *TEST_TREES.items()]:
        # the package imports the names it exports
        kept = _read(tree) | (set(vbrsim.__all__) if module == "__init__" else set())
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in kept:
                    unread.append(f"{module}: {name}")
    assert not unread, f"imported and never read: {unread}"


# the named-tuple API, whose leading underscore only keeps it from field names
NAMED_TUPLE_API = {"_asdict", "_fields"}


def test_no_module_reads_a_private_attribute_of_another_object():
    reads = [
        f"{module}:{node.lineno}: {ast.unparse(node)}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and node.attr not in NAMED_TUPLE_API
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert not reads, f"private attributes read from outside their object: {reads}"


def test_cli_tests_start_a_process_only_in_the_entry_point_test():
    # every other CLI test calls main in process, which is several times faster
    starts = [
        getattr(node, "name", f"line {node.lineno}")
        for node in TEST_TREES["test_cli.py"].body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and ast.unparse(call.func).startswith("subprocess.")
    ]
    assert starts == [
        "test_python_m_entry_point_exits_2_as_main_does",
        "test_python_m_entry_point_reads_its_arguments_from_sys_argv",
    ]


def test_policies_and_estimators_raise_nothing():
    # run_session owns every session check, so the code it calls per segment
    # has none of its own
    raises = [
        f"{module}:{node.lineno}"
        for module in ("policies", "estimators")
        for node in ast.walk(TREES[module])
        if isinstance(node, ast.Raise)
    ]
    assert not raises, f"raise statements outside run_session: {raises}"


def test_only_check_renders_a_rules_wording():
    # every refusal by a rule is check's message, so no other code reads
    # rule[2], a rule's wording
    readers = [
        f"{module}.{getattr(node, 'name', node.lineno)}"
        for module, tree in TREES.items()
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Subscript) and ast.unparse(sub) == "rule[2]"
    ]
    assert readers == ["model.check"], readers


def test_the_loaders_read_their_path_only_to_open_it():
    # the CLI names a refused input's file, as the command line gives it, so a
    # loader's message names only the place in the file
    loaders = [("model", "load_manifest"), ("model", "load_trace"), ("engine", "load_log_jsonl")]
    reads = []
    for module, name in loaders:
        (loader,) = [
            node for node in TREES[module].body
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        opened = [
            call.args[0]
            for call in ast.walk(loader)
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "open" and call.args
        ]
        reads += [
            f"{module}.{name}:{sub.lineno}"
            for sub in ast.walk(loader)
            if isinstance(sub, ast.Name) and sub.id == "path" and sub not in opened
        ]
    assert not reads, f"path read other than as open()'s argument: {reads}"
