"""The production package holds production code.

Every function a module of ``src/ovlab`` exports through ``__all__`` must be
used by the package itself, be part of the acceptance suite's interface, or
be a function the benchmark tracer hooks. Every public method and property
of a class in ``src/ovlab`` must be read by the package, the acceptance
suite or the benchmark. A function only other tests call belongs in the
tests (scalar oracles live in ``tests/oracles.py``).

Every name has one home: the package root re-exports nothing, a module's
``__all__`` lists only names it defines, and no module imports another's
private (underscore) name.

Code that reads every proposal reads an image's columns: outside
``SynthImage``, which defines it, only the discovery prep builds records
(``.proposal_records``), and only for the background rows it kept. Only
``trainer.filtered_background`` calls ``filter_background_proposals``, so a
prep filters each image once and the labeller filters nothing. A box is
a row of a float array: no module defines a ``Box``, and nothing reads an
image's ``background_proposals``. A proposal's hidden category lives only in
its image's ``label`` and ``source`` columns: no module defines an
``OracleInfo`` or reads an ``.oracle``, ``.oracles`` or ``.proposals``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ovlab"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _all(tree: ast.Module) -> list[str]:
    """The module's ``__all__`` (empty if it has none)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _exported_functions(tree: ast.Module) -> list[str]:
    """Names in ``__all__`` that the module defines as top-level functions."""
    exported = set(_all(tree))
    return sorted(
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in exported
    )


def _references(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """Names read (or attributes taken) anywhere in ``tree`` outside ``skip``'s body."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of every ``from ovlab.<module> import name`` or ``from .<module> import name``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("ovlab.")
            found.update((module, alias.name) for alias in node.names)
    return found


def _hook_targets() -> set[tuple[str, str]]:
    """(module, attribute) of every ``Hook(...)`` in the benchmark tracer's ``HOOKS`` table."""
    tree = _parse(ROOT / "bench" / "tracing.py")
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Hook":
            module, attr = (ast.literal_eval(a) for a in node.args[1:3])
            targets.add((module.removeprefix("ovlab."), attr))
    return targets


def test_every_exported_function_has_a_production_caller():
    trees = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    acceptance = _imports(_parse(ROOT / "tests" / "test_acceptance.py"))
    hooks = _hook_targets()
    unused = []
    for module, tree in trees.items():
        for name in _exported_functions(tree):
            if (module, name) in acceptance or (module, name) in hooks:
                continue
            definition = next(
                n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name
            )
            if name in _references(tree, skip=definition):
                continue
            importers = [
                other for m, other in trees.items()
                if m != module and (module, name) in _imports(other)
            ]
            if any(name in _references(other) for other in importers):
                continue
            unused.append(f"{module}.{name}")
    assert not unused, f"exported functions with no caller in src/ovlab: {unused}"


def test_every_public_method_and_property_is_read():
    trees = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    outside = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    read = {name: _references(tree) for name, tree in trees.items()}
    read_outside = set().union(*(_references(_parse(p)) for p in outside))
    unread = []
    for module, tree in trees.items():
        read_elsewhere = read_outside.union(*(r for m, r in read.items() if m != module))
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                if member.name not in read_elsewhere and member.name not in _references(tree, skip=member):
                    unread.append(f"{module}.{cls.name}.{member.name}")
    assert not unread, f"public methods and properties nothing in src/ovlab, the acceptance suite or bench reads: {unread}"


def _package_imports(tree: ast.Module) -> list[ast.ImportFrom]:
    """Every ``from .<module> import ...`` or ``from ovlab.<module> import ...`` in ``tree``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "ovlab")
    ]


def test_the_package_root_binds_no_name_of_another_module():
    tree = _parse(PACKAGE / "__init__.py")
    imported = [alias.name for node in _package_imports(tree) for alias in node.names]
    imported += [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.split(".")[0] == "ovlab"
    ]
    assert not imported, f"ovlab/__init__.py re-exports {imported}; import them from their modules"


def test_every_name_in_all_is_defined_in_its_module():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        foreign += [f"{path.stem}.{name}" for name in _all(tree) if name not in defined]
    assert not foreign, f"names exported by a module that does not define them: {foreign}"


def test_no_module_imports_a_private_name_of_another():
    private = [
        f"{path.stem} imports {node.module}.{alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _package_imports(_parse(path))
        for alias in node.names if alias.name.startswith("_")
    ]
    assert not private, f"private names imported across modules: {private}"


# The one production record builder, by (module, function): the prep, for its labeller's input.
PROPOSAL_READERS = {("trainer", "prepare_discovery")}
RECORDS = ("proposal_records",)  # the ``SynthImage`` members that build records


def _owners(tree: ast.Module) -> dict[ast.AST, str]:
    """The name of the innermost function that holds each node (walk order is outer first, so inner wins)."""
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {child: f.name for f in functions for child in ast.walk(f)}


def test_only_the_per_image_record_readers_read_proposals():
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        owner = _owners(tree)
        builders = {child for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "SynthImage"
                    for child in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in RECORDS and isinstance(node.ctx, ast.Load):
                if node not in builders and (path.stem, owner.get(node)) not in PROPOSAL_READERS:
                    readers.append(f"{path.stem}.{owner.get(node, '<module>')} (line {node.lineno})")
    assert not readers, f"reads of {RECORDS} outside {sorted(PROPOSAL_READERS)}: {readers}"


# The one production caller of the background filter, by (module, function): the prep's per-image pass.
FILTER_CALLERS = {("trainer", "filtered_background")}


def test_only_the_prep_filters_the_background():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        owner = _owners(tree)
        callers |= {(path.stem, owner.get(node, "<module>")) for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and "filter_background_proposals" in (getattr(node.func, k, None) for k in ("id", "attr"))}
    assert callers == FILTER_CALLERS, f"filter_background_proposals is called by {sorted(callers)}"


FORBIDDEN_NAMES = {"Box", "OracleInfo", "background_proposals"}  # defined, imported or read anywhere
FORBIDDEN_ATTRIBUTES = {"oracle", "oracles", "proposals"}  # read as an attribute


def test_no_module_defines_a_box_or_reads_background_proposals():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            names = {getattr(node, key, None) for key in ("id", "name", "asname", "attr")} & FORBIDDEN_NAMES
            names |= {getattr(node, "attr", None)} & FORBIDDEN_ATTRIBUTES
            found += [f"{path.stem} line {getattr(node, 'lineno', '?')}: {name}" for name in names]
    assert not found, (f"a box is a row of a float array, an image holds no background records, and a proposal's "
                       f"oracle lives only in its image's columns: {found}")
