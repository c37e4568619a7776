"""The production package holds production code.

Every public top-level function and class of ``src/ovlab`` is reached from
``cli.main``, the one entry point, by a static name walk, or is named in
``UNREACHED`` with the reason it stays; a listed name that is gone or has
become reachable fails too, so the list cannot go stale. Every public
method and property of a class in ``src/ovlab`` must be read by the
package, the acceptance suite or the benchmark. A function only tests call
belongs in the tests (scalar oracles live in ``tests/oracles.py``).

Every name has one home: the package root re-exports nothing, a module's
``__all__`` lists only names it defines, and no module imports another's
private (underscore) name.

Code that reads every proposal reads an image's columns: outside
``SynthImage``, which defines it, only the discovery prep builds records
(``.proposal_records``), and only for the background rows it kept; nothing
but ``SynthImage`` constructs a ``Proposal``. Pseudo-labels and training
batches are arrays: no module defines, imports or reads a ``ProposalBatch``,
``proposal_blocks`` or ``PseudoLabel``. Only
``trainer.filtered_background`` calls ``filter_background_proposals``, so a
prep filters each image once and the labeller filters nothing. A box is
a row of a float array: no module defines a ``Box``, and nothing reads an
image's ``background_proposals``. A proposal's hidden category lives only in
its image's ``label`` and ``source`` columns: no module defines an
``OracleInfo`` or reads an ``.oracle``, ``.oracles`` or ``.proposals``.
The discovery prep is one function, ``trainer.prepare_background``: no
module defines or calls a ``prepare_discovery``. A vocabulary's blocks are
read from its ``block_indices``: no ``underlying_slice`` or
``sub_background_index`` alias. The ablation runner takes the ``ablation``
section: no ``AblationSpec``. Inference scores through one batched
``rectify.inference_probs`` and training through one
``trainer.compute_gradients``: no ``RectifiedScores`` or
``loss_and_gradients``. The loader checks each rule of a dataset line once,
over an image's rows at once: no line-by-line ``_refuse_first_fault`` or
``_check_box``.

A setting's default is written once, in its config section: the functions
in ``NO_DEFAULT`` take each listed parameter from their caller.
"""

import ast
import importlib
import inspect
from functools import reduce
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


# Public names no command reaches that stay, with the reason each stays.
UNREACHED = {
    ("trainer", "loss_final"): "the benchmark tracer hooks it (bench/tracing.py, trainer.loss)",
}


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each name a module's top level binds by ``def``, ``class`` or assignment, with its statement."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, ast.Assign):
            found.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found[node.target.id] = node
    return found


def _package_imports(tree: ast.Module) -> list[ast.ImportFrom]:
    """Every ``from .<module> import ...`` or ``from ovlab.<module> import ...`` in ``tree``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "ovlab")
    ]


def _package_bindings(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Each name bound by ``from .<module> import name`` or ``from ovlab.<module> import name``, to (module, name)."""
    return {alias.asname or alias.name: ((node.module or "").removeprefix("ovlab."), alias.name)
            for node in _package_imports(tree) for alias in node.names}


def _reached_from_main(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of every top-level definition a static walk reaches from ``cli.main``.

    A definition reaches each name its statement reads (a class, all that its
    body reads), found among its module's top-level definitions or its
    package imports. Over-approximate (a local that shadows a top-level name
    counts), so a definition it leaves unreached is one no command can run.
    """
    definitions = {m: _definitions(t) for m, t in trees.items()}
    bindings = {m: _package_bindings(t) for m, t in trees.items()}
    reached, stack = set(), [("cli", "main")]
    while stack:
        module, name = key = stack.pop()
        if key in reached or name not in definitions.get(module, {}):
            continue
        reached.add(key)
        for node in ast.walk(definitions[module][name]):
            if isinstance(node, ast.Name):
                if node.id in definitions[module]:
                    stack.append((module, node.id))
                elif node.id in bindings[module]:
                    stack.append(bindings[module][node.id])
    return reached


def test_every_public_definition_is_reached_from_cli_main():
    trees = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    reached = _reached_from_main(trees)
    public = {(m, node.name) for m, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    unreached = sorted(f"{m}.{n}" for m, n in public - reached - UNREACHED.keys())
    assert not unreached, f"public functions and classes no path from cli.main reaches: {unreached}"
    stale = sorted(f"{m}.{n}" for m, n in UNREACHED if (m, n) not in public or (m, n) in reached)
    assert not stale, f"UNREACHED names that are gone or now reached from cli.main: {stale}"


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
        defined = _definitions(tree)
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
PROPOSAL_READERS = {("trainer", "prepare_background")}
RECORDS = ("proposal_records",)  # the ``SynthImage`` members that build records


def _owners(tree: ast.Module) -> dict[ast.AST, str]:
    """The name of the innermost function that holds each node (walk order is outer first, so inner wins)."""
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {child: f.name for f in functions for child in ast.walk(f)}


def _in_synth_image(tree: ast.Module) -> set[ast.AST]:
    """Every node inside the ``SynthImage`` class, the one home of the record builder."""
    return {child for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "SynthImage"
            for child in ast.walk(cls)}


def test_only_the_per_image_record_readers_read_proposals():
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        owner = _owners(tree)
        builders = _in_synth_image(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in RECORDS and isinstance(node.ctx, ast.Load):
                if node not in builders and (path.stem, owner.get(node)) not in PROPOSAL_READERS:
                    readers.append(f"{path.stem}.{owner.get(node, '<module>')} (line {node.lineno})")
    assert not readers, f"reads of {RECORDS} outside {sorted(PROPOSAL_READERS)}: {readers}"


def test_only_synth_image_constructs_a_proposal():
    builders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        owner = _owners(tree)
        inside = _in_synth_image(tree)
        builders += [f"{path.stem}.{owner.get(node, '<module>')} (line {node.lineno})" for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and node not in inside
                     and "Proposal" in (getattr(node.func, k, None) for k in ("id", "attr"))]
    assert not builders, f"Proposal records built outside SynthImage: {builders}"


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


# Defined, imported or read anywhere.
FORBIDDEN_NAMES = {"Box", "OracleInfo", "background_proposals", "ProposalBatch", "proposal_blocks", "PseudoLabel",
                   "Kind", "CategoryId", "_vocab_cosines", "prepare_discovery", "underlying_slice",
                   "sub_background_index", "AblationSpec", "RectifiedScores", "loss_and_gradients",
                   "_refuse_first_fault", "_check_box"}
FORBIDDEN_ATTRIBUTES = {"oracle", "oracles", "proposals"}  # read as an attribute


def test_no_module_defines_a_box_or_reads_background_proposals():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            names = {getattr(node, key, None) for key in ("id", "name", "asname", "attr")} & FORBIDDEN_NAMES
            names |= {getattr(node, "attr", None)} & FORBIDDEN_ATTRIBUTES
            found += [f"{path.stem} line {getattr(node, 'lineno', '?')}: {name}" for name in names]
    assert not found, (f"a box is a row of a float array, an image holds no background records, a proposal's "
                       f"oracle lives only in its image's columns, pseudo-labels and batches are arrays, a "
                       f"vocabulary's block counts are its only layout (read through block_indices), inference "
                       f"takes its cosines with core.cosine_matrix, prepare_background is the one discovery "
                       f"prep, the ablation takes its config section, inference and training each have one scorer "
                       f"and one objective, and the loader checks each dataset rule once: {found}")


# (module, function, parameter): each parameter a production caller passes from a config section, or, for the
# two distance helpers, computes once for many calls; a default here would be a second definition of it.
NO_DEFAULT = (
    ("losses", "objective_terms", "gamma"),
    ("losses", "objective_terms", "negative_weight"),
    ("losses", "objective_terms", "use_prompts"),
    ("losses", "objective_terms", "use_discovery"),
    ("discovery", "filter_background_proposals", "gt_iou_cut"),
    ("discovery", "filter_background_proposals", "nms_iou"),
    ("discovery", "silhouette_score", "distances"),
    ("discovery", "_sq_dists", "point_sq"),
    ("pseudo", "generate_pseudo_labels", "nms_iou"),
    ("encoder", "init_context_vectors", "ctx_dim"),
    ("encoder", "MockTextEncoder.encode_context_vjp", "forward"),
    ("metrics", "evaluate", "settings"),
    ("metrics", "run_ablation", "train_config"),
)


def test_no_signature_repeats_a_section_default():
    found = []
    for module, function, parameter in NO_DEFAULT:
        fn = reduce(getattr, function.split("."), importlib.import_module(f"ovlab.{module}"))
        param = inspect.signature(fn).parameters.get(parameter)
        if param is None or param.default is not inspect.Parameter.empty:
            found.append(f"{module}.{function}({parameter}): {'missing' if param is None else param.default!r}")
    assert not found, f"parameters that must exist and take no default: {found}"
