"""Trial code closures: the modules each registered trial can reach.

The engine's replay cache keys trial results by a code version hashed from
the source files a trial's behaviour depends on
(:func:`repro.analysis.code_version.code_version_for`).  This module derives
that file set from the tree, so nothing has to be declared by hand:

* :class:`ImportGraph` -- module -> imported project modules, from the parsed
  import tables (``TYPE_CHECKING`` imports excluded: they never execute;
  function-local imports included: a lazy import still runs the module);
* :func:`trial_declarations` -- every ``@register_trial(...)`` decorated
  function in the tree;
* :func:`trial_closure` -- the modules a trial can actually reach: the names
  referenced in its body (resolved through same-module helpers, so a trial
  calling a private ``_instance`` helper inherits that helper's imports),
  expanded transitively through the import graph, plus the ancestor package
  ``__init__`` of every reached module (importing a submodule runs them);
* :func:`trial_closures` -- every trial's closure at once, over a project
  parsed whole or, keeping only import tables, by
  :func:`load_import_tables`.

Import edges *into* a trial-defining module are never followed: those
modules import every solver, and the engine's lazy registry lookups would
otherwise connect each trial to every other trial's code.  A trial's own
module is scanned by name instead (see :func:`trial_closure`).  See
``docs/lint.md`` for the full soundness boundary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from repro.lint.walker import ModuleContext, ProjectContext, dotted_name, iter_modules

__all__ = [
    "ImportGraph",
    "TrialDeclaration",
    "build_import_graph",
    "trial_declarations",
    "trial_closure",
    "trial_closures",
    "load_import_tables",
    "is_register_trial_decorator",
]


@dataclass
class ImportGraph:
    """Directed module -> module edges within one project."""

    edges: dict[str, set[str]]

    def closure(
        self, seeds: Iterable[str], skip_edges_of: frozenset[str] = frozenset()
    ) -> set[str]:
        """Transitive closure of *seeds*; ``skip_edges_of`` members are kept
        in the closure but their outgoing edges are not followed."""
        reached: set[str] = set()
        stack = list(seeds)
        while stack:
            module = stack.pop()
            if module in reached:
                continue
            reached.add(module)
            if module in skip_edges_of:
                continue
            stack.extend(self.edges.get(module, ()) - reached)
        return reached


def build_import_graph(
    project: ProjectContext, never_enter: frozenset[str] = frozenset()
) -> ImportGraph:
    """Resolve every executable import to a project module and build the graph.

    Edges into *never_enter* modules are dropped.
    """
    edges: dict[str, set[str]] = {}
    for name, ctx in project.modules.items():
        targets = edges.setdefault(name, set())
        for binding in ctx.imports:
            if binding.type_checking:
                continue
            resolved = project.resolve_import(binding)
            if resolved is not None and resolved != name and resolved not in never_enter:
                targets.add(resolved)
    return ImportGraph(edges)


def is_register_trial_decorator(decorator: ast.expr) -> bool:
    """True for ``@register_trial(...)`` (bare or attribute-qualified)."""
    if not isinstance(decorator, ast.Call):
        return False
    name = dotted_name(decorator.func)
    return name is not None and name.split(".")[-1] == "register_trial"


@dataclass
class TrialDeclaration:
    """One ``@register_trial(...)`` site, statically extracted."""

    trial: str
    function: str
    module: str


def _module_trials(ctx: ModuleContext) -> list[TrialDeclaration]:
    declarations: list[TrialDeclaration] = []
    for stmt in ctx.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in stmt.decorator_list:
            if (
                is_register_trial_decorator(decorator)
                and decorator.args
                and isinstance(decorator.args[0], ast.Constant)
                and isinstance(decorator.args[0].value, str)
            ):
                declarations.append(
                    TrialDeclaration(decorator.args[0].value, stmt.name, ctx.name)
                )
    return declarations


def trial_declarations(project: ProjectContext) -> list[TrialDeclaration]:
    """Every ``@register_trial``-decorated function in the project."""
    return [
        declaration
        for _, ctx in sorted(project.modules.items())
        for declaration in _module_trials(ctx)
    ]


def _module_level_definitions(ctx: ModuleContext) -> dict[str, ast.AST]:
    """Top-level name -> defining node (functions, classes, assignments)."""
    definitions: dict[str, ast.AST] = {}
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            definitions[stmt.name] = stmt
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    definitions[target.id] = stmt
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            definitions[stmt.target.id] = stmt
    return definitions


def _referenced_names(node: ast.AST, skip_decorators: bool) -> set[str]:
    names: set[str] = set()
    if skip_decorators and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        roots: list[ast.AST] = [*node.args.defaults, *node.args.kw_defaults, *node.body]
        roots = [root for root in roots if root is not None]
    else:
        roots = [node]
    for root in roots:
        for sub in ast.walk(root):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
    return names


def trial_closure(
    project: ProjectContext,
    graph: ImportGraph,
    declaration: TrialDeclaration,
) -> set[str]:
    """The project modules *declaration*'s trial function can reach.

    Seeds are the defining module plus every import binding the trial body
    references, chased recursively through same-module helper definitions;
    the seeds are then expanded through the import graph, and every reached
    module's ancestor packages are added (their ``__init__`` runs on import,
    but their own imports are not followed).  Decorators are excluded from
    the trial function's own scan (they run at registration time, not per
    trial) but helper definitions are scanned whole.
    """
    ctx = project.modules[declaration.module]
    definitions = _module_level_definitions(ctx)
    trial_node = definitions.get(declaration.function)
    bindings = {
        binding.local: binding
        for binding in ctx.imports
        if not binding.type_checking
    }

    seen_definitions: set[str] = set()
    seeds: set[str] = {declaration.module}
    pending: list[tuple[ast.AST, bool]] = []
    if trial_node is not None:
        pending.append((trial_node, True))
    while pending:
        node, skip_decorators = pending.pop()
        for name in _referenced_names(node, skip_decorators):
            if name in bindings:
                resolved = project.resolve_import(bindings[name])
                if resolved is not None:
                    seeds.add(resolved)
            elif name in definitions and name not in seen_definitions:
                if name == declaration.function:
                    continue
                seen_definitions.add(name)
                pending.append((definitions[name], False))
    reached = graph.closure(seeds, skip_edges_of=frozenset({declaration.module}))
    ancestors = {
        module.rsplit(".", depth)[0]
        for module in reached
        for depth in range(1, module.count(".") + 1)
    }
    return reached | (ancestors & project.modules.keys())


def trial_closures(project: ProjectContext) -> dict[str, set[str]]:
    """Trial name -> :func:`trial_closure` for every trial in *project*.

    Import edges into trial-defining modules are dropped, so no closure
    enters another trial's module through a lazy registry lookup.
    """
    declarations = trial_declarations(project)
    graph = build_import_graph(
        project, never_enter=frozenset(d.module for d in declarations)
    )
    return {d.trial: trial_closure(project, graph, d) for d in declarations}


_EMPTY_MODULE = ast.Module(body=[], type_ignores=[])


def load_import_tables(package_dir: Path, package: str = "repro") -> ProjectContext:
    """:func:`~repro.lint.walker.load_project`, keeping only what
    :func:`trial_closures` reads.

    A module that defines no trial is reduced to its name and import table
    as soon as it is parsed, so only the trial-defining modules' ASTs stay
    alive instead of the whole tree's.
    """
    modules: dict[str, ModuleContext] = {}
    for ctx in iter_modules(package_dir, package):
        if not _module_trials(ctx):
            ctx = replace(ctx, source="", tree=_EMPTY_MODULE, lines=[])
        modules[ctx.name] = ctx
    return ProjectContext(package=package, modules=modules)
