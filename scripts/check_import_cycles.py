#!/usr/bin/env python
"""Layering lint: fail CI when a module imports against the layer order.

The architecture (docs/architecture.md) is a DAG:

    graph (view/store/partition) → walks → core → pipeline → cli
                                     ↑________tasks/community/viz

``repro.graph.store`` / ``repro.graph.partition`` may depend on the
graph core and on ``repro.resilience`` (integrity records), but never on
``repro.walks`` or ``repro.pipeline`` — the out-of-core substrate must
stay consumable by every engine above it.

Every rule applies to *module-level* imports only
(``import x`` / ``from x import y`` at the top of the file, outside
``if TYPE_CHECKING:`` blocks). Function-local imports are exempt by
design — that is how ``walks.engine.generate_walks`` and
``core.trainer.train_embeddings`` resolve their ``ExecutionContext``
(``repro.pipeline.context``) without a cycle.

1. ``repro.pipeline`` must not import ``repro.cli`` — the pipeline is a
   library layer; the CLI sits on top of it.
2. ``repro.core``, ``repro.walks``, and ``repro.parallel`` must not
   import ``repro.pipeline`` — the engines sit *below* the runtime that
   orchestrates them.
3. Nothing under ``repro`` imports ``repro.cli`` at module level.

Two rules keep start-up lean (see "Start-up" in docs/PERFORMANCE.md):

4. A package ``__init__.py`` imports no ``repro.*`` module except the
   lazy-export helper ``repro._lazy``. Its public names load on first
   access, so ``import repro`` loads neither numpy nor scipy.
5. Only ``repro.ml.spectral`` imports ``scipy`` at module level;
   anything else that needs it imports it inside the function. The
   trainer's and k-means' sparse products call scipy's compiled kernels,
   which ``repro.core._math`` loads by file path (falling back to a
   function-local ``scipy.sparse`` import), so walks, training and
   k-means never load a ``scipy`` module.

One rule keeps the telemetry hub at the bottom of the stack:

6. ``repro.obs`` imports no ``repro.resilience``, ``repro.pipeline``,
   ``repro.core`` or ``repro.walks`` at module level. Those layers all
   report through ``repro.obs``; the few upward calls the hub needs
   (atomic writes of the manifest and the live status file, asking
   ``lifecycle.run_outcome`` how the run ended) import inside the function.

Run from the repo root: ``python scripts/check_import_cycles.py``.
Exits 1 with one line per violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (package prefix of the importing module, forbidden import prefix, why)
RULES = [
    (
        "repro.pipeline",
        "repro.cli",
        "the pipeline layer must not depend on the CLI",
    ),
    (
        "repro.core",
        "repro.pipeline",
        "engines sit below the pipeline runtime (use function-local imports)",
    ),
    (
        "repro.walks",
        "repro.pipeline",
        "engines sit below the pipeline runtime (use function-local imports)",
    ),
    (
        "repro.parallel",
        "repro.pipeline",
        "engines sit below the pipeline runtime (use function-local imports)",
    ),
    (
        "repro.graph.store",
        "repro.walks",
        "the graph store is substrate; walk engines consume it, never the reverse",
    ),
    (
        "repro.graph.store",
        "repro.pipeline",
        "the graph store is substrate; the pipeline runtime sits far above it",
    ),
    (
        "repro.graph.partition",
        "repro.walks",
        "partitioning is substrate; walk engines consume it, never the reverse",
    ),
    (
        "repro.graph.partition",
        "repro.pipeline",
        "partitioning is substrate; the pipeline runtime sits far above it",
    ),
    (
        "repro.graph",
        "repro.community",
        "graph is the bottom layer; community algorithms build on it "
        "(partition's label-propagation hook is a function-local import)",
    ),
    (
        "repro.obs",
        "repro.resilience",
        "telemetry sits below every layer that reports through it",
    ),
    (
        "repro.obs",
        "repro.pipeline",
        "telemetry sits below every layer that reports through it",
    ),
    (
        "repro.obs",
        "repro.core",
        "telemetry sits below every layer that reports through it",
    ),
    (
        "repro.obs",
        "repro.walks",
        "telemetry sits below every layer that reports through it",
    ),
    (
        "repro",
        "repro.cli",
        "repro.cli is the top of the stack; no library module may import it",
    ),
]


def module_name(path: Path) -> str:
    rel = path.relative_to(SRC).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_type_checking_guard(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(lineno, imported module) pairs for top-level imports, skipping
    ``if TYPE_CHECKING:`` bodies (annotations don't create runtime deps)."""
    found: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.If) and _is_type_checking_guard(node):
            continue
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.append((node.lineno, node.module))
    return found


def _in_layer(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


# Entry points whose whole job is to invoke the CLI.
EXEMPT = {"repro.__main__"}

#: The one repro module a package ``__init__`` may import (rule 4).
LAZY_HELPER = "repro._lazy"

#: The modules that may import scipy at module level (rule 5).
SCIPY_MODULES = {"repro.ml.spectral"}


def violation(path: Path, mod: str, imported: str) -> str | None:
    """Why ``mod`` may not import ``imported`` at module level, if it may not."""
    if (
        path.name == "__init__.py"
        and _in_layer(imported, "repro")
        and imported != LAZY_HELPER
    ):
        return "a package __init__ loads its submodules lazily (repro._lazy)"
    if _in_layer(imported, "scipy") and mod not in SCIPY_MODULES:
        return "scipy loads at module level only in " + ", ".join(
            sorted(SCIPY_MODULES)
        )
    for layer, forbidden, why in RULES:
        if _in_layer(mod, layer) and _in_layer(imported, forbidden):
            return why
    return None


def check() -> list[str]:
    violations: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        mod = module_name(path)
        if mod in EXEMPT:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, imported in module_level_imports(tree):
            why = violation(path, mod, imported)
            if why is not None:
                violations.append(
                    f"{path.relative_to(SRC.parent)}:{lineno}: "
                    f"{mod} imports {imported} ({why})"
                )
    return violations


def main() -> int:
    violations = check()
    for line in violations:
        print(line, file=sys.stderr)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("import layering OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
