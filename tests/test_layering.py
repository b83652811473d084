"""Import-layering rules, enforced by an ``ast`` walk over ``src/repro``.

Function-level (lazy) imports count: a layer that reaches upward from
inside a function still depends on what it reaches for.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = {
    path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted((SRC / "repro").rglob("*.py"))
}


def imported(tree: ast.AST) -> set[str]:
    """Every absolute module name the tree imports, at any depth."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def importers(package: str, among: str = "repro/") -> list[str]:
    """Modules under ``among`` importing ``package`` or anything below it."""
    return [
        path for path, tree in MODULES.items()
        if path.startswith(among)
        and any(n == package or n.startswith(package + ".") for n in imported(tree))
    ]


def test_the_walk_sees_function_level_imports():
    # worlds.py imports the simulator inside run_world
    assert "repro/worlds.py" in importers("repro.simnet")


def test_only_the_cli_imports_the_experiment_harness():
    outside = [
        path for path in importers("repro.harness")
        if not path.startswith("repro/harness/") and path != "repro/cli.py"
    ]
    assert outside == []


def test_the_engine_knows_no_world():
    assert importers("repro.parallel", among="repro/engine/") == []
    assert importers("repro.mpc", among="repro/engine/") == []


def test_observability_knows_no_world():
    """``repro.obs`` records any program on any world: it names neither
    the parallel program nor the message-passing layer."""
    assert importers("repro.parallel", among="repro/obs/") == []
    assert importers("repro.mpc", among="repro/obs/") == []


def test_spmd_worlds_are_launched_from_one_place():
    """Above the message-passing layer, only ``run_world`` names a
    world's entry point."""
    entries = {"run_spmd_threads", "run_spmd_processes", "run_spmd_sim"}
    exempt = ("repro/mpc/", "repro/simnet/", "repro/harness/")
    callers = [
        path for path, tree in MODULES.items()
        if not path.startswith(exempt) and path != "repro/verify/tolerance.py"
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in entries
            for node in ast.walk(tree)
        )
    ]
    assert callers == ["repro/worlds.py"]


def test_one_module_owns_durability_and_digests():
    """``os.replace`` / ``os.fsync`` / ``hashlib`` — how a document
    becomes durable and identified — are referenced only in
    ``util/docfile.py``, and only it (plus the JSONL *line* reader,
    which reports the line number) catches ``JSONDecodeError``.  A
    seventh hand-rolled on-disk stack fails here."""
    owner = "repro/util/docfile.py"
    primitives = ("os.replace", "os.fsync", "hashlib")

    def referenced(tree: ast.AST) -> set[str]:
        dotted = imported(tree) | {
            f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        }
        return {
            p for p in primitives
            if any(n == p or n.startswith(p + ".") for n in dotted)
        }

    users = {path for path, tree in MODULES.items() if referenced(tree)}
    assert users == {owner}
    assert referenced(MODULES[owner]) == set(primitives)
    catchers = [
        path for path, tree in MODULES.items()
        if any(
            isinstance(node, ast.ExceptHandler) and node.type is not None
            and "JSONDecodeError" in ast.dump(node.type)
            for node in ast.walk(tree)
        )
    ]
    assert catchers == ["repro/obs/record.py", owner]
