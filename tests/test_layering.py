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
