"""Every definition in ``src/repro`` needs a caller outside ``tests/``.

The paper's artifact is one pipeline (characterization, Tables 3/4,
PaCRAM parameters, Fig. 16-19); code that only tests reach feeds none of
it.  This lint parses the package and flags every function, class or
method (dunders skipped) whose name nothing uses.  A use is:

* an ``ast.Name`` or ``ast.Attribute`` in ``src/``, package ``__init__``
  bodies included (import aliases are not names, so a re-export is no
  use, and neither is an ``__all__`` entry);
* the same in ``benchmarks/``, ``examples/``, ``flowbench/`` or
  ``scripts/``, plus any ``from ... import name`` there;
* a ``"module:qualname"`` string literal (how the benchmark tracer names
  its targets), or a literal ``getattr``/``hasattr`` attribute name.

Docstrings never count.  Names match on their last component, so the scan
under-reports: a method sharing its name with a used one passes.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "examples", "flowbench", "scripts")

_TARGET = re.compile(r"repro(\.\w+)*:[\w.]+")

#: ``module:qualname`` -> why it may stay without a caller outside tests.
ALLOWED = {
    # §8.2/§8.4 claim checks; a paper-conformance registry should call them.
    "repro.core.area:access_latency_hidden":
        "§8.4 claim: the FR lookup hides under the ACT latency",
    "repro.core.area:fr_area_fraction_of_controller":
        "§8.4 claim: FR storage against the controller's area",
    "repro.core.fr_bitvector:FRBitVector.storage_bits":
        "§8.4 claim: one SRAM bit per row",
    "repro.core.security:worst_case_attack":
        "§8.2 claim: the worst-case attacker the N_RH scaling defeats",
    "repro.core.security:secure_configuration":
        "§8.2 claim: the scaled N_RH that keeps a mitigation secure",
    "repro.core.security:AttackOutcome.defended":
        "§8.2 claim: the verdict of a worst-case attack",
    # Test seams.
    "repro.exec.policy:reset_default_policy":
        "conftest restores the default policy between tests",
    "repro.sim.controller:MemoryController.advance_to":
        "the simulator property test drives the scalar controller by hand",
    "repro.sim.controller:MemoryController.pending_requests":
        "the simulator property test drives the scalar controller by hand",
    "repro.dram.mapping:RowMapping.physical_distance":
        "tests check that resolved neighbors sit at the claimed distance",
    "repro.sim.stats:LatencyAccumulator.distinct":
        "tests check that the latency histogram stays compact",
    "repro.sim.system:SimulationResult.total_instructions":
        "tests check that a run retires its whole trace",
    "repro.exec.parity:assert_all_parity":
        "kernel parity tests compare whole event streams with it",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _definitions(body: list[ast.stmt], prefix: str = ""):
    """``(qualname, name)`` of every function and class under ``body``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualname = prefix + node.name
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qualname, node.name
            yield from _definitions(node.body, qualname + ".")


def _docstrings(tree: ast.Module) -> set[int]:
    """Ids of the docstring constants in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _uses(tree: ast.Module, *, imports_count: bool) -> set[str]:
    """The names ``tree`` uses, by the rules of the module docstring."""
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and imports_count:
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings
              and _TARGET.fullmatch(node.value)):
            names.update(node.value.split(":", 1)[1].split("."))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            names.add(node.args[1].value)
    return names


def _scan() -> tuple[dict[str, str], set[str]]:
    """Every package definition (``module:qualname`` -> name), and every
    name used outside ``tests/``."""
    definitions: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = _module_name(path)
        for qualname, name in _definitions(tree.body):
            definitions[f"{module}:{qualname}"] = name
        used |= _uses(tree, imports_count=False)
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            used |= _uses(tree, imports_count=True)
    return definitions, used


def _unreached() -> list[str]:
    definitions, used = _scan()
    return sorted(target for target, name in definitions.items()
                  if name not in used)


def test_every_definition_has_a_caller_outside_tests():
    unreached = [target for target in _unreached() if target not in ALLOWED]
    assert not unreached, (
        "only tests reach these definitions; delete them with their tests, "
        "or call them from the pipeline:\n  " + "\n  ".join(unreached))


def test_allowlist_names_only_unreached_definitions():
    stale = sorted(set(ALLOWED) - set(_unreached()))
    assert not stale, (
        "these allowlisted definitions are gone or now have a caller; "
        "drop them from ALLOWED:\n  " + "\n  ".join(stale))
