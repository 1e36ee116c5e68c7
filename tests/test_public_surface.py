"""Every public name in ``src/repro`` is reached by a program path.

A program path is any module under ``src/repro``, ``benchmarks`` or
``examples``.  The check parses them with :mod:`ast` and collects every
public (non-underscore) module-level function and class, and every public
method of a module-level class.  A name counts as reached when a program
module mentions it: as a name, an attribute, an import outside a package
``__init__`` (re-exports are not uses), or a literal ``getattr`` /
``hasattr`` attribute.

Tests are not program paths: a helper that only tests call is dead
surface.  The few names no program path reaches that stay on purpose are
listed in :data:`ORACLES`, each with its reason: a test oracle the
program is compared against, or public API that README documents.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src/repro", "benchmarks", "examples")

ORACLES = {
    # Oracles: references the tests compare the program against.
    "ideal_discharge_delay": "closed-form ML delay the RK4 match line is checked against",
    "nominal_write_energy": "analytic FeFET write energy the pulse model is checked against",
    "worst_case_margin": "scalar margin the stacked margin Monte-Carlo must equal",
    "estimate_search_energy": "analytic.py: first-order energy model the array cross-validates against",
    "relative_error": "analytic.py: the cross-validation's error measure",
    "LandauKhalatnikov": "landau.py: LK dynamics that cross-validate the Preisach model",
    "from_material": "landau.py: builds LK parameters from the shared material card",
    "force": "landau.py: LK driving force",
    "transient": "landau.py: LK pulse response",
    "quasi_static_loop": "landau.py: LK hysteresis loop",
    "Hysteron": "scalar hysteron rule PreisachModel.apply_field must equal per domain",
    "build_reference_chip": "the unsharded chip the fabric merge must equal",
    "request_energy": "per-request ledger the serve engine's booking must equal",
    "threshold_match": "tcam.reference oracle and TCAMArray API (README)",
    "topk_match": "tcam.reference oracle and TCAMArray API (README)",
    "pack_keys": "bit-packing the packed-key kernel tests compare against",
    "drive_vector": "per-column SL drive the kernel's drive classes are checked against",
    "nand_sl_drive": "NAND SL drive the NAND array's drive classes are checked against",
    "weighted_distance": "per-row distance the weighted array's distance search must equal",
    # Public API that README documents.
    "classify_tcam_batch": "README: RuleSet batch classification",
    "classify_batch": "README: HDCMemory batch classification",
    "Sweep": "README: parameter sweeps",
    "word_from_string": "README: a word from its text form",
    "fractions": "README: EnergyLedger per-component shares",
    "queued": "README: ServeEngine queue-depth read",
    "disable": "README: obs session switch-off",
    "is_enabled": "README: obs session state read",
}


def _program_files() -> list[Path]:
    return [p for d in PROGRAM_DIRS for p in sorted((ROOT / d).rglob("*.py"))]


def _public_defs(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(
                    sub.name
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    return {n for n in names if not n.startswith("_")}


def _references(tree: ast.Module, is_init: bool) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not is_init:
            refs.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            refs.add(node.args[1].value)
    return refs


@cache
def _scan() -> tuple[frozenset[str], frozenset[str]]:
    defined: set[str] = set()
    referenced: set[str] = set()
    for path in _program_files():
        tree = ast.parse(path.read_text(), str(path))
        if path.is_relative_to(ROOT / "src"):
            defined |= _public_defs(tree)
        referenced |= _references(tree, path.name == "__init__.py")
    return frozenset(defined), frozenset(referenced)


def test_every_public_name_is_reached():
    defined, referenced = _scan()
    unreached = sorted(defined - referenced - ORACLES.keys())
    assert not unreached, (
        f"public names no program path reaches: {unreached}; delete them, "
        "or list a test oracle or README-documented API in ORACLES with its reason"
    )


def test_oracles_list_is_current():
    defined, referenced = _scan()
    stale = sorted(n for n in ORACLES if n not in defined or n in referenced)
    assert not stale, f"ORACLES entries now gone or reached by a program path: {stale}"
