"""Every public name in ``src/repro`` is reached by a program path, and
every defaulted public parameter is set by one.

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

The same holds one level down.  A defaulted parameter of a public
function, method or explicit ``__init__`` is a setting; when no program
call selects it, it is a constant in disguise.  A call sets a parameter
by keyword, by position (a ``*`` argument sets every position from there
on), through ``**`` (every parameter), through ``functools.partial``, or
through ``super().__init__`` / ``Base.__init__``.  Calls resolve by the
callee's last name (import aliases followed), so every same-named
function or method counts as the callee; a keyword passed to a callee
that resolves to no definition (a dict dispatch, ``getattr``, a local
variable) counts for every parameter of that name.  Dataclass fields are
parameter cards, not call settings, and are not checked.  The few
parameters no program call sets that stay on purpose are listed in
:data:`PARAMETERS`, each with its reason.
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


PARAMETERS = {
    # Inputs of the ORACLES names: the tests drive the oracles with them.
    "estimate_search_energy.p_row_discharge": "oracle input: discharge probability",
    "estimate_search_energy.sl_activity": "oracle input: search-line toggle rate",
    "worst_case_margin.pulldown_vt_offset": "oracle input: the MC sample's pull-down offset",
    "worst_case_margin.leak_scale": "oracle input: the MC sample's leakage factor",
    "build_reference_chip.design": "oracle input: the fabric's design",
    "LKParams.from_material.switch_time_2x": "oracle input (landau.py)",
    "LandauKhalatnikov.p_initial": "oracle input (landau.py)",
    "LandauKhalatnikov.quasi_static_loop.n_points": "oracle input (landau.py)",
    "LandauKhalatnikov.quasi_static_loop.settle_steps": "oracle input (landau.py)",
    "LandauKhalatnikov.switching_time.dt": "oracle input (landau.py)",
    "LandauKhalatnikov.switching_time.t_max": "oracle input (landau.py)",
    # Seams the tests use to substitute a fake or a non-default card.
    "JsonLinesSink.stream": "test seam: an in-memory stream instead of a file",
    "FeCAMCell.params": "test seam: the cell-contract tests vary window and sigma",
    "SEEMCAMCell.params": "test seam: the cell-contract tests vary bits and sigma",
    # Set through indirection the scan cannot follow.
    "evaluate_point.tables": "run_dse calls it as evaluate(point, tables=...) on a partial",
    "TCAMChip.search_batch.idle_time": (
        "batch form of TCAMChip.search(idle_time), which energy_per_search_at_rate "
        "sets; one validator and one _search_block path serve both"
    ),
}


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _signature(fn: ast.FunctionDef, is_method: bool) -> tuple[list[str], set[str]]:
    """Positional parameter names (``self`` dropped) and defaulted names."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if is_method and not any(_callee(d) == "staticmethod" for d in fn.decorator_list):
        positional = positional[1:]
    defaulted = set(positional[len(positional) - len(args.defaults):] if args.defaults else ())
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    return positional, defaulted


@cache
def _parameter_scan() -> dict[str, bool]:
    """Map every public defaulted parameter to whether a program call sets it."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _program_files()}
    # name -> [(qual, positional, defaulted, public)]; a class name maps to
    # its constructor (its own or the first base's explicit __init__).
    defs: dict[str, list[tuple[str, list[str], set[str], bool]]] = {}
    classes: dict[str, ast.ClassDef] = {}
    public_classes: set[str] = set()
    for path, tree in trees.items():
        in_src = path.is_relative_to(ROOT / "src")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            public = in_src and not node.name.startswith("_")
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append((node.name, *_signature(node, False), public))
                continue
            classes[node.name] = node
            if public:
                public_classes.add(node.name)
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and sub.name != "__init__":
                    qual = f"{node.name}.{sub.name}"
                    pub = public and not sub.name.startswith("_")
                    defs.setdefault(sub.name, []).append((qual, *_signature(sub, True), pub))

    def constructor(name: str) -> tuple[str, list[str], set[str], bool]:
        cls = classes[name]
        for sub in cls.body:
            if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                return (name, *_signature(sub, True), name in public_classes)
        for base in cls.bases:
            if _callee(base) in classes:
                return constructor(_callee(base))
        return (name, [], set(), False)  # a dataclass card or a plain class

    for name in classes:
        defs.setdefault(name, []).append(constructor(name))

    set_by: dict[str, set[str]] = {}
    unresolved: set[str] = set()

    def apply(targets, args, keywords) -> None:
        for qual, positional, defaulted, _ in targets:
            hit = set_by.setdefault(qual, set())
            for i, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    hit.update(positional[i:])
                    break
                if i < len(positional):
                    hit.add(positional[i])
            for kw in keywords:
                hit.update(defaulted if kw.arg is None else {kw.arg})

    class Calls(ast.NodeVisitor):
        def __init__(self, aliases: dict[str, str]) -> None:
            self.aliases = aliases
            self.classes: list[ast.ClassDef] = []

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.classes.append(node)
            self.generic_visit(node)
            self.classes.pop()

        def visit_Call(self, node: ast.Call) -> None:
            self.generic_visit(node)
            name = _callee(node.func)
            name = self.aliases.get(name, name)
            args = node.args
            if name == "partial" and args and _callee(args[0]) in defs:
                apply(defs[_callee(args[0])], args[1:], node.keywords)
                return
            if name == "cls" and self.classes:
                name = self.classes[-1].name
            if name == "__init__" and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if isinstance(owner, ast.Call) and _callee(owner.func) == "super":
                    bases = [_callee(b) for b in self.classes[-1].bases]
                else:
                    bases, args = [_callee(owner)], args[1:]
                for base in bases:
                    if base in classes:
                        apply([constructor(base)], args, node.keywords)
                return
            if name in defs:
                apply(defs[name], args, node.keywords)
            else:
                unresolved.update(kw.arg for kw in node.keywords if kw.arg)

    for tree in trees.values():
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.asname
        }
        Calls(aliases).visit(tree)

    settings = {}
    for targets in defs.values():
        for qual, _, defaulted, public in targets:
            if public:
                for param in defaulted:
                    key = f"{qual}.{param}"
                    settings[key] = param in set_by.get(qual, ()) or param in unresolved
    return settings


def test_every_defaulted_parameter_is_set():
    settings = _parameter_scan()
    unset = sorted(k for k, is_set in settings.items() if not is_set and k not in PARAMETERS)
    assert not unset, (
        f"defaulted public parameters no program call sets: {unset}; make each a "
        "constant, or list it in PARAMETERS with its reason"
    )


def test_parameters_list_is_current():
    settings = _parameter_scan()
    stale = sorted(k for k in PARAMETERS if settings.get(k, True))
    assert not stale, f"PARAMETERS entries now gone or set by a program call: {stale}"
