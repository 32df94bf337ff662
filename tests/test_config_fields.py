"""Every settable value in ``src/repro`` is set by a program.

Two ratchets over the program files (the non-test ``.py`` files under
``src/repro``, ``benchmarks/`` and ``examples/``):

* **Config fields.**  A field of a ``*Config`` or ``*Budget`` dataclass
  counts as set when a program passes its name as a keyword to the class,
  to ``cls(...)`` in the class body, or to ``replace(...)``.
* **Defaulted parameters.**  A parameter with a default, positional or
  keyword-only, of a function or method counts as passed when a program
  call names it as a keyword or passes enough positional arguments to
  reach it.  A call with ``*args`` or ``**kwargs``, or the callable passed
  as an argument (``fi_kbps_for=pun.expected_bandwidth_kbps``), passes
  every parameter.  A call reaches ``__init__`` through the class name.

A value no program sets has one value in use and belongs in a module
constant.  Matching is by bare name, so it can only miss an unset value.
Each ``ALLOWED`` dict is shrink-only: an entry naming a missing value, or a
value a program now sets, fails.

Run as a script to print the settable-value inventory.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src" / "repro"
PROGRAM_DIRS = (SRC, REPO_ROOT / "benchmarks", REPO_ROOT / "examples")

_GOLDEN = "tests/systems/test_loop_golden.py rows set it; removing re-records a pin"
_E2E = "benchmarks/e2e/workloads.py reads it and that directory is frozen"

ALLOWED = {
    **dict.fromkeys(("SessionConfig.device", "SessionConfig.codec_crf"), _E2E),
    **dict.fromkeys((
        "SessionConfig.prefetch_deadline_ms", "SessionConfig.fetch_timeout_ms",
        "SessionConfig.fetch_max_retries", "SessionConfig.fetch_backoff_cap_ms",
        "SupervisorConfig.warmup_fetches",
    ), _GOLDEN),
    **dict.fromkeys(("RenderConfig.width", "RenderConfig.height"), (
        "tests render at small sizes such as 48x24 for speed; a constant "
        "would render about ten test files at the full 256x128"
    )),
    "RenderConfig.indoor": (
        "known debt: no program sets it, so indoor games render a cloudy sky; "
        "deriving it from the world moves render digests (see ROADMAP)"
    ),
}


_SEAM = "tests pass other values; every program runs the default"

ALLOWED_PARAMS = {
    "Scene.__init__.cell_size": (
        f"{_SEAM}: hypothesis puts objects on the edges of 1 m and 9 m cells, "
        "and one exact rounding case needs 1 m cells"
    ),
    "WorldGrid.count_reachable.sample_size": (
        f"{_SEAM}: odd sample sizes check the batch count, and a larger "
        "sample the estimate's accuracy"
    ),
    "WifiLink.__init__.overhead_ms": (
        f"{_SEAM}: a zero per-transfer overhead keeps the link arithmetic exact"
    ),
    **dict.fromkeys(("SpanTracer.instants.name", "SpanTracer.instants.player"), (
        "the tracer's query filters: tests pick one player's instants by name"
    )),
}


def _program_trees():
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            parts = path.relative_to(REPO_ROOT).parts
            if "tests" not in parts and not path.name.startswith("test_"):
                yield ast.parse(path.read_text(), filename=str(path))


def _name(node: ast.AST):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


@lru_cache(maxsize=None)
def config_fields() -> Dict[str, List[str]]:
    """Field names of every ``*Config`` and ``*Budget`` dataclass in
    ``src/repro``, by class."""
    fields = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Budget"))
                    and any(_name(getattr(d, "func", d)) == "dataclass"
                            for d in node.decorator_list)):
                fields[node.name] = [
                    item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    return fields


def _set_keywords(configs: Set[str]) -> Set[Tuple[str, str]]:
    """(class, keyword) pairs a program passes; class ``*`` is ``replace``."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, ast.ClassDef) and node.name in configs:
            owner = node.name
        if isinstance(node, ast.Call):
            name = _name(node.func)
            target = {"cls": owner, "replace": "*"}.get(name, name)
            if target in configs or target == "*":
                found.update((target, kw.arg) for kw in node.keywords if kw.arg)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for tree in _program_trees():
        visit(tree, "")
    return found


@lru_cache(maxsize=None)
def unset_fields() -> Tuple[str, ...]:
    """``Class.field`` names of config fields no program sets."""
    found = _set_keywords(set(config_fields()))
    return tuple(sorted(
        f"{cls}.{name}"
        for cls, names in config_fields().items()
        for name in names
        if (cls, name) not in found and ("*", name) not in found
    ))


def test_every_config_field_is_set_by_a_program():
    unexpected = [name for name in unset_fields() if name not in ALLOWED]
    assert unexpected == [], (
        "config fields no program sets; make each a module constant, or add "
        f"it to ALLOWED with a reason: {unexpected}"
    )


def test_allow_list_has_no_stale_entries():
    declared = {f"{cls}.{name}" for cls, names in config_fields().items() for name in names}
    missing = sorted(set(ALLOWED) - declared)
    assert missing == [], f"no such config field; drop from ALLOWED: {missing}"
    stale = sorted(set(ALLOWED) - set(unset_fields()))
    assert stale == [], f"a program now sets it; drop from ALLOWED: {stale}"


@lru_cache(maxsize=None)
def defaulted_params() -> Dict[str, Tuple[str, Optional[int]]]:
    """``Owner.function.param`` of every defaulted parameter in ``src/repro``
    -> (the name a call reaches it by, its positional index or None)."""
    params = {}

    def visit(node: ast.AST, prefix: str, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                called = cls if child.name == "__init__" else child.name
                args = child.args
                static = any(_name(d) == "staticmethod" for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0  # self / cls
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], first):
                    params[f"{qualname}.{arg.arg}"] = (called, index - skip)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        params[f"{qualname}.{arg.arg}"] = (called, None)
                visit(child, f"{qualname}.", None)
            else:
                visit(child, prefix, cls)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "", None)
    return params


def _program_calls():
    """(keywords passed per name, most positional arguments per name, names
    every parameter of which a program passes)."""
    keywords: Set[Tuple[str, str]] = set()
    positional: Dict[str, int] = {}
    everything: Set[str] = set()

    def visit(node: ast.AST, owner: Optional[str]) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            name = _name(node.func)
            name = owner if name == "cls" else name
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords
            ):
                everything.add(name)
            keywords.update((name, kw.arg) for kw in node.keywords if kw.arg)
            positional[name] = max(positional.get(name, 0), len(node.args))
            for value in node.args + [kw.value for kw in node.keywords]:
                if isinstance(value, (ast.Name, ast.Attribute)):
                    everything.add(_name(value))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for tree in _program_trees():
        visit(tree, None)
    return keywords, positional, everything


@lru_cache(maxsize=None)
def unset_params() -> Tuple[str, ...]:
    """``Owner.function.param`` names of defaulted parameters no program
    passes."""
    keywords, positional, everything = _program_calls()

    def passed(name: str, param: str, index: Optional[int]) -> bool:
        return (
            name in everything
            or (name, param) in keywords
            or (index is not None and positional.get(name, 0) > index)
        )

    return tuple(sorted(
        key for key, (name, index) in defaulted_params().items()
        if not passed(name, key.rsplit(".", 1)[1], index)
    ))


def test_every_defaulted_parameter_is_passed_by_a_program():
    unexpected = [name for name in unset_params() if name not in ALLOWED_PARAMS]
    assert unexpected == [], (
        "defaulted parameters no program passes; make each a module constant "
        f"(deleting what only other values reached), or add it to ALLOWED_PARAMS "
        f"with a reason: {unexpected}"
    )


def test_param_allow_list_has_no_stale_entries():
    missing = sorted(set(ALLOWED_PARAMS) - set(defaulted_params()))
    assert missing == [], f"no such defaulted parameter; drop from ALLOWED_PARAMS: {missing}"
    stale = sorted(set(ALLOWED_PARAMS) - set(unset_params()))
    assert stale == [], f"a program now passes it; drop from ALLOWED_PARAMS: {stale}"


if __name__ == "__main__":
    fields = sum(len(names) for names in config_fields().values())
    print(f"config fields: {fields}, set by no program: {len(unset_fields())}, "
          f"ALLOWED: {len(ALLOWED)}")
    print(f"defaulted parameters: {len(defaulted_params())}, passed by no program: "
          f"{len(unset_params())}, ALLOWED_PARAMS: {len(ALLOWED_PARAMS)}")
    for name in unset_fields() + unset_params():
        print(f"  {name}: {ALLOWED.get(name) or ALLOWED_PARAMS.get(name) or 'NOT ALLOWED'}")
