"""Every field of a ``*Config`` dataclass in ``src/repro`` is set by a program.

A field counts as set when a program file (a non-test ``.py`` under
``src/repro``, ``benchmarks/`` or ``examples/``) passes its name as a
keyword to the class, to ``cls(...)`` in the class body, or to
``replace(...)``.  A field no program sets has one value in use and belongs
in a module constant.  Matching is by bare name, so it can only miss an
unset field.  ``ALLOWED`` is shrink-only: an entry naming a missing field,
or a field a program now sets, fails.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src" / "repro"
PROGRAM_DIRS = (SRC, REPO_ROOT / "benchmarks", REPO_ROOT / "examples")

_GOLDEN = "tests/systems/test_loop_golden.py rows set it; removing re-records a pin"
_E2E = "benchmarks/e2e/workloads.py reads it and that directory is frozen"
_DEBT = "known debt: no program sets it (see ROADMAP)"

ALLOWED = {
    **dict.fromkeys(("SessionConfig.device", "SessionConfig.codec_crf"), _E2E),
    **dict.fromkeys((
        "SessionConfig.prefetch_deadline_ms", "SessionConfig.fetch_timeout_ms",
        "SessionConfig.fetch_max_retries", "SessionConfig.fetch_backoff_cap_ms",
        "SupervisorConfig.warmup_fetches",
    ), _GOLDEN),
    **dict.fromkeys((
        "RenderConfig.view_limit", "RenderConfig.fog_distance",
        "RenderConfig.min_angular_radius", "RenderConfig.ground_texture_scale",
        "RenderConfig.sky_luminance", "RenderConfig.ground_luminance",
        "RenderConfig.fog_luminance", "RenderConfig.object_texture_freq",
        "CutoffSchemeConfig.agreement_ratio", "CutoffSchemeConfig.agreement_abs",
        "CutoffSchemeConfig.min_region_m", "CutoffSchemeConfig.max_radius",
        "CutoffSchemeConfig.radius_tolerance", "FleetConfig.stride_ms",
        "FleetConfig.spacing_m", "FleetConfig.dispatch_overhead_ms",
    ), _DEBT),
    "RenderConfig.indoor": _DEBT + "; indoor games render a cloudy sky",
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
    """Field names of every ``*Config`` dataclass in ``src/repro``, by class."""
    fields = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, ast.ClassDef) and node.name.endswith("Config")
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
