"""Every public definition in ``src/repro`` is reached by a program.

A public top-level function or class, or a public method of a top-level
class, counts as used when its name appears elsewhere in ``src/repro``
outside the definition's own body — as an AST ``Name`` or ``Attribute``,
or in an import in a non-``__init__`` module — or as a word anywhere in
``benchmarks/`` or ``examples/``.  The last rule keeps alive the names
``benchmarks/e2e/spans.py`` wraps by string.  ``__init__.py`` re-exports
and ``__all__`` entries do not count: a definition only tests reach is
deleted together with its tests rather than exported.

The match is by bare name, so it can only miss dead code, never flag
live code.  ``ALLOWED`` lists the few definitions tests reach on purpose.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src" / "repro"
PROGRAM_DIRS = (REPO_ROOT / "benchmarks", REPO_ROOT / "examples")

ALLOWED = {
    "repro.core.cutoff.max_radius_satisfying":
        "bisection reference that exact_max_radius is checked against",
    "repro.core.cutoff.exact_max_radius":
        "per-point form the region-batched radius solver is checked against",
    "repro.geometry.projection.angular_radius":
        "the paper's angular-size formula for the section 4.2 invariant test",
    "repro.telemetry.export.validate_chrome_trace":
        "schema oracle for the Chrome-trace exporter",
    "repro.fleet.arrivals.ArrivalTrace.to_text":
        "other half of the arrival-trace parser round-trip",
    "repro.trace.recorder.load_traces":
        "reads back what examples/user_study_replay.py writes",
    "repro.telemetry.tracer.SpanTracer.instants":
        "accessor tests use to read a live tracer's instant events",
    "repro.session.supervisor.MembershipSummary.fingerprint":
        "accessor tests use to compare two runs' membership histories",
    "repro.session.membership.EpochLog.fingerprint":
        "accessor tests use to compare two runs' epoch logs",
    "repro.core.cache.FrameCache.speculative_count":
        "accessor tests use to read a live cache's speculative entries",
    "repro.render.rasterizer.Layer.coverage":
        "accessor tests use to read a rendered layer's mask fill",
}

Span = Tuple[Path, int, int]


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(path: Path, tree: ast.Module) -> Iterator[Tuple[str, str, Span]]:
    """Yield (qualified name, bare name, source span) of each public definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    module = _module_name(path)
    for node in tree.body:
        if not isinstance(node, kinds) or not _is_public(node.name):
            continue
        yield f"{module}.{node.name}", node.name, (path, node.lineno, node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]) and _is_public(member.name):
                    yield (
                        f"{module}.{node.name}.{member.name}",
                        member.name,
                        (path, member.lineno, member.end_lineno),
                    )


def _uses(path: Path, tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """Yield (name, line) of each use; imports in ``__init__`` are re-exports."""
    reexports = path.name == "__init__.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and not reexports:
            for alias in node.names:
                yield alias.name, node.lineno


def unreached_definitions() -> List[str]:
    """Qualified names of public ``src/repro`` definitions no program uses."""
    program_words: Set[str] = set()
    for directory in PROGRAM_DIRS:
        for path in directory.rglob("*.py"):
            program_words.update(re.findall(r"\w+", path.read_text()))
    definitions: List[Tuple[str, str, Span]] = []
    uses: Dict[str, List[Tuple[Path, int]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions.extend(_definitions(path, tree))
        for name, line in _uses(path, tree):
            uses.setdefault(name, []).append((path, line))
    unreached = []
    for qualname, name, (path, first, last) in definitions:
        if name in program_words:
            continue
        outside = [
            (where, line) for where, line in uses.get(name, ())
            if where != path or not first <= line <= last
        ]
        if not outside:
            unreached.append(qualname)
    return sorted(unreached)


def test_every_public_definition_is_reached():
    unexpected = [name for name in unreached_definitions() if name not in ALLOWED]
    assert unexpected == [], (
        "public definitions only tests reach; delete them with their tests, "
        f"or add them to ALLOWED with a reason: {unexpected}"
    )


def test_allow_list_has_no_stale_entries():
    stale = sorted(set(ALLOWED) - set(unreached_definitions()))
    assert stale == [], f"now reached or gone; drop from ALLOWED: {stale}"
