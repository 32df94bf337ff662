"""Documentation completeness: every public item carries a docstring,
and every CLI flag a document shows is one the parser accepts.

A release-quality library documents its public surface; this test walks
every ``repro`` module and asserts modules, public classes, and public
functions/methods all have docstrings.
"""

import argparse
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser

SKIP_MEMBER_NAMES = {
    # dataclass-generated or trivially inherited members
    "__init__",
    "__post_init__",
}


def iter_repro_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # entry-point shim
        yield importlib.import_module(info.name)


ALL_MODULES = list(iter_repro_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"module {module.__name__} lacks a docstring"
    )


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        if not (member.__doc__ and member.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(member):
            for method_name, method in vars(member).items():
                if method_name.startswith("_") or method_name in SKIP_MEMBER_NAMES:
                    continue
                if not inspect.isfunction(method):
                    continue
                if not (method.__doc__ and method.__doc__.strip()):
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{module.__name__}: undocumented public items: {undocumented}"
    )


REPO_ROOT = Path(__file__).parent.parent
CLI_DOCUMENTS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
)


def documented_cli_flags(text, subcommands):
    """Every ``(subcommand, --flag)`` a document shows on a ``repro``
    command line: from ``repro <sub>`` to the end of the inline code span
    or line, continuing over ``\\``-ended lines and over following lines
    that start with ``--`` (the folded commands of the CI workflow)."""
    found = set()
    lines = [line.rstrip() for line in text.splitlines()]
    command = re.compile(r"\brepro (%s)\b([^`|;]*)" % "|".join(subcommands))
    for number, line in enumerate(lines):
        for match in command.finditer(line):
            extent = match.group(2)
            rest = number + 1
            while match.end() == len(line) and rest < len(lines) and (
                extent.endswith("\\") or lines[rest].lstrip().startswith("--")
            ):
                extent = extent.rstrip("\\") + " " + lines[rest].strip()
                rest += 1
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", extent):
                found.add((match.group(1), flag))
    return found


def test_documented_cli_flags_exist():
    """A flag a document or the CI workflow passes to ``repro <sub>`` is a
    flag that subcommand's parser accepts — deleting a flag while a
    command line somewhere still names it fails here."""
    subparsers = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    stale, seen = [], 0
    for name in CLI_DOCUMENTS:
        flags = documented_cli_flags((REPO_ROOT / name).read_text(), subparsers)
        seen += len(flags)
        stale += [
            f"{name}: repro {sub} {flag}" for sub, flag in sorted(flags)
            if flag not in subparsers[sub]._option_string_actions
        ]
    assert seen > 20, "the scan found almost no documented command lines"
    assert not stale, stale
