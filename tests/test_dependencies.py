"""Every import resolves to something ``pip install -e ".[dev]"`` installs.

Scans each Python file under ``src/``, ``tests/``, ``benchmarks/``,
``tools/`` and ``examples/`` with :mod:`ast`, imports inside functions
included, and requires the top-level name of every absolute import to
be a stdlib module, ``repro``, ``tests``, a module beside the importing
file, or a distribution declared in ``pyproject.toml`` (its name
lowercased, ``-`` and ``.`` read as ``_``). ``pyproject.toml`` is read
with a regex because :mod:`tomllib` needs Python 3.11.
"""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "tools", "examples")
FIRST_PARTY = {"repro", "tests"}


def declared_distributions() -> set[str]:
    """Import names of ``[project]`` dependencies and every extra."""
    text = (REPO / "pyproject.toml").read_text()
    project = re.search(
        r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL
    ).group(1)
    extras = re.search(
        r"^\[project\.optional-dependencies\]$(.*?)(?=^\[|\Z)",
        text,
        re.MULTILINE | re.DOTALL,
    ).group(1)
    lists = re.findall(
        r"^dependencies\s*=\s*\[(.*?)\]", project, re.MULTILINE | re.DOTALL
    )
    lists += re.findall(
        r"^[\w-]+\s*=\s*\[(.*?)\]", extras, re.MULTILINE | re.DOTALL
    )
    names = set()
    for requirement in re.findall(r"\"([^\"]+)\"", "".join(lists)):
        name = re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement).group()
        names.add(re.sub(r"[-.]", "_", name.lower()))
    return names


def imported_names(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def is_sibling(path: Path, name: str) -> bool:
    folder = path.parent
    return (folder / f"{name}.py").exists() or (folder / name).is_dir()


def test_every_import_is_declared():
    allowed = set(sys.stdlib_module_names) | FIRST_PARTY
    allowed |= declared_distributions()
    undeclared = {}
    for root in SCANNED:
        for path in sorted((REPO / root).rglob("*.py")):
            for name in sorted(imported_names(path) - allowed):
                if not is_sibling(path, name):
                    relative = str(path.relative_to(REPO))
                    undeclared.setdefault(name, []).append(relative)
    assert not undeclared, (
        f"imports not declared in pyproject.toml: {undeclared}"
    )


def test_pyproject_declarations_are_read():
    assert {
        "numpy", "pytest", "pytest_benchmark", "hypothesis", "networkx",
    } <= declared_distributions()


def test_imports_inside_functions_count_and_relative_ones_do_not(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import os.path\n"
        "from . import sibling\n"
        "\n"
        "def load():\n"
        "    import networkx as nx\n"
        "    from numpy.linalg import norm\n"
    )
    assert imported_names(path) == {"os", "networkx", "numpy"}


def test_sibling_modules_resolve(tmp_path):
    (tmp_path / "helpers.py").write_text("")
    (tmp_path / "package").mkdir()
    importer = tmp_path / "module.py"
    assert is_sibling(importer, "helpers")
    assert is_sibling(importer, "package")
    assert not is_sibling(importer, "missing")
