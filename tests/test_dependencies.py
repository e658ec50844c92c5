"""Every import resolves to something the install declares.

Scans each Python file under ``src/``, ``tests/``, ``benchmarks/``,
``tools/`` and ``examples/`` with :mod:`ast`, imports inside functions
included, and requires the top-level name of every absolute import to
be a stdlib module, ``repro``, ``tests``, a module beside the importing
file, or a distribution declared in ``pyproject.toml`` (its name
lowercased, ``-`` and ``.`` read as ``_``).  The library under ``src/``
may import only the ``[project]`` dependencies, which a plain
``pip install .`` installs; the other directories may also import the
extras (``pip install -e ".[dev]"``).  ``pyproject.toml`` is read with a
regex because :mod:`tomllib` needs Python 3.11.
"""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "tools", "examples")
FIRST_PARTY = {"repro", "tests"}
# Directories whose imports must resolve without the extras.
RUNTIME_ONLY = {"src"}


def requirement_names(lists: list[str]) -> set[str]:
    """Import names of the quoted requirements in TOML list bodies."""
    names = set()
    for requirement in re.findall(r"\"([^\"]+)\"", "".join(lists)):
        name = re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement).group()
        names.add(re.sub(r"[-.]", "_", name.lower()))
    return names


def declared_distributions() -> tuple[set[str], set[str]]:
    """Import names of the ``[project]`` dependencies, and of every extra."""
    text = (REPO / "pyproject.toml").read_text()
    project = re.search(
        r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL
    ).group(1)
    extras = re.search(
        r"^\[project\.optional-dependencies\]$(.*?)(?=^\[|\Z)",
        text,
        re.MULTILINE | re.DOTALL,
    ).group(1)
    runtime = re.findall(
        r"^dependencies\s*=\s*\[(.*?)\]", project, re.MULTILINE | re.DOTALL
    )
    extra = re.findall(
        r"^[\w-]+\s*=\s*\[(.*?)\]", extras, re.MULTILINE | re.DOTALL
    )
    return requirement_names(runtime), requirement_names(extra)


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


def undeclared_imports(
    root: Path, allowed: set[str]
) -> dict[str, list[str]]:
    """Imports under ``root`` outside ``allowed`` and not siblings.

    Maps each such name to the files importing it, relative to
    ``root``'s parent.
    """
    undeclared: dict[str, list[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for name in sorted(imported_names(path) - allowed):
            if not is_sibling(path, name):
                relative = str(path.relative_to(root.parent))
                undeclared.setdefault(name, []).append(relative)
    return undeclared


def test_every_import_is_declared():
    runtime, extras = declared_distributions()
    base = set(sys.stdlib_module_names) | FIRST_PARTY | runtime
    undeclared = {}
    for root in SCANNED:
        allowed = base if root in RUNTIME_ONLY else base | extras
        for name, paths in undeclared_imports(REPO / root, allowed).items():
            undeclared.setdefault(name, []).extend(paths)
    assert not undeclared, (
        "imports not declared in pyproject.toml (src/ may import only "
        f"[project].dependencies): {undeclared}"
    )


def test_pyproject_declarations_are_read():
    runtime, extras = declared_distributions()
    assert "numpy" in runtime
    assert {"pytest", "pytest_benchmark", "hypothesis"} <= extras
    assert "pytest" not in runtime


def test_an_extra_is_undeclared_for_the_library(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "module.py").write_text(
        "def check():\n    import hypothesis\n"
    )
    runtime, extras = declared_distributions()
    base = set(sys.stdlib_module_names) | runtime
    assert undeclared_imports(tmp_path / "src", base) == {
        "hypothesis": ["src/module.py"]
    }
    assert undeclared_imports(tmp_path / "src", base | extras) == {}


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
