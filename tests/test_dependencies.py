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

The same scan also requires every module under ``src/repro`` to be
import-reachable from an entry point, so that no whole module goes
dead.  That check runs once per module, as the docstring coverage
does, so a dead module fails under its own name.
"""

import ast
import functools
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "tools", "examples")
# What a user or CI runs: every file under these directories, the three
# ``python -m`` CLIs and the chaos smoke.
ENTRY_DIRS = ("examples", "tools", "benchmarks")
ENTRY_MODULES = (
    "repro.experiments.__main__",
    "repro.profiler.__main__",
    "repro.obs.__main__",
    "repro.serving.chaos",
)
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


def module_files(src: Path) -> dict[str, Path]:
    """Dotted name of every module under ``src`` (a package by the name
    of its ``__init__.py``'s folder) -> its file."""
    files = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def import_statements(path: Path) -> list[tuple[str, dict[str, str]]]:
    """``(module, {bound name: imported name})`` of every absolute
    import in ``path``; ``import a.b`` reads ``("a.b", {})``."""
    statements = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            statements += [(alias.name, {}) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            statements.append((node.module, {
                alias.asname or alias.name: alias.name
                for alias in node.names
            }))
    return statements


def reachable_modules(src: Path, entry_files: list[Path],
                      entry_modules: tuple[str, ...]) -> set[str]:
    """Modules under ``src`` that the entry points import, transitively.

    ``import a.b`` reaches ``a.b`` (a package with all it imports).  A
    ``from pkg import name`` reaches the submodule ``pkg.name`` if there
    is one; else it follows ``pkg/__init__.py``'s re-export of ``name``
    to the module that defines it, and only that one.
    """
    files = module_files(src)
    statements = {name: import_statements(path) for name, path in files.items()}

    def defining_module(module: str, name: str) -> str:
        if f"{module}.{name}" in files:
            return f"{module}.{name}"
        if files[module].name == "__init__.py":
            for source, bound in statements[module]:
                if name in bound and source in files:
                    return defining_module(source, bound[name])
        return module

    reached: set[str] = set()
    followed: set[str] = set()

    def follow(imports: list[tuple[str, dict[str, str]]]) -> None:
        for module, bound in imports:
            if module not in files:
                continue
            targets = [defining_module(module, name) for name in bound.values()]
            for target in targets or [module]:
                reached.add(target)
                whole = not bound or files[target].name != "__init__.py"
                if whole and target not in followed:
                    followed.add(target)
                    follow(statements[target])

    for path in entry_files:
        follow(import_statements(path))
    follow([(module, {}) for module in entry_modules])
    return reached


SRC_MODULES = sorted(
    name for name, path in module_files(REPO / "src").items()
    if path.name not in ("__init__.py", "__main__.py")
)


@functools.cache
def entry_reachable() -> frozenset[str]:
    """The ``src/`` modules the entry points reach, scanned once."""
    entry_files = [
        path for root in ENTRY_DIRS for path in sorted((REPO / root).rglob("*.py"))
    ]
    return frozenset(
        reachable_modules(REPO / "src", entry_files, ENTRY_MODULES)
    )


@pytest.mark.parametrize("module", SRC_MODULES)
def test_src_module_is_reachable_from_an_entry_point(module):
    assert module in entry_reachable(), (
        f"no entry point imports {module}"
    )


def test_a_re_exported_name_reaches_only_its_module(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from pkg.used import name as alias\nfrom pkg.unused import other\n"
    )
    (package / "used.py").write_text("import pkg.deep\nname = 1\n")
    (package / "deep.py").write_text("")
    (package / "unused.py").write_text("other = 2\n")
    entry = tmp_path / "entry.py"
    entry.write_text("def main():\n    from pkg import alias\n")
    assert reachable_modules(tmp_path, [entry], ()) == {"pkg.used", "pkg.deep"}
