"""The package namespace is exactly what its users import from it, and its
modules import only each other's public names.

The README, the demos and the benchmark import some names from
``uamm_lab`` itself; every other name is imported from its module.  These
tests collect those imports, check that each resolves and that
``uamm_lab.__all__`` lists exactly the ones that are not submodules, and run
the README's Quick start.  The structure tests read the package's own
imports from its source: no module takes an underscore name from another,
and each engine module (``uamm``, ``baseline``) holds only its rule, on the
shared ``market`` module, which imports neither engine.
"""

import ast
import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

import uamm_lab

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "uamm_lab"
ENGINES = {"uamm", "baseline"}


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def _top_level_imports(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "uamm_lab" and not node.level:
            names.update(alias.name for alias in node.names)
    return names


def _imported_names() -> dict[str, set[str]]:
    """Each name imported ``from uamm_lab``, with the files importing it."""
    sources = [(path, path.read_text()) for pattern in
               ("perfbench/*.py", "perfbench/tests/*.py", "demos/*.py")
               for path in sorted(ROOT.glob(pattern))]
    sources += [(README, block) for block in _python_blocks(README.read_text())]
    found: dict[str, set[str]] = {}
    for path, source in sources:
        for name in _top_level_imports(source):
            found.setdefault(name, set()).add(path.relative_to(ROOT).as_posix())
    return found


def _is_submodule(name: str) -> bool:
    return importlib.util.find_spec(f"uamm_lab.{name}") is not None


def test_every_imported_name_resolves():
    found = _imported_names()
    assert "SimConfig" in found and "sim" in found
    for name, paths in found.items():
        # what ``from uamm_lab import name`` finds: an attribute, else a submodule
        assert hasattr(uamm_lab, name) or _is_submodule(name), (name, sorted(paths))


def test_all_is_exactly_the_imported_names_that_are_not_submodules():
    names = {n for n in _imported_names() if not _is_submodule(n)}
    assert len(uamm_lab.__all__) == len(set(uamm_lab.__all__))
    assert set(uamm_lab.__all__) == names
    assert all(hasattr(uamm_lab, n) for n in uamm_lab.__all__)


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text.split("## Quick start", 1)[1]
    block = _python_blocks(section)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md (Quick start)", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("19.99000999")  # the figure the README shows


def _package_imports() -> dict[str, list[tuple[str, str]]]:
    """Each module of the package, with the ``(module, name)`` pairs it
    imports from the package's other modules (``name`` is empty for a
    module imported whole)."""
    imports = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = imports[path.stem] = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if not node.level:
                    if module != "uamm_lab" and not module.startswith("uamm_lab."):
                        continue
                    module = module.removeprefix("uamm_lab").lstrip(".")
                if module:
                    found += [(module, alias.name) for alias in node.names]
                else:  # ``from . import sim``: whole modules
                    found += [(alias.name, "") for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(alias.name.removeprefix("uamm_lab."), "")
                          for alias in node.names if alias.name.startswith("uamm_lab.")]
    return imports


def test_no_module_imports_another_modules_private_names():
    private = [f"{module} imports {name} from {source}"
               for module, found in _package_imports().items()
               for source, name in found if name.startswith("_")]
    assert private == []


def _requirement_names(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}


def test_runtime_dependencies_are_exactly_the_third_party_modules_the_package_imports():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"uamm_lab"}
    assert third_party == {"numpy"}
    assert _requirement_names(project["dependencies"]) == third_party
    # the acceptance tests' rank correlation is the one use of scipy
    assert "scipy" in _requirement_names(project["optional-dependencies"]["test"])


def test_each_engine_module_imports_only_the_shared_market():
    imports = _package_imports()
    assert ENGINES | {"market"} <= set(imports)
    for engine in ENGINES:
        assert "market" in {source for source, _ in imports[engine]}, engine
        assert not ENGINES & {source for source, _ in imports[engine]}, engine
    assert not ENGINES & {source for source, _ in imports["market"]}
