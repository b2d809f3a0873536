"""The package's modules import only from the layers below their own."""

import ast
from pathlib import Path

import normfilt
from test_inputs_cli import _loaded

# lowest layer first; a module may import at module level only from modules before it
ORDER = ("errors", "newton", "monomial", "inputs", "filtration", "analysis", "theorems",
         "reports", "renderers", "cli")


def module_level_imports(tree):
    """Modules named by the relative imports that run when the module is
    imported, `from .x import ...` and `from . import x`; imports inside a
    function run only when it is called and are left out."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def layering_violations(package: Path) -> list[str]:
    out = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        assert path.stem in ORDER, path.stem
        for name in module_level_imports(ast.parse(path.read_text())):
            if ORDER.index(name) >= ORDER.index(path.stem):
                out.append(f"{path.stem} -> {name}")
    return sorted(out)


def test_modules_import_only_lower_layers():
    assert layering_violations(Path(normfilt.__file__).parent) == []


def test_filtration_loads_no_analysis():
    assert _loaded("import normfilt.filtration", {"normfilt.analysis"}) == "[]"


def test_theorems_reads_J_only_through_the_filtration():
    # the checkers read h, the fits and the socle lengths of the powers of J
    # from analysis.Analysis, and never hold or combine an ideal themselves
    path = Path(normfilt.__file__).parent / "theorems.py"
    tree = ast.parse(path.read_text())
    assert set(module_level_imports(tree)) == {"analysis", "filtration"}
    kernel = {"multiply", "intersect", "colength", "ideal_contains", "socle_length",
              "witness_element"}
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    named |= {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)}
    assert named & kernel == set()


def unreferenced_functions(package: Path, module: str) -> list[str]:
    """Public module-level functions of module that no code of the package
    names outside their own definition: as a name, an attribute or an
    imported name. A name listed only as a string (the lazy exports of
    `__init__`) is not a reference."""
    used = []
    own = ast.parse((package / f"{module}.py").read_text())
    for path in sorted(package.glob("*.py")):
        tree = own if path.stem == module else ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.append((path.stem, node.id, node))
            elif isinstance(node, ast.Attribute):
                used.append((path.stem, node.attr, node))
            elif isinstance(node, ast.alias):
                used.append((path.stem, node.name, node))
    out = []
    for fn in own.body:
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
            inside = {id(n) for n in ast.walk(fn)}
            if not any(name == fn.name and not (stem == module and id(n) in inside)
                       for stem, name, n in used):
                out.append(fn.name)
    return out


def test_kernel_functions_have_a_caller_in_the_package():
    # reference code the package no longer calls lives in tests/oracles.py;
    # reports and theorems are left out, as their functions are looked up by name
    package = Path(normfilt.__file__).parent
    for module in ("monomial", "newton", "filtration", "analysis", "inputs"):
        assert unreferenced_functions(package, module) == [], module
