"""The package surface: `__all__` names every public name, and each one is bound;
the package's sigma record divides out the int rows of `symfuncs`; the
elimination oracle imports nothing of the code it checks, and the
test-only references import only it and `field`; only `field` and the
oracle lift a row over its denominators; the exact lanes never import
numpy; no module builds an object around its constructor."""

import ast
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import reference
import vandersolve
from vandersolve import oracle, symfuncs


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from vandersolve import *", namespace)  # a stale export raises here
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(set(vandersolve.__all__))
    public = {name for name, value in vars(vandersolve).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(vandersolve.__all__)


def test_package_sigma_record_holds_the_divided_rows():
    nodes = vandersolve.NodeSet((Fraction(1, 2), Fraction(-2, 3), 5, Fraction(7, 4)))
    table = vandersolve.deflate_all(vandersolve.compute_sigma(nodes))
    assert table.coeffs == symfuncs.compute_sigma(nodes.pairs)
    assert table.sigma == tuple(map(Fraction, ("1", "79/12", "175/24", "-89/24", "-35/12")))
    assert len(table.deflated) == 4
    assert table.deflated[2] == tuple(map(Fraction, ("1", "19/12", "-5/8", "-7/12")))


def _imports(module) -> tuple:
    """(relative, absolute) module names that the module's source imports."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = "." * node.level
            relative |= ({base + node.module} if node.module
                         else {base + alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute |= {alias.name for alias in node.names}
    return relative, absolute


def _non_stdlib(names) -> set:
    return {name for name in names if name.partition(".")[0] not in sys.stdlib_module_names}


def test_oracle_imports_only_the_standard_library():
    relative, absolute = _imports(oracle)
    assert relative == set()
    assert _non_stdlib(absolute) == set()


def _lcm_over_denominators(path: Path) -> bool:
    """Whether the source calls `lcm` on an expression that reads `.denominator`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "lcm" and any(isinstance(sub, ast.Attribute) and sub.attr == "denominator"
                                 for sub in ast.walk(node)):
            return True
    return False


def test_only_field_and_oracle_lift_rows_over_their_denominators():
    # `field.over_common_denominator` is the package's one integer lift; the
    # oracle keeps its own copy, since it imports nothing of the package
    package = Path(vandersolve.__file__).parent
    lifting = {path.name for path in package.glob("*.py") if _lcm_over_denominators(path)}
    assert lifting == {"field.py", "oracle.py"}


def _bypassed_constructors(path: Path) -> list:
    """Lines of the source that reach `object.__new__` or store into a `__dict__`."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "__new__" \
                and getattr(node.value, "id", None) == "object":
            lines.append(node.lineno)
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) \
                and getattr(node.value, "attr", None) == "__dict__":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and getattr(node.func.value, "attr", None) == "__dict__":
            lines.append(node.lineno)  # __dict__.update(...) and the like
    return lines


def test_objects_are_built_only_by_their_constructors():
    # a NodeSet has one construction path, the validating one, and its
    # pairs are only ever formed from its own nodes
    package = Path(vandersolve.__file__).parent
    found = {path.name: lines for path in sorted(package.glob("*.py"))
             if (lines := _bypassed_constructors(path))}
    assert found == {}


def test_reference_imports_only_the_standard_library_field_and_oracle():
    relative, absolute = _imports(reference)
    assert relative == set()
    assert _non_stdlib(absolute) <= {"vandersolve.field", "vandersolve.oracle"}


def test_exact_lanes_never_import_numpy():
    # a fresh interpreter: numpy's import is a large share of a CLI run's start-up
    env = {**os.environ, "PYTHONPATH": str(Path(vandersolve.__file__).resolve().parents[1])}
    script = ("import sys, vandersolve, vandersolve.cli; "
              "code = vandersolve.cli.main(['interpolate', '--nodes=1,2,3', '--values=1,4,9', "
              "'--verify']); "
              "print('numpy' in sys.modules); sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "False"
