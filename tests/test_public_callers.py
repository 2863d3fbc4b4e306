"""Every public name of the library has a caller that is not a test: each
name in the ``__all__`` of ``core``, ``bounds``, ``oracle``,
``experiments`` and ``fileio`` is referenced in ``src/recalib/`` or
``perfbench/`` outside its own definition, or it is on ``AWAITING``, the
names whose caller a ROADMAP item plans."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("core", "bounds", "oracle", "experiments", "fileio")

# Public name -> the ROADMAP item that gives it a caller (or removes it).
AWAITING = {
    "loglog_slope": "1",
    "exact_shift_weights": "2",
    "ratio_beta": "2",
    "balance_alpha": "3",
    "approx_epsilon": "3",
    "chernoff_sample_requirement": "7",
    "hstar": "2 or 20",
}


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def public_names() -> set[str]:
    names = set()
    for module in MODULES:
        for node in parse(os.path.join(ROOT, "src", "recalib", module + ".py")).body:
            if defined_name(node) == "__all__":
                names.update(ast.literal_eval(node.value))
    return names


def defined_name(node: ast.stmt) -> str | None:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


def referenced(names: set[str]) -> set[str]:
    """The names read as a name or an attribute in ``src/recalib/`` or
    ``perfbench/``, outside the top-level statement that defines them. In
    ``perfbench/`` a string counts too, by its first dotted part, since its
    tracer binds the functions it wraps by their attribute paths."""
    found = set()
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "recalib", "*.py")))
    bench = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    for path in paths + bench:
        for top in parse(path).body:
            own = defined_name(top)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif path in bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value.split(".")[0]
                else:
                    continue
                if name in names and name != own:
                    found.add(name)
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    names = public_names()
    callers = referenced(names)
    assert set(AWAITING) <= names, f"listed but not public: {sorted(set(AWAITING) - names)}"
    # A new public name that only the tests reach fails here ...
    uncalled = sorted(names - callers - set(AWAITING))
    assert not uncalled, f"public names that only the tests reach: {uncalled}"
    # ... and so does a listed name that gained a caller, so the list stays exact.
    called = sorted(callers & set(AWAITING))
    assert not called, f"listed names that have a caller now: {called}"
