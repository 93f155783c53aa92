"""No code that nothing calls: every public name in src/ has a caller there.

The census parses every module of ``src/heckelab`` with ``ast``.  A public
function, class or method (a name without a leading underscore) counts as
called when its identifier occurs in src/, as a name, an attribute or an
imported name, anywhere outside its own definition.  Tests, demos and the
benchmark do not count as callers, except that the names the benchmark's
tracer reports or patches (``REPORTED``, ``KERNEL`` and ``METHODS`` in
``bench/tracer.py``) are exempt, since the tracer needs them to exist.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckelab"
TRACER = ROOT / "bench" / "tracer.py"

DEFS = (ast.FunctionDef, ast.ClassDef)


def references(node) -> Counter:
    """Identifier occurrences under ``node``: names, attributes, imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
    return out


def public_definitions(module: str, tree: ast.Module):
    """(qualified name, node) of the public module-level functions and
    classes of ``tree``, and of the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, DEFS) and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub


def uncalled(sources: dict[str, str]) -> set[str]:
    """Qualified public names of ``sources`` (module -> text) whose identifier
    occurs nowhere in the sources outside the name's own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((references(tree) for tree in trees.values()), Counter())
    return {qual for module, tree in trees.items()
            for qual, node in public_definitions(module, tree)
            if total[node.name] == references(node)[node.name]}


def tracer_names() -> set[str]:
    """The names ``bench/tracer.py`` reports or patches, read from its source:
    the keys of ``REPORTED`` and ``METHODS``, the entries of ``KERNEL``, and
    ``module.Class.method`` for each patched method."""
    values = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("REPORTED", "KERNEL", "METHODS"):
                values[node.targets[0].id] = ast.literal_eval(node.value)
    names = set(values["REPORTED"]) | set(values["KERNEL"]) | set(values["METHODS"])
    return names | {".".join(target) for target in values["METHODS"].values()}


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_census_rule():
    sources = {
        "a": "def used():\n    pass\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\n"
             "def _private():\n    pass\n\n"
             "class Shape:\n"
             "    def area(self):\n        return self.side\n"
             "    def side(self):\n        return 1\n"
             "    def __len__(self):\n        return 0\n",
        "b": "from .a import used\n\nused()\nx = Shape\n",
    }
    assert uncalled(sources) == {"a.recursive", "a.Shape.area"}


def test_tracer_names_are_read_from_the_tracer():
    names = tracer_names()
    assert {"theta.theta_raw", "parabolic.stability", "rational.polymat_mul",
            "rational.PolyMat2.__mul__"} <= names


def test_every_public_name_has_a_caller_in_src():
    missing = sorted(uncalled(package_sources()) - tracer_names())
    assert not missing, f"public names that nothing in src/ calls: {missing}"
