"""No code that nothing calls, and no option that no caller sets.

The name census parses every module of ``src/heckelab`` with ``ast``.  A public
module-level function or class ``M.f`` (a name without a leading underscore)
counts as called through a reference that resolves to it: a bare ``f`` in M
outside its own definition, ``alias.f`` in a module that does ``from . import
M [as alias]``, or a ``from .M import f [as g]``.  A public method counts as
called when its identifier occurs in src/, as a name, an attribute or an
imported name, anywhere outside its own definition.  Tests, demos and the
benchmark do not count as callers, except that the names the benchmark's
tracer reports or patches (``REPORTED``, ``KERNEL`` and ``METHODS`` in
``bench/tracer.py``) are exempt, since the tracer needs them to exist.

The options census (``unset_options``) flags every parameter or dataclass
field with a default that no call in src/ sets to another value, so that
a tolerance, gap or rate that every caller leaves alone is a constant, not
a setting tests would have to cover.  It compares source text, not
values: ``rank_one_column_spaces(m, rank_tol=RANK_TOL)`` against a
``PROJ_TOL`` default passed the same 1e-8 under another name, which the
census cannot see; those ``rank_tol`` parameters were removed by hand.

The flag census (``declared_flags``) does for the command line what the
options census does for parameters.  The options census cannot see flags,
since it allowlists ``cli.main(argv)``: argv comes from outside the
program.  So every flag ``cli.main`` declares must occur in a ``hecke-lab``
command of CI's console step, except ``--out``, a path and not a setting.

The record census (``field_stores``) holds the rule for the per-element
records of ``RECORDS``, which suites build by the thousand.  They are
slotted dataclasses and not frozen, since ``frozen`` costs an
``object.__setattr__`` per field and per instance; those compared by field
are unhashable.  What ``frozen`` checked at run time is checked here from
the source: nothing in src/ stores to a record field name except
``self.<field> = ...`` in the ``__post_init__`` of a record that declares
the field.  ``torus.Lattice`` stays frozen and hashable, since it keys the
per-tau caches, and ``cli.RunConfig`` stays frozen; it is built once per run.
"""

import ast
import dataclasses
from collections import Counter, namedtuple
from pathlib import Path

import numpy as np
import pytest

from heckelab import cli, elliptic as ell, parabolic as par, rational as rat
from heckelab.projective import ProjPoint
from heckelab.torus import CurvePoint, Lattice

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckelab"
TRACER = ROOT / "bench" / "tracer.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

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


def resolved(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of each module-level name that a relative import
    reaches: ``from .M import f [as g]``, or ``alias.f`` after ``from .
    import M [as alias]``."""
    out = set()
    for tree in trees.values():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        out.add((node.module, a.name))
        out |= {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases}
    return out


def bare_names(node) -> Counter:
    return Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))


def uncalled(sources: dict[str, str]) -> set[str]:
    """Qualified public names of ``sources`` (module -> text) that nothing
    calls: a module-level name with no bare use in its module outside its
    own definition and no ``resolved`` reference, and a method whose
    identifier occurs nowhere in the sources outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((references(tree) for tree in trees.values()), Counter())
    reached = resolved(trees)
    out = set()
    for module, tree in trees.items():
        names = bare_names(tree)
        for qual, node in public_definitions(module, tree):
            if node not in tree.body:
                if total[node.name] == references(node)[node.name]:
                    out.add(qual)
            elif names[node.name] == bare_names(node)[node.name] and (module, node.name) not in reached:
                out.add(qual)
    return out


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
             "def f():\n    pass\n\n"
             "class Shape:\n"
             "    def area(self):\n        return self.side\n"
             "    def side(self):\n        return 1\n"
             "    def __len__(self):\n        return 0\n\n"
             "shape = Shape\n",
        "b": "from .a import used\n\nused()\n\ndef f():\n    pass\n",
        "c": "from . import b as mod\n\nmod.f()\n",
    }
    # c calls only b.f; the identifier alone would count a.f as called too.
    assert uncalled(sources) == {"a.recursive", "a.f", "a.Shape.area"}


def test_tracer_names_are_read_from_the_tracer():
    names = tracer_names()
    assert {"theta.theta_raw", "parabolic.stability", "rational.polymat_mul",
            "rational.PolyMat2.__mul__"} <= names


def test_every_public_name_has_a_caller_in_src():
    missing = sorted(uncalled(package_sources()) - tracer_names())
    assert not missing, f"public names that nothing in src/ calls: {missing}"


# --- Options census -------------------------------------------------------

#: Parameters and fields with a default that src/ never sets, each kept on
#: purpose.
OPTIONS_ALLOWED = {
    # The console-script entry: argv comes from outside the program.
    "cli.main(argv)",
    # An accumulator that each report fills, not a setting.
    "cli.Report.records",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in node.decorator_list)


#: A parameter or dataclass field with a default: the name calls use to
#: reach it, its positional index (None if keyword-only) and the default's
#: source text.
Option = namedtuple("Option", "label call_name param index default")


class _Options(ast.NodeVisitor):
    """Collects the options of one module by label, and its calls with the
    qualified name of the function each one is in (None at module or class
    level)."""

    def __init__(self, module, options, calls):
        self.module, self.options, self.calls = module, options, calls
        self.scope: list[str] = []
        self.function: list[str | None] = [None]

    def visit_ClassDef(self, node):
        if _is_dataclass(node):
            fields = [s for s in node.body
                      if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            for i, s in enumerate(fields):
                if s.value is not None:
                    label = ".".join([self.module, *self.scope, node.name, s.target.id])
                    self.options[label] = Option(label, node.name, s.target.id, i, ast.unparse(s.value))
        self.scope.append(node.name)
        self.function.append(None)
        self.generic_visit(node)
        self.scope.pop()
        self.function.pop()

    def visit_FunctionDef(self, node):
        qual = ".".join([self.module, *self.scope, node.name])
        in_class = self.function[-1] is None and bool(self.scope)
        positional = node.args.posonlyargs + node.args.args
        if in_class and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        call_name = self.scope[-1] if in_class and node.name == "__init__" else node.name
        pairs = [(a, d, i) for i, (a, d) in enumerate(
            zip(positional[len(positional) - len(node.args.defaults):], node.args.defaults),
            start=len(positional) - len(node.args.defaults))]
        pairs += [(a, d, None) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                  if d is not None]
        for arg, default, index in pairs:
            label = f"{qual}({arg.arg})"
            self.options[label] = Option(label, call_name, arg.arg, index, ast.unparse(default))
        self.scope.append(node.name)
        self.function.append(qual)
        self.generic_visit(node)
        self.scope.pop()
        self.function.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        self.calls.append((node, self.function[-1]))
        self.generic_visit(node)


def unset_options(sources: dict[str, str]) -> tuple[set[str], int]:
    """The options of ``sources`` (module -> text) that no call sets, and
    the count of all options.

    An option is a function or method parameter with a default, or a
    dataclass field with a default.  Calls are matched by name: ``f(...)``
    and ``x.f(...)`` may call every function or method named ``f``, and
    ``C(...)`` the ``__init__`` or the dataclass fields of every class
    ``C``.  Arguments match by keyword or by position, ``self`` and ``cls``
    not counted; a starred argument may set every later positional option
    and a ``**`` argument every option.  An option is set when some call
    passes it an expression whose source text differs from the default's,
    except that an argument that is a parameter of the enclosing function,
    passed straight through, sets it only if that parameter is set itself
    (a parameter without a default always is).  This runs to a fixed point.
    """
    options: dict[str, Option] = {}
    calls: list = []
    for module, text in sources.items():
        _Options(module, options, calls).visit(ast.parse(text))
    by_name: dict[str, list[Option]] = {}
    for option in options.values():
        by_name.setdefault(option.call_name, []).append(option)
    # The options of each function, as "function.parameter", for pass-through.
    own = {label.partition("(")[0] + "." + option.param: label
           for label, option in options.items() if label.endswith(")")}

    edges: list[tuple[str | None, str]] = []  # (needed option or None, option set)
    for call, enclosing in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        for label, _, param, index, default in by_name.get(name, ()):
            given = [kw.value for kw in call.keywords if kw.arg == param]
            if any(kw.arg is None for kw in call.keywords):
                given.append(None)
            if index is not None:
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred) and i <= index:
                        given.append(None)
                        break
                    if i == index:
                        given.append(arg)
            for arg in given:
                if arg is not None and ast.unparse(arg) == default:
                    continue
                needed = None
                if isinstance(arg, ast.Name) and enclosing is not None:
                    needed = own.get(f"{enclosing}.{arg.id}")
                edges.append((needed, label))
    is_set: set[str] = set()
    while True:
        grown = {label for needed, label in edges if needed is None or needed in is_set}
        if grown <= is_set:
            return set(options) - is_set, len(options)
        is_set |= grown


def test_options_census_rule():
    sources = {
        "a": "from dataclasses import dataclass, field\n\n"
             "def f(x, tol=1e-8, rate=0.5, *, gap=0.3):\n    return g(x, tol)\n\n"
             "def g(x, tol=1e-8, order=8):\n    return h(x, order)\n\n"
             "def h(x, order=8, mu=0.0):\n    return x\n\n"
             "class Shape:\n"
             "    def __init__(self, side=1.0, scale=2.0):\n        self.side = side\n"
             "    def area(self, unit=1.0):\n        return self.side\n\n"
             "@dataclass\nclass Box:\n    width: float\n    depth: float = 1.0\n"
             "    items: list = field(default_factory=list)\n",
        "b": "from .a import f, g, Shape, Box\n\n"
             "f(1.0, 1e-8, gap=0.1)\n"
             "def k(y, order=8):\n    return g(y, 1e-8, order)\n\n"
             "Shape(3.0).area(unit=2.0)\nBox(1.0, 2.0)\n",
    }
    unset, count = unset_options(sources)
    assert count == 13
    # f.tol passes the default text; g.tol gets f's unset tol straight
    # through; g.order and h.order get k's and g's unset order.
    assert unset == {"a.f(tol)", "a.f(rate)", "a.g(tol)", "a.g(order)", "a.h(order)",
                     "a.h(mu)", "b.k(order)", "a.Shape.__init__(scale)", "a.Box.items"}
    # Once k's order is set, it reaches g and then h.
    sources["b"] += "k(2.0, order=4)\n"
    assert unset_options(sources)[0] == unset - {"b.k(order)", "a.g(order)", "a.h(order)"}


def test_every_option_is_set_somewhere_in_src():
    unset, _ = unset_options(package_sources())
    missing = sorted(unset - OPTIONS_ALLOWED)
    assert not missing, f"defaulted parameters that no call in src/ sets: {missing}"


# --- Flag census ----------------------------------------------------------


def declared_flags() -> set[str]:
    """The ``--`` flags that ``cli.main`` adds to its parser, read from its source."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    return {arg.value for node in ast.walk(main)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
            for arg in node.args if isinstance(arg, ast.Constant) and arg.value.startswith("--")}


def console_lines() -> list[str]:
    """The ``hecke-lab`` command lines of CI's workflow, in order."""
    return [line.strip() for line in WORKFLOW.read_text().splitlines()
            if line.strip().startswith("hecke-lab ")]


def console_flags() -> set[str]:
    """The flags used by the ``hecke-lab`` commands of CI's workflow."""
    return {word for line in console_lines() for word in line.split() if word.startswith("--")}


def test_every_cli_flag_is_used_in_ci():
    declared = declared_flags()
    assert {"--tau", "--seed", "--samples", "--out"} <= declared
    unused = sorted(declared - console_flags() - {"--out"})
    assert not unused, f"flags that no command of CI's console step uses: {unused}"


# --- Record census --------------------------------------------------------

#: The per-element records, by module.
RECORDS = {
    "elliptic": ("LineBundleClass", "Decomposable", "F2Twist", "G2Twist", "MorphismRep", "MarkedBundle",
                 "EllipticSequence"),
    "torus": ("CurvePoint",),
    "parabolic": ("StabilityVerdict", "Mark", "ParabolicBundle"),
    "rational": ("RationalBundle", "RationalSequence"),
}

#: The other dataclasses of src/: the two frozen ones, and a report with its records.
OTHER_DATACLASSES = {"torus.Lattice", "cli.RunConfig", "cli.Record", "cli.Report"}


def field_stores(sources: dict[str, str], records: dict[str, tuple[str, ...]]) -> list[str]:
    """The stores to a field name of ``records`` in ``sources`` (module ->
    text), as ``module:line: target``, except ``self.<field> = ...`` in the
    ``__post_init__`` of a record that declares the field.  A store is an
    attribute target of an assignment, augmented assignment or ``del``, or a
    ``setattr`` or ``object.__setattr__`` call that names the field."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    owners: dict[str, set[str]] = {}  # field name -> the records that declare it
    for module, names in records.items():
        for node in trees[module].body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                        owners.setdefault(sub.target.id, set()).add(node.name)
    out = []

    def walk(node, module, cls, method):
        # cls: the class whose body holds node; method: (class, name) of the method around it.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, child.name, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, module, None, (cls, child.name) if cls else None)
                continue
            name, allowed = None, False
            if isinstance(child, ast.Attribute) and not isinstance(child.ctx, ast.Load):
                name = child.attr
                allowed = (method is not None and method[1] == "__post_init__"
                           and method[0] in owners.get(name, ()) and ast.unparse(child.value) == "self")
            elif (isinstance(child, ast.Call) and ast.unparse(child.func) in ("setattr", "object.__setattr__")
                  and len(child.args) > 1 and isinstance(child.args[1], ast.Constant)):
                name = child.args[1].value
            if name in owners and not allowed:
                out.append(f"{module}:{child.lineno}: {ast.unparse(child)}")
            walk(child, module, cls, method)

    for module, tree in trees.items():
        walk(tree, module, None, None)
    return out


def test_field_store_rule():
    sources = {
        "a": "from dataclasses import dataclass\n\n"
             "@dataclass(slots=True)\nclass Rec:\n    n: int\n    m: int\n\n"
             "    def __post_init__(self):\n        self.n, self.m = self.m, self.n\n"
             "        object.__setattr__(self, 'm', 0)\n\n"
             "    def grow(self):\n        self.n += 1\n\n"
             "class Other:\n    def __post_init__(self):\n        self.n = 0\n        self.k = 0\n\n"
             "def f(r):\n    r.m = 2\n    setattr(r, 'n', 3)\n    del r.n\n    r.k = 4\n",
    }
    assert field_stores(sources, {"a": ("Rec",)}) == [
        "a:10: object.__setattr__(self, 'm', 0)", "a:13: self.n", "a:17: self.n",
        "a:21: r.m", "a:22: setattr(r, 'n', 3)", "a:23: r.n"]


def test_record_fields_are_assigned_only_in_their_post_init():
    stores = field_stores(package_sources(), RECORDS)
    assert not stores, f"stores to record fields outside their own __post_init__: {stores}"


def record_samples() -> list:
    """One instance of each record of ``RECORDS``."""
    lat = Lattice()
    line, q, good = ell.LineBundleClass(0, 0.1 + 0.2j, lat), CurvePoint(0.3 + 0.1j, lat), ProjPoint(1.0, 1.0)
    bundle = ell.dual_pair(0.1 + 0.2j, lat)
    rep = ell.morphism_rep([bundle], [q], [good])[0]
    base, mark = ell.MarkedBundle(bundle, q, good), par.Mark(q, good)
    seq = ell.EllipticSequence(base, (rep,), np.zeros((1, 1, 2, 2)), rep, np.zeros((1, 2, 2)), [good])
    return [line, bundle, ell.F2Twist(line), ell.G2Twist(0.5, line), rep, base, seq, q,
            par.StabilityVerdict(par.Verdict.STABLE, 0), mark, par.ParabolicBundle(bundle, [mark]),
            rat.RationalBundle(0, 0), rat.RationalSequence([0.5], [[1.0, 0.0]])]


def test_records_are_slotted_and_unhashable_when_compared_by_value():
    declared = {f"{module}.{node.name}" for module, text in package_sources().items()
                for node in ast.parse(text).body if isinstance(node, ast.ClassDef) and _is_dataclass(node)}
    listed = {f"{module}.{name}" for module, names in RECORDS.items() for name in names}
    assert declared == listed | OTHER_DATACLASSES
    samples = record_samples()
    assert {f"{type(x).__module__.rpartition('.')[2]}.{type(x).__name__}" for x in samples} == listed
    by_identity = []
    for x in samples:
        assert dataclasses.is_dataclass(x) and not type(x).__dataclass_params__.frozen
        assert not hasattr(x, "__dict__"), type(x).__name__
        if type(x).__eq__ is object.__eq__:
            by_identity.append(type(x).__name__)
            continue
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    # CurvePoint keeps its own __eq__, by distance, and is unhashable too.
    assert by_identity == ["EllipticSequence"]


def test_lattice_and_run_config_stay_frozen():
    lat = Lattice(0.3 + 0.45j)
    assert hash(lat) == hash(Lattice(0.3 + 0.45j)) and not hasattr(lat, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        lat.tau = 1j
    assert cli.RunConfig.__dataclass_params__.frozen
