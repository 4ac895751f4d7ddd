"""The public surface: every name a layer exports is read somewhere in
the package, the demos or the benchmark, or is reserved for the
ROADMAP item that will read it; and every default a public function or
class offers is overridden by some call there."""

import ast
import inspect
import pathlib

from bohrlab import harness, opmat, radii, series, zoo

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYERS = (opmat, series, zoo, radii, harness)

# exported names without a reader yet, each with its ROADMAP item
RESERVED = {"abs_op": 7, "haar_unitary": 8}

# "function.parameter" defaults that no call sets, each with the reason
# to keep it
UNSET_KEPT = {}


def _trees():
    for folder in ("src/bohrlab", "demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            yield ast.parse(path.read_text(), str(path))


def _read_names() -> set:
    """Every name read in src/bohrlab, demos and perfbench: as a Name or
    an Attribute in load context, or as an imported name."""
    read = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


def test_every_public_name_has_a_reader():
    read = _read_names()
    exported = {name for module in LAYERS for name in module.__all__}
    unread = sorted(exported - read - set(RESERVED))
    assert not unread, f"exported but never read: {unread}; give each a reader or delete it"
    # a reserved name stays exported and unread until its item lands
    assert set(RESERVED) <= exported - read


def _calls() -> dict:
    """For each name called in src/bohrlab, demos and perfbench (f(...)
    or x.f(...)), the arguments of its calls: (positional count, keyword
    names, whether a ** argument passes more); a *args argument counts
    as every position."""
    calls = {}
    for tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args), keywords - {None},
                 None in keywords))
    return calls


def test_every_default_is_set_by_a_caller():
    calls = _calls()
    unset = set()
    for module in LAYERS:
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
                continue
            for index, param in enumerate(inspect.signature(obj).parameters.values()):
                if param.default is inspect.Parameter.empty:
                    continue
                positional = param.kind is not inspect.Parameter.KEYWORD_ONLY
                if not any(positional and index < count or param.name in keywords or spread
                           for count, keywords, spread in calls.get(name, ())):
                    unset.add(f"{name}.{param.name}")
    unexpected = sorted(unset - set(UNSET_KEPT))
    assert not unexpected, (f"defaults no caller sets: {unexpected}; make each a constant, "
                            "or set it where it matters")
    assert set(UNSET_KEPT) <= unset
