"""The public surface: every name a layer exports is read somewhere in
the package, the demos or the benchmark, or is reserved for the
ROADMAP item that will read it."""

import ast
import pathlib

from bohrlab import harness, opmat, radii, series, zoo

ROOT = pathlib.Path(__file__).resolve().parent.parent

# exported names without a reader yet, each with its ROADMAP item
RESERVED = {"abs_op": 7, "haar_unitary": 8, "replay": 5}


def _read_names() -> set:
    """Every name read in src/bohrlab, demos and perfbench: as a Name or
    an Attribute in load context, or as an imported name."""
    read = set()
    for folder in ("src/bohrlab", "demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name)
    return read


def test_every_public_name_has_a_reader():
    read = _read_names()
    exported = {name for module in (opmat, series, zoo, radii, harness) for name in module.__all__}
    unread = sorted(exported - read - set(RESERVED))
    assert not unread, f"exported but never read: {unread}; give each a reader or delete it"
    # a reserved name stays exported and unread until its item lands
    assert set(RESERVED) <= exported - read
