"""Guards on the package source: every module-level private name is read
somewhere in the package besides its own definition, so no helper,
constant or class is kept that nothing uses."""

import ast
import os

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "cliffeph")


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """(name, node) for each module-level function, class or assigned name
    that starts with a single underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if _private(name))


def _reads(tree):
    """(name, line) of each name the module loads, as a bare name or as an
    attribute of another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def _unread(sources):
    """``module:name`` of each private definition in ``sources`` ({module:
    source text}) that no module reads outside the definition itself; a
    function that only calls itself is unread."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = [(module, name, line) for module, tree in trees.items()
             for name, line in _reads(tree)]
    unread = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and (m != module or line not in inside)
                       for m, n, line in reads):
                unread.append("%s:%s" % (module, name))
    return unread


def _package_sources():
    sources = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                sources[fname] = fh.read()
    return sources


def test_every_private_name_is_read():
    assert _unread(_package_sources()) == []


def test_a_helper_nothing_calls_is_found():
    sources = {
        "a.py": "def _used(x):\n    return x\n\n\ndef _self(n):\n    return _self(n - 1)\n\n\n"
                "_LIMIT = 3\n_SPARE, _PAIRED = 1, 2\n",
        "b.py": "from . import a\n\nprint(a._used(a._PAIRED), _LIMIT)\n",
    }
    assert _unread(sources) == ["a.py:_self", "a.py:_SPARE"]
