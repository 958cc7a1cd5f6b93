"""Static checks over the package source."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import plocal

SOURCES = sorted(Path(plocal.__file__).parent.glob("*.py"))
ROOT = Path(plocal.__file__).parents[2]
TRACING = ROOT / "perfbench" / "tracing.py"
# every file whose names keep a definition in the package alive
READERS = sorted(path for top in ("src", "tests", "scripts", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def unused_parameters(tree: ast.Module) -> list[str]:
    """``function: parameter`` for each parameter of a function or lambda
    that its body never reads; ``self``, ``cls`` and names starting with
    ``_`` are exempt."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [x.arg for x in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                  if x is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        read |= {n.target.id for stmt in body for n in ast.walk(stmt)
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        out += [f"{name}: {x}" for x in params
                if x not in read and x not in ("self", "cls") and not x.startswith("_")]
    return out


def names_used(tree: ast.AST) -> Counter:
    """How often each name is read or assigned, taken as an attribute,
    imported, or spelled as a whole string of dotted identifiers, the way
    ``getattr``, ``monkeypatch.setattr`` and the benchmark's tracer name a
    function."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def unnamed_definitions(tree: ast.Module, used: Counter) -> list[str]:
    """``line: name`` for each function, method or class defined in tree
    whose name occurs in ``used`` only inside its own definition; dunders
    are exempt."""
    return [f"{node.lineno}: {node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and used[node.name] == names_used(node)[node.name]]


def comparisons_with_two(tree: ast.Module) -> list[str]:
    """``line: comparison`` for each comparison of a name or attribute
    ``p`` or ``prime`` with the constant 2."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        names = {x.id if isinstance(x, ast.Name) else getattr(x, "attr", None) for x in operands}
        if names & {"p", "prime"} and any(
                isinstance(x, ast.Constant) and x.value == 2 for x in operands):
            out.append(f"{node.lineno}: {ast.unparse(node)}")
    return out


def test_only_fplinalg_branches_on_p_equal_to_2():
    """Every complex is written over the integers at every p, so only the
    elimination engine may tell p = 2 from the other primes."""
    found = [f"{path.name}:{entry}" for path in SOURCES if path.name != "fplinalg.py"
             for entry in comparisons_with_two(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_scan_finds_a_comparison_of_p_with_2():
    tree = ast.parse(
        "if p == 2:\n"
        "    x = 2 < self.prime <= 5\n"
        "y = q > 2 or p % 2 == 0 or prime != 3\n"
        "z = [n for n in range(9) if cm.prime > 2]\n"
    )
    assert comparisons_with_two(tree) == ["1: p == 2", "2: 2 < self.prime <= 5", "4: cm.prime > 2"]


def test_every_parameter_is_read():
    unused = [f"{path.name}:{entry}" for path in SOURCES
              for entry in unused_parameters(ast.parse(path.read_text(), str(path)))]
    assert unused == []


def test_the_scan_finds_an_unused_parameter():
    tree = ast.parse(
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    b += 1\n"
        "    return (lambda x, y: x)(d, kw)\n"
        "class K:\n"
        "    def m(self, e):\n"
        "        e = 2\n"
    )
    assert unused_parameters(tree) == ["f: a", "f: args", "m: e", "<lambda>: y"]


def test_every_definition_is_named_outside_itself():
    """No function, method or class of the package is left that nothing in
    ``src``, ``tests``, ``scripts`` or ``perfbench`` names."""
    used = Counter()
    for path in READERS:
        used.update(names_used(ast.parse(path.read_text(), str(path))))
    unnamed = [f"{path.name}:{entry}" for path in SOURCES
               for entry in unnamed_definitions(ast.parse(path.read_text(), str(path)), used)]
    assert unnamed == []


def test_the_scan_finds_an_unnamed_definition():
    tree = ast.parse(
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def called():\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self.x = 'K.by_name'\n"
        "    def unread(self):\n"
        "        pass\n"
        "    def by_name(self):\n"
        "        pass\n"
        "    @property\n"
        "    def attr(self):\n"
        "        return self.x\n"
        "y = called() + K().attr\n"
    )
    assert unnamed_definitions(tree, names_used(tree)) == ["1: recursive", "8: unread"]


def traced_targets() -> list[tuple[str, str]]:
    """The ``(module, attribute)`` pairs of ``TARGETS`` in the benchmark's
    tracer, read from its source, which is neither imported nor run."""
    tree = ast.parse(TRACING.read_text(), str(TRACING))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    return [(module, attr) for module, attr, _ in ast.literal_eval(value)]


def test_every_traced_benchmark_target_resolves():
    """The benchmark's tracer wraps plocal functions by name, so renaming or
    deleting one would break ``perfbench/run.py --trace 1``: every target
    resolves, a method in its class's own ``__dict__``, where
    ``Tracer.install`` reads it.  The ∂² check is measured through
    ``FpMatrix.matmul`` and ``FpMatrix.equals``."""
    targets = traced_targets()
    assert {("plocal.fplinalg", "FpMatrix.matmul"), ("plocal.fplinalg", "FpMatrix.equals")} \
        <= set(targets)
    for module, attr in targets:
        owner = importlib.import_module(module)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert name in vars(owner) and callable(vars(owner)[name]), (module, attr)
