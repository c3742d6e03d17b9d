"""Source-level checks on the rankpit package."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import rankpit

SRC = Path(rankpit.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_no_assert_statements():
    # `python -O` strips assert statements, so every internal check must be
    # an explicit raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _bound_names(node):
    for alias in node.names:
        # `import a.b` binds `a`
        yield alias.asname or alias.name.split(".")[0]


def test_no_unused_imports():
    # a top-level import whose name the module never reads; __init__.py
    # imports are the public re-exports
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in _bound_names(node) if name not in used]
    assert found == []


def _private_definitions(stmt):
    """Private names a top-level statement defines (dunders excluded)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _read_names(stmt):
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_unreferenced_private_names():
    # a private top-level function, class or constant that nothing else in
    # the package reads (its own body does not count) is dead code
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            own = _private_definitions(stmt)
            defined.update((name, f"{path.name}:{stmt.lineno}") for name in own)
            read.update(name for name in _read_names(stmt) if name not in own)
    assert sorted(where + " " + name for name, where in defined.items()
                  if name not in read) == []


def _imported_modules(node):
    """Top-level package names an import statement loads."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def test_only_pit_imports_numpy():
    # every elimination runs on plain ints: numpy serves only the vectorized
    # hitting-set scan, and mpmath only the interval bounds in pit and nw.
    # Both are imported inside the functions that use them, so a process
    # that needs neither never pays for loading them
    allowed = {"numpy": {"pit.py"}, "mpmath": {"pit.py", "nw.py"}}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_functions = {inner for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for inner in ast.walk(node)}
        for node in ast.walk(tree):
            for name in _imported_modules(node) & allowed.keys():
                if node not in in_functions or path.name not in allowed[name]:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_no_module_imports_sympy():
    # sympy is the tests' outside oracle (the `test` extra), not a dependency
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if "sympy" in _imported_modules(node)]
    assert found == []


def _catches_everything(handler):
    """A bare `except:` or one that names Exception or BaseException."""
    if handler.type is None:
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id in ("Exception", "BaseException")
               for n in names)


def test_no_broad_except():
    # a catch-all would relabel a bug as some structured error; only cli.run,
    # which reports any bug as InternalError, may catch everything
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        boundary = set()
        if path.name == "cli.py":
            run = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "run")
            boundary = set(ast.walk(run))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ExceptHandler) and _catches_everything(node)
                  and node not in boundary]
    assert found == []


def test_only_circuit_reads_the_file_formats():
    # circuit.py reads both JSON file formats and places every malformed
    # value at its JSON path, so no other module decodes or locates one
    names = {"_MALFORMED", "JSONDecodeError"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "circuit.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id in names)
                  or (isinstance(node, ast.Attribute) and node.attr in names)]
    assert found == []


def test_only_circuit_knows_the_product_spelling():
    # a product gate is the one-"mul" DAG; "product" is its file spelling, so
    # no module but circuit.py may test for it or read `is_product`
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "circuit.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Constant) and node.value == "product")
                  or (isinstance(node, ast.Attribute) and node.attr == "is_product")]
    assert found == []


def test_only_poly_clears_denominators():
    # a polynomial's integer form is computed once, in poly.py
    # (`Polynomial._int_form`, over `_clear_denominators`), and every other
    # module reads it: none takes an lcm of denominators itself
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "lcm" in (
                      getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert found == []


def test_only_poly_packs_monomials():
    # the packed monomial format (`_Layout`, its `unpack`, a table's
    # `layout`, `_packed_product`) is read and written in poly.py alone:
    # other modules reach it through `compose` and `_CompositionTable`,
    # whose `pack` keys a search target
    packing = {"_Layout", "layout", "unpack", "_packed_product"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if packing & {getattr(node, a, None) for a in ("id", "attr", "name")}]
    assert found == []


_MUTATORS ={"pop", "popitem", "clear", "update", "setdefault", "__setitem__",
             "__delitem__"}


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def test_terms_are_not_written_after_construction():
    # the cached `_int_form` of a Polynomial stays valid only while its
    # terms do: `self.terms` is bound in an __init__ and never changed
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_init = {inner for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "__init__"
                   for inner in ast.walk(node)}
        for node in ast.walk(tree):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                for t in ast.walk(target):
                    rebound = (_is_terms(t) and not (
                        isinstance(node, ast.Assign) and node in in_init
                        and isinstance(t.value, ast.Name) and t.value.id == "self"))
                    if rebound or (isinstance(t, ast.Subscript) and _is_terms(t.value)):
                        found.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS and _is_terms(node.func.value)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _dotted(node, bound):
    """The dotted rankpit name an expression spells, or None."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _dotted(node.value, bound)
        return owner and f"{owner}.{node.attr}"
    return None


def _rankpit_names(tree) -> list:
    """Every dotted rankpit name a file imports, or reads off a name that it
    imported from rankpit."""
    bound, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rankpit":
                    names.append(alias.name)
                    # `import a.b` binds `a`, `import a.b as c` binds a.b
                    bound[alias.asname or "rankpit"] = (alias.name if alias.asname
                                                        else "rankpit")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "rankpit"):
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = names[-1]
    return names + [name for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    for name in [_dotted(node, bound)] if name]


def _resolves(dotted: str) -> bool:
    """Whether a dotted name names something: each part an attribute of the
    one before, or a submodule of it that imports."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif inspect.ismodule(obj):
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        else:
            return False
    return True


def test_benchmark_names_resolve():
    # tier-1 imports nothing from perfbench/, yet the tracer patches every
    # name in its tables and the workloads call rankpit by name: a name
    # deleted from rankpit would break every benchmark run while the tests
    # of the package stayed green
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, (modname, path) in {**tracing.SPANNED, **tracing.COUNTED}.items():
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # `Tracer.install` reads the name off the owner's own namespace
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"tracing.py {name}")
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        missing += [f"{path.name} {name}" for name in _rankpit_names(tree)
                    if not _resolves(name)]
    assert missing == []
