"""Rules checked on the source of the library itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qchar2"


def unread_parameters():
    """`module.function(parameter)` for every parameter that its function
    never reads; `self`, `cls` and `_`-prefixed names are exempt."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            found += [
                f"{path.stem}.{name}({p})" for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")
            ]
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == []


def private_cross_imports():
    """`module: from source import _name` for every `_`-prefixed name that
    a library module imports from another one; dunders such as
    `__version__` are exempt."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = "." * node.level + (node.module or "")
            if not node.level and not source.startswith("qchar2"):
                continue
            found += [
                f"{path.stem}: from {source} import {a.name}" for a in node.names
                if a.name.startswith("_") and not a.name.endswith("__")
            ]
    return found


def test_no_private_names_cross_modules():
    assert private_cross_imports() == []


def _library_source(node):
    """The module an `ImportFrom` names, or None when it is not qchar2's."""
    source = "." * node.level + (node.module or "")
    return source if node.level or source.startswith("qchar2") else None


def _innermost_functions(tree, kind):
    """Each node of type `kind` inside a function, mapped to the name of
    its innermost function."""
    owner = {}
    # breadth first, so a nested function overwrites its enclosing one
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for n in ast.walk(func):
                if isinstance(n, kind):
                    owner[n] = func.name
    return owner


def local_top_level_imports():
    """`module.function: from source import names` for every import inside a
    function from a library module that the same file already imports at
    top level; an import belongs to its innermost function."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {_library_source(n) for n in tree.body if isinstance(n, ast.ImportFrom)} - {None}
        owner = _innermost_functions(tree, ast.ImportFrom)
        found += [
            f"{path.stem}.{name}: from {_library_source(n)} import "
            + ", ".join(a.name for a in n.names)
            for n, name in owner.items() if _library_source(n) in top
        ]
    return found


def test_no_local_import_of_a_top_level_source():
    assert local_top_level_imports() == []


def imported_modules(stem):
    """Every library module that `stem` imports from, at module level or
    inside a function, as its dotted source."""
    tree = ast.parse((SRC / f"{stem}.py").read_text())
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and _library_source(n) is not None:
            found.add(_library_source(n))
        elif isinstance(n, ast.Import):
            found |= {a.name for a in n.names if a.name.startswith("qchar2")}
    return found


def test_class_triviality_imports_no_decider():
    # class triviality is decided by residues alone: no form decider and no
    # search may sit behind it
    assert not {m for m in imported_modules("cohomology") if m.split(".")[-1] == "witt"}


def _identifiers(nodes):
    """Every bare name and attribute name that the nodes mention."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for node in nodes for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    }


def decider_names_in(stem, qualname):
    """The names imported from `witt` anywhere in `stem` that the function
    `qualname` (`Class.method` for a method) mentions."""
    tree = ast.parse((SRC / f"{stem}.py").read_text())
    from_witt = {
        a.asname or a.name for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and (_library_source(n) or "").split(".")[-1] == "witt"
        for a in n.names
    }
    node = tree
    for part in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
    return _identifiers([node]) & from_witt


def test_pfister_questions_ask_no_decider():
    # isometry and hyperbolicity of a Pfister form are decided by its symbol
    # (Kato's isomorphism and the Arason-Pfister Hauptsatz)
    for stem, qualname in (
        ("linkage", "pfisters_isometric"),
        ("linkage", "verify_linkage_witness"),
        ("linkage", "u_invariant_estimate"),
        ("sampling", "Sampler.anisotropic_pfister"),
    ):
        assert decider_names_in(stem, qualname) == set(), qualname


def brute_search_callers():
    """`module.function` for every function of the library that calls
    `brute_search`; a call belongs to its innermost function."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = _innermost_functions(tree, ast.Call)
        found |= {
            f"{path.stem}.{owner.get(n, '<module>')}" for n in ast.walk(tree)
            if isinstance(n, ast.Call) and _identifiers([n.func]) & {"brute_search"}
        }
    return found


def test_only_the_oracle_and_the_decider_fallbacks_search():
    # a theorem check decides by exact rules: a bounded search behind one
    # could miss a zero and report Undecided where a theorem decides
    assert brute_search_callers() == {
        "witt._searched", "witt._decompose_pairs", "suites.suite_oracle",
    }


def unreached_names():
    """`module.name` for every top-level function or class of the library
    that no root reaches through the names it mentions.  The roots are the
    other top-level statements (imports aside), among them `SUITES` and
    `HANDLERS`, and `cli.main` and the names in `qchar2.__all__`.  Names
    resolve across modules by spelling, which can only over-reach."""
    defs, roots = {}, {"main"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _identifiers([node])
                if path.stem == "__init__" and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in getattr(node, "targets", ())
                ):
                    roots |= set(ast.literal_eval(node.value))
    reached, todo = set(), sorted(roots & defs.keys())
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(_identifiers(node for _, node in defs[name]) & defs.keys())
    return sorted(f"{m}.{name}" for name, ds in defs.items() if name not in reached for m, _ in ds)


def test_every_library_name_is_reached():
    # perfbench/tracing.py wraps `linalg.solve` by name for its traced run,
    # which fails to install without it; no library code calls it
    assert unreached_names() == ["linalg.solve"]


def unraised_error_classes():
    """Every class of `errors.py` but the base `QChar2Error` that no
    `raise` statement of the library names."""
    tree = ast.parse((SRC / "errors.py").read_text())
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)} - {"QChar2Error"}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        raised |= _identifiers(n.exc for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc)
    return sorted(classes - raised)


def test_every_error_class_is_raised():
    # an exception that nothing raises documents a failure that cannot happen
    assert unraised_error_classes() == []


CONSTANT_NAMES = {"zero", "one", "base_element", "_constants"}


def identity_tests_of_constants():
    """`module:line` for every `is`/`is not` one of whose operands mentions
    `zero`, `one`, `base_element` or the `_constants` table."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.stem}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in n.ops)
            and _identifiers([n.left, *n.comparators]) & CONSTANT_NAMES
        ]
    return found


def test_no_field_element_is_compared_by_identity():
    # every level-0 result is one of the tower's shared constants, but an
    # unpickled element is a fresh object: zero and one are tested by value
    assert identity_tests_of_constants() == []


def checked_rules():
    """Every rule name that `witt._verify_cert` compares `rule` with."""
    tree = ast.parse((SRC / "witt.py").read_text())
    func = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == "_verify_cert")
    return {
        n.comparators[0].value for n in ast.walk(func)
        if isinstance(n, ast.Compare) and isinstance(n.left, ast.Name) and n.left.id == "rule"
        and isinstance(n.ops[0], ast.Eq) and isinstance(n.comparators[0], ast.Constant)
    }


def documented_rules():
    """The rule column of README's certificate table."""
    readme = (SRC.parent.parent / "README.md").read_text()
    rows = [line.split("|") for line in readme.splitlines()
            if line.startswith(("| isotropic |", "| anisotropic |"))]
    return {row[2].strip().strip("`") for row in rows}


def test_readme_lists_the_checked_rules():
    assert checked_rules() == documented_rules()


def test_importing_the_cli_loads_no_process_pool():
    # `verify` imports the pool machinery when it first forks, so that the
    # import of qchar2 and of its CLI stays as cheap as before
    import os
    import subprocess
    import sys

    script = ("import sys, qchar2, qchar2.cli;"
              "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
