"""The package's public surface: ``from lomlab import *`` imports every
name in ``__all__``, so a name deleted from a module must leave it too."""

import lomlab


def test_every_exported_name_resolves_once():
    # the export table names, for each public name, the module that defines
    # it, so that first access imports that module and no other
    import sys

    assert len(lomlab.__all__) == len(set(lomlab.__all__))
    assert set(lomlab.__all__) <= set(dir(lomlab))
    namespace = {}
    exec("from lomlab import *", namespace)  # AttributeError on a stale name
    assert set(lomlab.__all__) <= set(namespace)
    for module, names in lomlab._EXPORTS.items():
        for name in names:
            value = namespace[name]
            assert value.__module__ == f"lomlab.{module}", name
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_every_private_helper_has_a_caller_in_src():
    # a private top-level function or class that nothing in src/ refers to,
    # apart from its own body, is dead code
    import ast
    from pathlib import Path

    statements = []  # (module, top-level statement, names it refers to)
    for path in sorted(Path(lomlab.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            statements.append((path.name, stmt, names))
    dead = [
        f"{module}:{stmt.name}"
        for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert not dead, dead


def test_no_module_imports_a_private_name_from_another():
    # a module reads another's private names only through its public ones,
    # as `from .x import _y` or `from lomlab.x import _y` would bypass
    import ast
    from pathlib import Path

    private = []
    for path in sorted(Path(lomlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "lomlab"
            ):
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert not private, private


def test_no_oracle_copies_a_src_function():
    # a reference in tests/oracles.py with the same body as a function in
    # src/ checks that function against itself; docstrings do not count
    import ast
    from pathlib import Path

    def bodies(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                body = node.body
                if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                    body = body[1:]
                if body:
                    yield node.name, ast.dump(ast.Module(body=body, type_ignores=[]))

    src = {}
    for path in sorted(Path(lomlab.__file__).parent.glob("*.py")):
        for name, body in bodies(path):
            src.setdefault(body, f"{path.stem}.{name}")
    oracles = Path(__file__).with_name("oracles.py")
    copies = [f"oracles.{name} = {src[body]}" for name, body in bodies(oracles) if body in src]
    assert not copies, copies


def test_no_module_has_an_unused_import():
    # a top-level import that nothing else in the module reads is left
    # behind by a removal; a line marked `# noqa: F401` keeps a name on
    # purpose
    import ast
    from pathlib import Path

    unused = []
    for path in sorted(Path(lomlab.__file__).parent.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import) or (
                isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
            ):
                unused += [
                    f"{path.name}:{alias.lineno}: {alias.name}"
                    for alias in stmt.names
                    if (alias.asname or alias.name).split(".")[0] not in read
                    and "# noqa: F401" not in lines[alias.lineno - 1]
                ]
    assert not unused, unused


def _quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_every_export_has_a_reader():
    # an exported name that nothing reads, apart from its own definition,
    # is a second copy of a fact or dead code; a reader is a name or an
    # attribute in src/, perfbench/ or bench/, or in the README quick start
    import ast
    from pathlib import Path

    def read(node):
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    root = Path(__file__).resolve().parent.parent
    statements = [  # (module file, name the statement defines, names it reads)
        (path, getattr(stmt, "name", None), read(stmt))
        for pattern in ("src/lomlab/*.py", "perfbench/*.py", "bench/*.py")
        for path in sorted(root.glob(pattern))
        for stmt in ast.parse(path.read_text()).body
    ]
    quick_start = read(ast.parse(_quick_start()))
    unread = [
        f"{module}.{name}"
        for module, names in lomlab._EXPORTS.items()
        for name in names
        if name not in quick_start
        and not any(
            name in names_read and (path, defined) != (root / "src/lomlab" / f"{module}.py", name)
            for path, defined, names_read in statements
        )
    ]
    assert not unread, unread


def test_readme_quick_start_prints_its_documented_values(capsys):
    namespace = {}
    exec(_quick_start(), namespace)
    assert capsys.readouterr().out == "2 1:1-2;2:2-6;3:6-8;4:8-9\n"
    assert (namespace["value"], namespace["coloring"].to_string()) == (5, "RBRBR")
