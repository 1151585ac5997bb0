"""The package's public names and the README example."""

import ast
import re
from pathlib import Path

import hiergame as hg


def test_all_lists_exactly_the_reexported_names():
    # every name imported into the package namespace from a submodule is
    # public, and `from hiergame import *` binds every name in __all__
    tree = ast.parse(Path(hg.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(hg.__all__)) == len(hg.__all__)
    assert set(hg.__all__) == imported | {"__version__"}
    namespace = {}
    exec("from hiergame import *", namespace)
    assert all(namespace[name] is getattr(hg, name) for name in hg.__all__)


def test_readme_quick_start_runs(capsys):
    # README's one python block runs as written and prints what it says
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("((0, 0),)\n")


def test_modules_use_every_name_they_import():
    # an imported name that its module never reads is dead code; the package
    # re-exports its imports through __all__, which counts as reading them
    for path in sorted(Path(hg.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
        assert imported <= read | exported, (path.name, sorted(imported - read - exported))


def test_modules_import_no_private_name_of_another():
    # an underscore name is its module's own: another hiergame module that
    # needs it should get it under a public name
    private = []
    for path in sorted(Path(hg.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private += [f"{path.stem}: {node.module}.{a.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or (node.module or "").startswith("hiergame"))
                    for a in node.names if a.name.startswith("_")]
    assert not private


def test_modules_use_no_private_numpy_name():
    # numpy's underscore names (numpy._core and the like) may change in any
    # release: the package reads numpy through its public API only
    private = []
    for path in sorted(Path(hg.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {"numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update(a.asname or a.name for a in node.names if a.name == "numpy")
                private += [f"{path.stem}: import {a.name}" for a in node.names
                            if a.name.startswith("numpy._")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                private += [f"{path.stem}: from {node.module} import {a.name}"
                            for a in node.names
                            if node.module.startswith("numpy._") or a.name.startswith("_")]
        private += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")]
    assert not private
