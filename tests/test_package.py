"""The package's public names and the README example."""

import ast
import random
import re
import shlex
import threading
from pathlib import Path

import hiergame as hg
from hiergame import cli, elimination

import helpers


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


def test_no_module_rewrites_its_globals():
    # a call's answer and its cost depend on its arguments alone: no
    # function rebinds a module name that later calls would read
    rebound = []
    for path in sorted(Path(hg.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rebound += [f"{path.stem}: {', '.join(node.names)}" for node in ast.walk(tree)
                    if isinstance(node, ast.Global)]
    assert rebound == []


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


def test_readme_command_lines_parse():
    # every line of README's command-line block, continuations joined,
    # parses: a flag it shows that the parser lost ends in a usage error
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n")[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.DOTALL | re.MULTILINE).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) >= 8 and all(line.startswith("hiergame ") for line in lines)
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def _file_calls(node, owner, found):
    """Add to `found` the function, by dotted name inside its module, of
    every call under `node` that opens a file or reads or writes JSON
    through one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _file_calls(child, f"{owner}.{child.name}", found)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute) and (func.attr == "open" or (
                        isinstance(func.value, ast.Name) and func.value.id == "json"
                        and func.attr in ("load", "dump")))):
                found.add(owner)
        _file_calls(child, owner, found)


def test_files_are_opened_in_one_place_per_direction():
    # one JSON reader, one JSON writer, one output path for the command
    # line
    found = set()
    for path in sorted(Path(hg.__file__).resolve().parent.glob("*.py")):
        _file_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem, found)
    assert found == {"graph.read_json", "graph.write_json", "cli._emit"}


def test_public_calls_leave_no_thread_running(monkeypatch):
    # the exact sums start no thread, sparse or dense with wide steps; the
    # sampler joins the helper thread it starts before it returns
    started = helpers.sampler_helper(monkeypatch, on=True)
    before = threading.active_count()
    g = hg.crossed_chains(5)
    params = hg.VoteParams.from_graph(g)
    cond = {d: 1 for d in hg.deciders(g)}
    hg.conditional_influence(g, set(cond), {"1"}, cond, params)
    wide = []
    run = elimination._Broadcast.run
    monkeypatch.setattr(elimination._Broadcast, "run",
                        lambda step, made: wide.append(step) or run(step, made))
    dense = helpers.random_digraph(random.Random(9099), 14, extra=60)
    dense_params = hg.VoteParams.from_graph(dense)
    a = sorted(dense.vertex_ids)[:1]
    hg.conditional_influence(dense, set(a), {sorted(dense.vertex_ids)[-1]}, {a[0]: 1},
                             dense_params)
    hg.partition_function(dense, set(a), {a[0]: -1}, dense_params)
    assert wide and started == []
    hg.sample_counts(g, cond, params, 3000, seed=1)
    assert started == ["hiergame-uniforms"]
    assert threading.active_count() == before
