"""The package's public names."""

import ast
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
