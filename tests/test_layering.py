"""The package's modules form layers: each imports only from modules before it.

A module may use every module earlier in LAYERS and none after it, so no
import cycle can form and each kernel can be read and tested with only the
layers below it.
"""

import ast
from pathlib import Path

import sumsetvc

LAYERS = ["errors", "sampling", "families", "vc", "linalg", "polynomials", "chars",
          "interpolation", "clp", "verify", "cli"]
PACKAGE = Path(sumsetvc.__file__).parent


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted(["__init__", *LAYERS])


def test_modules_import_only_earlier_layers():
    upward = []
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            if node.module is None:
                # the package itself: only the CLI reads its version
                if (name, [alias.name for alias in node.names]) != ("cli", ["__version__"]):
                    upward.append(f"{name} -> .")
            elif node.module not in LAYERS[:rank]:
                upward.append(f"{name} -> {node.module}")
    assert upward == []
