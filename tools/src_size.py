"""Print the size of the package source: lines, public names, settable values.

    python tools/src_size.py [SRC_DIR]

SRC_DIR defaults to ``src/`` next to this script's directory.  Three
numbers are printed, one per line:

* the line count of every ``.py`` file under SRC_DIR;
* the number of names in the package's ``__all__``;
* the settable values: parameters with a default value plus dataclass
  fields, counted from the ``ast`` of every file.
"""

from __future__ import annotations

import ast
import os
import sys


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    """Defaulted parameters plus dataclass fields in one module."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def all_names(tree: ast.AST) -> int:
    """Length of a module-level ``__all__`` list or tuple, else 0."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return len(node.value.elts)
    return 0


def measure(src: str) -> tuple[int, int, int]:
    """(lines, __all__ names, settable values) over the .py files under src."""
    lines = names = settable = 0
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                text = fh.read()
            tree = ast.parse(text)
            lines += text.count("\n")
            settable += settable_values(tree)
            if name == "__init__.py":
                names += all_names(tree)
    return lines, names, settable


def main(argv: list) -> int:
    src = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    lines, names, settable = measure(src)
    print(f"lines {lines}")
    print(f"all_names {names}")
    print(f"settable_values {settable}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
