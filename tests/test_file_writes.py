"""No module under ``src/uclab`` but the command line writes a file.

``uclab.cli.main`` writes every output of a run; the library modules return
reports, tables and arrays.  No linter ships with the project, so this scan
stands in for one: it parses every module under ``src/uclab`` but
``cli.py`` and fails on a call that writes a file: ``open`` or a method
``.open`` in a write, append, create or update mode (a mode that is not a
string literal counts as one), ``np.save``, ``np.savez``,
``np.savez_compressed``, ``np.savetxt``, ``.write_text``, ``.write_bytes``
and ``.mkdir``.  The field-file format, ``fields.save_field``, is the one
allowed writer.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module file, function) pairs allowed to write: the field-file format
ALLOWED = {("fields.py", "save_field")}

_NUMPY_WRITERS = {"save", "savez", "savez_compressed", "savetxt"}
_PATH_WRITERS = {"write_text", "write_bytes", "mkdir"}


def _writer(call: ast.Call):
    """What ``call`` writes with, or None when it writes no file."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":  # open(path, mode)
        mode = call.args[1] if len(call.args) > 1 else None
    elif isinstance(func, ast.Attribute) and func.attr == "open":  # path.open(mode)
        mode = call.args[0] if call.args else None
    elif (isinstance(func, ast.Attribute) and func.attr in _NUMPY_WRITERS
          and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")):
        return f"np.{func.attr}"
    elif isinstance(func, ast.Attribute) and func.attr in _PATH_WRITERS:
        return f".{func.attr}"
    else:
        return None
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode)
    if mode is None or (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
        return None  # read mode
    return f"open mode {ast.unparse(mode)}"


def file_writes(tree: ast.Module) -> list[tuple[str, str]]:
    """(``line N: <writer>``, enclosing function) for each call in ``tree``
    that writes a file; a method is named ``Class.method`` and module level
    ``<module>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            elif isinstance(child, ast.Call) and _writer(child) is not None:
                found.append((f"line {child.lineno}: {_writer(child)}", scope))
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_no_library_module_writes_a_file():
    found = []
    for path in sorted((ROOT / "src/uclab").glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"src/uclab/{path.name} {scope} {hit}" for hit, scope in file_writes(tree)
                  if (path.name, scope) not in ALLOWED]
    assert not found, "file writes outside uclab.cli:\n" + "\n".join(found)


def test_the_field_format_is_the_one_allowed_writer():
    tree = ast.parse((ROOT / "src/uclab/fields.py").read_text())
    assert [scope for _, scope in file_writes(tree)] == ["save_field"]


def test_scan_flags_a_planted_write():
    tree = ast.parse(
        "import numpy as np\n"
        "with open('/proc/self/maps') as fh:\n"
        "    fh.read()\n"
        "open(p, 'rb'), open(p, mode='r')\n"
        "class Slice:\n"
        "    def dump(self, prefix, mode):\n"
        "        with open(f'{prefix}.csv', 'w') as fh:\n"
        "            fh.write('index,eigenvalue\\n')\n"
        "        np.save(f'{prefix}.npy', self.vectors)\n"
        "        open(prefix, mode=mode), prefix.open('a')\n"
        "def keep(path):\n"
        "    path.parent.mkdir(), path.write_text(''), np.savez(path)\n"
    )
    assert file_writes(tree) == [
        ("line 7: open mode 'w'", "Slice.dump"),
        ("line 9: np.save", "Slice.dump"),
        ("line 10: open mode mode", "Slice.dump"),
        ("line 10: open mode 'a'", "Slice.dump"),
        ("line 12: .mkdir", "keep"),
        ("line 12: .write_text", "keep"),
        ("line 12: np.savez", "keep"),
    ]
