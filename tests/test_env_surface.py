"""The environment variables ``src/repro`` reads or writes are a pinned list.

Every run knob is a :class:`~repro.core.config.RunProfile` field; an
environment variable may only supply the unset default of one
(``REPRO_QUEUE``, ``REPRO_SANITIZE``) or carry process plumbing (the
cache directory, a worker's attempt number, CI's run id).  A new ambient
switch has to change this list to get in.
"""

import ast
from pathlib import Path

import repro

ALLOWED = {
    "REPRO_QUEUE",
    "REPRO_SANITIZE",
    "MACAW_CACHE_DIR",
    "REPRO_SERVICE_ATTEMPT",
    "GITHUB_RUN_ID",
}

#: ``os.environ`` methods whose first argument names one variable.
_KEYED_METHODS = {"get", "pop", "setdefault"}


def _is_environ(node):
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ")


def _string_constants(tree):
    """Module-level ``NAME = "literal"`` assignments."""
    constants = {}
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = stmt.value.value
    return constants


def _env_accesses(path):
    """(variable names, unnameable accesses) of one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    constants = _string_constants(tree)
    names, unnamed, named_nodes = set(), [], set()

    def name_of(key, node):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            names.add(key.value)
        elif isinstance(key, ast.Name) and key.id in constants:
            names.add(constants[key.id])
        else:
            unnamed.append(f"{path}:{node.lineno}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            named_nodes.add(id(node.value))
            name_of(node.slice, node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, method = node.func.value, node.func.attr
            if _is_environ(owner) and method in _KEYED_METHODS and node.args:
                named_nodes.add(id(owner))
                name_of(node.args[0], node)
            elif method == "getenv" and node.args:
                name_of(node.args[0], node)
    for node in ast.walk(tree):
        # Any other use (``in``, iteration, copies, update()) touches
        # variables this test cannot name: extend it before adding one.
        if _is_environ(node) and id(node) not in named_nodes:
            unnamed.append(f"{path}:{node.lineno}")
    return names, unnamed


def test_environment_surface_is_the_allow_list():
    root = Path(repro.__file__).resolve().parent
    names, unnamed = set(), []
    for path in sorted(root.rglob("*.py")):
        found, unknown = _env_accesses(path)
        names |= found
        unnamed += unknown
    assert not unnamed, f"environment accesses with no literal name: {unnamed}"
    assert names == ALLOWED
