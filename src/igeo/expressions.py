"""Safe compiler for the small expression language used in config documents.

Grammar: numbers, indexed variables like ``x[0]`` / ``theta[1]``, the binary
operators ``+ - * / ^`` (``^`` is power), unary minus, parentheses, and the
functions ``exp``, ``log``, ``sqrt``.  Compiles to a closure over an
environment dict; evaluation is vectorised through numpy.
"""

from __future__ import annotations

import ast
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import SchemaError, UnknownSymbol

_FUNCTIONS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def _build(node, variables):
    if isinstance(node, ast.Expression):
        return _build(node.body, variables)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            value = float(node.value)
            return lambda env: value
        raise SchemaError(f"literal {node.value!r} is not numeric")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left = _build(node.left, variables)
        right = _build(node.right, variables)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _build(node.operand, variables)
        if isinstance(node.op, ast.USub):
            return lambda env: np.negative(inner(env))
        return inner
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name):
            raise SchemaError("only plain function calls are allowed")
        name = node.func.id
        if name not in _FUNCTIONS:
            raise UnknownSymbol(f"unknown function {name!r}")
        if len(node.args) != 1 or node.keywords:
            raise SchemaError(f"{name} takes exactly one positional argument")
        fn = _FUNCTIONS[name]
        arg = _build(node.args[0], variables)
        return lambda env: fn(arg(env))
    if isinstance(node, ast.Subscript):
        if not isinstance(node.value, ast.Name):
            raise SchemaError("only variable[index] subscripts are allowed")
        var = node.value.id
        if var not in variables:
            raise UnknownSymbol(f"unknown variable {var!r}")
        sl = node.slice
        if not (isinstance(sl, ast.Constant) and isinstance(sl.value, int)
                and not isinstance(sl.value, bool)):
            raise SchemaError(f"{var}[{ast.unparse(sl)}]: subscripts must be "
                              "integer literals")
        index = sl.value
        size = variables[var]
        if size is not None and index >= size:
            raise SchemaError(f"{var}[{index}] is out of range: {var} has "
                              f"{size} component(s)")
        return lambda env: np.asarray(env[var])[..., index]
    if isinstance(node, ast.Name):
        raise UnknownSymbol(
            f"bare name {node.id!r}; variables must be indexed like {node.id}[0]")
    raise SchemaError(f"disallowed syntax: {ast.dump(node)}")


def compile_expression(text: str,
                       variables: Optional[Mapping[str, Optional[int]]] = None) -> Callable:
    """Compile ``text`` into ``fn(env)`` where env maps variable names to arrays.

    ``variables`` maps each variable name to its number of components (None
    for any; by default ``x`` and ``theta`` of any size); a subscript beyond
    it is a SchemaError.  Variables are indexed along the last axis, so an
    ``x`` of shape ``(N, k)`` yields vectorised results of shape ``(N,)``.
    """
    if not isinstance(text, str) or not text.strip():
        raise SchemaError("expression must be a non-empty string")
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise SchemaError(f"cannot parse expression {text!r}: {exc}") from None
    return _build(tree, variables or {"x": None, "theta": None})


def compile_chart(texts: Sequence[str], dim: int) -> Callable:
    """Compile one expression over ``u`` (``dim`` components) per component
    into ``u -> ndarray``."""
    comp = [compile_expression(t, {"u": dim}) for t in texts]

    def chart(u):
        env = {"u": np.asarray(u, dtype=float)}
        return np.array([float(c(env)) for c in comp])

    return chart
