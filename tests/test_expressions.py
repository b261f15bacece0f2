import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igeo.errors import SchemaError, UnknownSymbol
from igeo.expressions import compile_chart, compile_expression


def test_arithmetic_and_power():
    f = compile_expression("2*x[0] + x[1]^2 - 1/2")
    assert f({"x": np.array([3.0, 2.0]), "theta": None}) == pytest.approx(9.5)


def test_functions():
    f = compile_expression("exp(theta[0]) + log(x[0]) + sqrt(x[0])")
    val = f({"x": np.array([4.0]), "theta": np.array([0.0])})
    assert val == pytest.approx(1.0 + np.log(4.0) + 2.0)


def test_vectorised_over_samples():
    f = compile_expression("x[0]*theta[0] - log(1 + exp(theta[0]))")
    x = np.array([[0.0], [1.0]])
    out = f({"x": x, "theta": np.array([0.5])})
    assert out.shape == (2,)
    assert out[1] - out[0] == pytest.approx(0.5)


def test_unary_minus():
    f = compile_expression("-x[0]^2")
    assert f({"x": np.array([3.0]), "theta": None}) == pytest.approx(-9.0)


def test_unknown_function():
    with pytest.raises(UnknownSymbol):
        compile_expression("sin(x[0])")


def test_unknown_variable():
    with pytest.raises(UnknownSymbol):
        compile_expression("y[0] + 1")


def test_bare_name_rejected():
    with pytest.raises(UnknownSymbol):
        compile_expression("x + 1")


def test_call_attack_rejected():
    with pytest.raises(SchemaError):
        compile_expression("(1).__class__")
    with pytest.raises(SchemaError):
        compile_expression("[1 for _ in x]")
    with pytest.raises(SchemaError):
        compile_expression("x[0] if 1 else 2")


def test_syntax_error():
    with pytest.raises(SchemaError):
        compile_expression("2*")
    with pytest.raises(SchemaError):
        compile_expression("")


def test_non_integer_subscript():
    with pytest.raises(SchemaError):
        compile_expression("x[0.5]")


def test_subscripts_within_declared_sizes():
    f = compile_expression("x[1]*theta[0]", {"x": 2, "theta": 1})
    assert f({"x": np.array([3.0, 2.0]), "theta": np.array([4.0])}) == 8.0
    with pytest.raises(SchemaError, match=r"theta\[1\] is out of range"):
        compile_expression("theta[1]", {"x": 2, "theta": 1})
    with pytest.raises(SchemaError, match=r"x\[2\] is out of range"):
        compile_expression("x[2]", {"x": 2, "theta": 1})
    # a boolean is no index, though bool is a subclass of int
    with pytest.raises(SchemaError, match=r"x\[True\]: subscripts must be integer"):
        compile_expression("x[True]", {"x": 2})
    # None leaves a variable unbounded, as the default does for x and theta
    assert compile_expression("x[5]", {"x": None})({"x": np.arange(6.0)}) == 5.0
    with pytest.raises(SchemaError, match=r"u\[1\] is out of range"):
        compile_chart(["u[0]", "u[1]"], 1)


@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1,
                max_size=8).map(np.array))
@settings(max_examples=50, deadline=None)
def test_chart_batches_equal_rows(U):
    # constant components broadcast over the batch
    chart = compile_chart(["u[0]*u[1]", "1", "-2.5", "exp(u[0]) - sqrt(1 + u[1]^2)"], 2)
    batch = chart(U)
    assert batch.shape == (len(U), 4)
    assert np.array_equal(batch, np.array([chart(u) for u in U]))
    assert chart(U[0]).shape == (4,)
    assert (batch[:, 1] == 1.0).all() and (batch[:, 2] == -2.5).all()
