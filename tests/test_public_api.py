import json
import os
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import mimo_mi
from mimo_mi import (
    ChannelDims,
    build_table,
    ei_exp_scaled,
    evaluate_closed_form,
    monte_carlo_mi,
    telatar_quadrature,
)

_PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")

PUBLIC_API = [
    "ChannelDims",
    "CoefficientTable",
    "ConvergenceError",
    "EvaluationResult",
    "McReport",
    "Method",
    "build_table",
    "coeff_c",
    "density_moment",
    "ei_exp_scaled",
    "evaluate_closed_form",
    "monte_carlo_mi",
    "one_point_density",
    "render_expression",
    "telatar_quadrature",
]


def test_all_is_pinned():
    assert sorted(mimo_mi.__all__) == PUBLIC_API


def test_all_names_resolve():
    for name in mimo_mi.__all__:
        assert getattr(mimo_mi, name) is not None, name


def test_coefficient_table_fields_are_pinned():
    # the constructor is public: any change to its fields shows up here
    names = list(mimo_mi.CoefficientTable._fields)
    assert names == ["dims", "denominator", "a_num", "b_num"]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(_PYPROJECT, "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in dependencies] == ["numpy"]


@pytest.mark.parametrize(
    "t", [Fraction(1, 3), Decimal("0.1"), np.float32(0.5)], ids=lambda t: type(t).__name__
)
def test_any_real_t_is_taken_as_its_float(t):
    # the exact routes read t = p / 2^e, which only a float guarantees, and
    # a report must hold a JSON-serialisable float
    dims, x = ChannelDims(2, 2), float(t)
    table = build_table(dims)
    assert ei_exp_scaled(t) == ei_exp_scaled(x)
    for f in (evaluate_closed_form, lambda _, t: telatar_quadrature(dims, t)):
        got = f(table, t)
        assert got == f(table, x) and type(got.t) is float
    rep = monte_carlo_mi(dims, t, 1000)
    assert rep == monte_carlo_mi(dims, x, 1000)
    assert json.loads(rep.to_json())["t"] == x


def test_t_that_is_not_a_real_number_is_a_type_error():
    with pytest.raises(TypeError):
        ei_exp_scaled("0.5")
    with pytest.raises(TypeError):
        telatar_quadrature(ChannelDims(2, 2), "0.5")
