import os
import re

import pytest

import mimo_mi

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
