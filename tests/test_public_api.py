import mimo_mi

PUBLIC_API = [
    "ChannelDims",
    "CoefficientTable",
    "ConvergenceError",
    "EvaluationResult",
    "GridMode",
    "McReport",
    "Method",
    "QuadratureConfig",
    "a_pq_check",
    "build_table",
    "coeff_c",
    "density_moment",
    "ei_exp_scaled",
    "evaluate_closed_form",
    "exp_integral_ei_neg",
    "laguerre_eval",
    "lemma1_check",
    "lnt_identity_check",
    "monte_carlo_mi",
    "one_point_density",
    "render_expression",
    "results_to_csv",
    "results_to_json",
    "sweep",
    "telatar_quadrature",
    "upper_gamma_int",
]


def test_all_is_pinned():
    assert sorted(mimo_mi.__all__) == PUBLIC_API


def test_all_names_resolve():
    for name in mimo_mi.__all__:
        assert getattr(mimo_mi, name) is not None, name
