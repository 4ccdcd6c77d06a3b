"""Independent ground-truth computations for the closed form.

Three oracles that share no code path with the exact-coefficient route:
the eigenvalue-density integral representation evaluated by adaptive
quadrature, the one-point eigenvalue density itself (two algebraic
forms), and Monte Carlo over Rayleigh channels, whose eigenvalues are
drawn from the bidiagonal Laguerre model of H H* in O(m) per sample.
Also numerical checks of the log-weighted gamma integral identity and
the shifted-Laguerre integral expansion that the derivation rests on.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .coefficients import ChannelDims, coeff_c
from .evaluator import EvaluationResult, Method
from .special_functions import _check_t, laguerre_eval, upper_gamma_int


class ConvergenceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-13
    max_subdivisions: int = 500

    def __post_init__(self):
        if self.rel_tol < 1e-13:
            raise ValueError("rel_tol tighter than 1e-13 is not achievable")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.max_subdivisions <= 10**6:
            raise ValueError("max_subdivisions must be in (0, 10^6]")


# QUADPACK's qk21 rule on [-1, 1]: the non-negative Kronrod nodes in
# decreasing order (the odd-indexed ones are the 10-point Gauss nodes),
# their Kronrod weights, and the Gauss weights of _XK[1::2].
_XK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980457309,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# Added to the error estimate: the rounding of the integrand values and
# of the sum over subintervals, which |K21 - G10| does not see.
_ROUNDOFF_ULPS = 50


def _quad(
    f, a: float, b: float, cfg: QuadratureConfig = QuadratureConfig()
) -> tuple[float, float]:
    """(integral of f over [a, b], error estimate) by adaptive Gauss-Kronrod.

    f takes and returns numpy arrays.  An infinite b is mapped to [0, 1)
    by x = a + u/(1-u).  Each pass applies the 21-point Kronrod rule and
    its embedded 10-point Gauss rule to every open subinterval in one call
    of f; a subinterval is accepted once |K21 - G10| is within its width's
    share of max(abs_tol, rel_tol |total|), and the others are halved.
    Raises ConvergenceError if f is not finite at a node or more than
    max_subdivisions subintervals are needed.
    """
    import numpy as np

    xk = np.array(_XK)
    nodes = np.concatenate([-xk, xk[-2::-1]])
    weights = np.zeros((21, 2))
    weights[:, 0] = _WK + _WK[-2::-1]
    weights[1:10:2, 1] = _WG
    weights[11:20:2, 1] = _WG[::-1]
    if b == math.inf:
        lo, hi = np.array([0.0]), np.array([1.0])

        def g(u):
            d = 1.0 - u
            return f(a + u / d) / (d * d)

    else:
        lo, hi, g = np.array([float(a)]), np.array([float(b)]), f
    span = hi[0] - lo[0]
    value = err = 0.0
    count = 1
    while True:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fx = g(mid[:, None] + half[:, None] * nodes)
        if not np.all(np.isfinite(fx)):
            raise ConvergenceError(f"integrand not finite on [{a}, {b}]")
        kg = (fx @ weights) * half[:, None]
        est = np.abs(kg[:, 0] - kg[:, 1])
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(value + kg[:, 0].sum()))
        done = est <= tol * (2.0 * half / span)
        value += kg[done, 0].sum()
        err += est[done].sum()
        if done.all():
            err += _ROUNDOFF_ULPS * np.finfo(float).eps * abs(value)
            return float(value), float(err)
        lo, hi, mid = lo[~done], hi[~done], mid[~done]
        count += len(mid)
        if count > cfg.max_subdivisions:
            raise ConvergenceError(
                f"quadrature on [{a}, {b}] needs more than "
                f"{cfg.max_subdivisions} subintervals"
            )
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])


def _decaying(g):
    """x -> g(x) e^-x on arrays, 0 wherever e^-x underflows (g may overflow there)."""
    import numpy as np

    def f(x):
        with np.errstate(over="ignore", invalid="ignore"):
            damp = np.exp(-x)
            return np.where(damp > 0, g(x) * damp, 0.0)

    return f


def _root_weight(alpha: int, lam):
    """sqrt(e^-lam lam^alpha / alpha!) on an array of lam > 0."""
    import numpy as np

    return np.exp(0.5 * (alpha * np.log(lam) - lam - math.lgamma(alpha + 1)))


def _weighted_kernel(m: int, alpha: int, lam, root_weight):
    """e^-lam lam^alpha K(lam), K(lam) = sum_{k<m} k!/(alpha+k)! L_k^(alpha)(lam)^2,
    given root_weight = sqrt(e^-lam lam^alpha / alpha!).

    One pass of the three-term recurrence of the orthonormal polynomials
    l_k = sqrt(k!/(alpha+k)!) L_k^(alpha), each scaled by root_weight:
    every term is a square, nothing overflows where the weight underflows,
    and lam may be a float or a numpy array.
    """
    prev, cur = 0.0, root_weight
    total = cur * cur
    for k in range(m - 1):
        prev, cur = cur, (
            (2 * k + 1 + alpha - lam) * cur - math.sqrt(k * (alpha + k)) * prev
        ) / math.sqrt((k + 1) * (alpha + k + 1))
        total = total + cur * cur
    return total


def _density(dims: ChannelDims, lam, form: str, root_weight):
    """The one-point density in `form`, given root_weight as for
    _weighted_kernel; lam may be a float or a numpy array.  The two-term
    form scales each Laguerre factor by root_weight before multiplying."""
    m, n = dims.m, dims.n
    alpha = n - m
    if form == "sum_form":
        return _weighted_kernel(m, alpha, lam, root_weight) / m
    pref = math.factorial(m - 1) * math.factorial(alpha) / math.factorial(n - 1)
    lm1 = root_weight * laguerre_eval(m - 1, alpha + 1, lam)
    cross = 0.0
    if m >= 2:
        cross = (root_weight * laguerre_eval(m - 2, alpha + 1, lam)) * (
            root_weight * laguerre_eval(m, alpha + 1, lam)
        )
    return pref * (lm1 * lm1 - cross)


_DENSITY_FORMS = ("sum_form", "two_term_form")


def one_point_density(dims: ChannelDims, lam: float, form: str = "sum_form") -> float:
    """Marginal density of one unordered eigenvalue of H H*.

    'sum_form' is the Laguerre sum over degrees 0..m-1; 'two_term_form'
    is the Christoffel-Darboux style expression with only three Laguerre
    factors (L of negative degree taken as zero).  Both integrate to 1.
    """
    if lam < 0:
        raise ValueError(f"need lambda >= 0, got {lam}")
    if form not in _DENSITY_FORMS:
        raise ValueError(f"unknown density form {form!r}")
    alpha = dims.n - dims.m
    if lam > 0:
        root_weight = math.exp(
            0.5 * (alpha * math.log(lam) - lam - math.lgamma(alpha + 1))
        )
    else:
        root_weight = float(alpha == 0)
    return _density(dims, lam, form, root_weight)


def density_moment(dims: ChannelDims, power: int = 0) -> float:
    """integral of lambda^power * p(lambda) over [0, inf)."""
    alpha = dims.n - dims.m

    def integrand(lam):
        return lam**power * _density(dims, lam, "sum_form", _root_weight(alpha, lam))

    val, _ = _quad(integrand, 0.0, math.inf)
    return val


def telatar_quadrature(dims: ChannelDims, t: float) -> EvaluationResult:
    """E[I] from the density-integral representation by adaptive quadrature.

    One integral over [0, inf) of ln(1 + lam/t) e^-lam lam^alpha K(lam),
    where K(lam) = sum_{k<m} k!/(alpha+k)! (L_k^(alpha)(lam))^2 comes from
    one pass of the Laguerre recurrence at every node (_weighted_kernel).
    err_estimate is the integrator's own.
    """
    _check_t(t)
    import numpy as np

    m, alpha = dims.m, dims.n - dims.m

    def integrand(lam):
        kernel = _weighted_kernel(m, alpha, lam, _root_weight(alpha, lam))
        return np.log1p(lam / t) * kernel

    value, err = _quad(integrand, 0.0, math.inf)
    return EvaluationResult(
        dims=dims, t=t, value=value, method=Method.QUADRATURE, err_estimate=err
    )


@dataclass(frozen=True)
class McReport:
    """Monte Carlo estimate of E[I]; deterministic for fixed
    (seed, samples, workers)."""

    dims: ChannelDims
    t: float
    samples: int
    mean: float
    std_error: float
    seed: int
    worker_count: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "m": self.dims.m,
                "n": self.dims.n,
                "t": self.t,
                "samples": self.samples,
                "mean": self.mean,
                "std_error": self.std_error,
                "seed": self.seed,
                "worker_count": self.worker_count,
            }
        )


# Samples drawn and reduced at once inside a chunk, so that a chunk's
# memory stays bounded whatever its sample count.
_MC_BLOCK = 2**16
# Most chunks (`workers`) one call may split its samples into: each chunk
# is a list entry and a future, built before any sample is drawn.
_MC_MAX_WORKERS = 1024


def _chan_merge(a, b):
    """Chan's pairwise combination of two (count, mean, sum of squared
    deviations) triples."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * n_b / n, m2_a + (m2_b + delta * delta * n_a * n_b / n)


def _log_det_bidiagonal(d2, s2, t: float):
    """ln det(I + B B^T/t) for each column of the squared bidiagonal entries.

    B is m x m lower bidiagonal with B[i, i]^2 = d2[i] and
    B[i, i-1]^2 = s2[i-1]; d2 has shape (m, samples) and s2 (m-1, samples).
    I + B B^T/t is tridiagonal, and its LU pivots p_i give the determinant.
    With r_0 = 0 and p_0 - 1 = d2[0]/t, each later pivot is
    p_i - 1 = d2[i]/t + r_i with r_i = s2[i-1] (1 + r_{i-1}) / (t p_{i-1}),
    a sum of positive terms, so sum_i log1p(p_i - 1) loses nothing to
    cancellation at any t.
    """
    import numpy as np

    x = d2[0] / t
    total = np.log1p(x)
    r = np.zeros_like(x)
    for i in range(1, len(d2)):
        r = s2[i - 1] * (1.0 + r) / (t * (1.0 + x))
        x = d2[i] / t + r
        total += np.log1p(x)
    return total


def _mc_chunk(dims: ChannelDims, t: float, count: int, seed: int, chunk: int):
    """(count, mean, sum of squared deviations) for one deterministic chunk.

    Each chunk owns a counter-based Philox stream keyed by (seed, chunk
    index), so results do not depend on scheduling.  Samples come from the
    bidiagonal Laguerre model (Dumitriu & Edelman, "Matrix models for beta
    ensembles", J. Math. Phys. 43, 2002): for beta = 2 the eigenvalues of
    H H* are distributed as those of B B^T, where B is lower bidiagonal
    with B[i, i]^2 ~ Gamma(n - i) and B[i, i-1]^2 ~ Gamma(m - i), all
    independent (chi^2_2k / 2 = Gamma(k) carries the unit entry variance).
    Each sample costs 2m - 1 gamma draws and an O(m) pivot recurrence.
    Samples are drawn and reduced in blocks of _MC_BLOCK.
    """
    import numpy as np

    m, n = dims.m, dims.n
    gen = np.random.Generator(np.random.Philox(key=(chunk << 64) | seed))
    blocks = []
    for start in range(0, count, _MC_BLOCK):
        size = min(_MC_BLOCK, count - start)
        d2 = np.empty((m, size))
        s2 = np.empty((m - 1, size))
        for i in range(m):
            d2[i] = gen.standard_gamma(n - i, size)
        for i in range(m - 1):
            s2[i] = gen.standard_gamma(m - 1 - i, size)
        mi = _log_det_bidiagonal(d2, s2, t)
        mean = float(np.mean(mi))
        blocks.append((size, mean, float(np.sum((mi - mean) ** 2))))
    return functools.reduce(_chan_merge, blocks)


def monte_carlo_mi(
    dims: ChannelDims,
    t: float,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> McReport:
    """Sample mean of ln det(I + H H*/t) over random Rayleigh channels.

    H entries are i.i.d. complex Gaussian, zero mean, unit variance
    (variance 1/2 per real part); see _mc_chunk for how the samples are
    drawn.  Samples are split into `workers` chunks (at most
    _MC_MAX_WORKERS), run on at most os.cpu_count() threads.  The chunk
    reduction runs in fixed index order so the report is bit-identical
    across runs and thread schedules for the same (seed, samples, workers).
    """
    _check_t(t)
    if samples < 100:
        raise ValueError(f"need samples >= 100, got {samples}")
    if not 1 <= workers <= samples:
        raise ValueError(f"need 1 <= workers <= samples={samples}, got {workers}")
    if workers > _MC_MAX_WORKERS:
        raise ValueError(f"need workers <= {_MC_MAX_WORKERS}, got {workers}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    base, rem = divmod(samples, workers)
    counts = [base + 1 if c < rem else base for c in range(workers)]
    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        stats = list(
            pool.map(lambda c: _mc_chunk(dims, t, counts[c], seed, c), range(workers))
        )
    # Chan's pairwise combination, applied left to right in chunk order.
    n_tot, mean, m2 = functools.reduce(_chan_merge, stats)
    std_error = math.sqrt(m2 / (n_tot - 1) / n_tot)
    return McReport(
        dims=dims,
        t=t,
        samples=samples,
        mean=mean,
        std_error=std_error,
        seed=seed,
        worker_count=workers,
    )


def _log_gamma_integral(k: int, t: float) -> float:
    """Closed form of int_t^inf x^k e^-x ln x dx:
    Gamma(k+1, t) ln t + k! sum_{s=0}^{k} Gamma(s, t)/s!."""
    tail = sum(upper_gamma_int(s, t) / math.factorial(s) for s in range(k + 1))
    return upper_gamma_int(k + 1, t) * math.log(t) + math.factorial(k) * tail


def lemma1_check(k: int, t: float) -> tuple[float, float]:
    """Quadrature vs closed form for int_t^inf x^k e^-x ln x dx."""
    _check_t(t)
    if not 0 <= k <= 20:
        raise ValueError(f"need 0 <= k <= 20, got {k}")
    import numpy as np

    lhs, _ = _quad(_decaying(lambda x: x**k * np.log(x)), t, math.inf)
    return lhs, _log_gamma_integral(k, t)


def _comb0(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def a_pq_check(p: int, q: int, dims: ChannelDims, t: float) -> tuple[float, float]:
    """Shifted-Laguerre integral vs its triple-sum expansion.

    integral = e^t int_t^inf L_p^(a+1)(x-t) L_q^(a+1)(x-t) (x-t)^(n-m)
    e^-x ln x dx with a = n-m; expansion is the same quantity computed
    through binomial re-expansion and the log-weighted gamma integrals.
    """
    m, n = dims.m, dims.n
    if not (0 <= p <= m and 0 <= q <= m):
        raise ValueError(f"degrees must lie in [0, m]={m}, got p={p}, q={q}")
    _check_t(t)
    import numpy as np

    alpha = n - m

    # In y = x - t, e^t e^-x = e^-y: the substitution absorbs the e^t factor.
    integrand = _decaying(
        lambda y: laguerre_eval(p, alpha + 1, y)
        * laguerre_eval(q, alpha + 1, y)
        * y**alpha
        * np.log(t + y)
    )
    integral, _ = _quad(integrand, 0.0, math.inf)

    terms = []
    for i in range(p + q + 1):
        for j in range(i + 1):
            outer = (
                (-1) ** i
                / (math.factorial(j) * math.factorial(i - j))
                * _comb0(alpha + 1 + q, q - j)
                * _comb0(alpha + 1 + p, p - i + j)
            )
            if outer == 0:
                continue
            for k in range(i + alpha + 1):
                terms.append(
                    outer
                    * math.comb(i + alpha, k)
                    * (-t) ** (i + alpha - k)
                    * _log_gamma_integral(k, t)
                )
    expansion = math.exp(t) * math.fsum(terms)
    return integral, expansion


def lnt_identity_check(dims: ChannelDims, t: float) -> float:
    """The cancellation identity behind removing ln t from the closed form:
    returns e^t sum_ij c_ij sum_k C(i+n-m, k) (-t)^(i+n-m-k) Gamma(k+1, t),
    which must equal m."""
    _check_t(t)
    m, n = dims.m, dims.n
    terms = []
    for i in range(2 * m - 1):
        for j in range(i + 1):
            c = float(coeff_c(i, j, dims))
            if c == 0.0:
                continue
            d = i + n - m
            for k in range(d + 1):
                terms.append(
                    c * math.comb(d, k) * (-t) ** (d - k) * upper_gamma_int(k + 1, t)
                )
    return math.exp(t) * math.fsum(terms)
