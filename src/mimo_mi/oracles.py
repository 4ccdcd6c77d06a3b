"""Independent ground-truth computations for the closed form.

Three oracles that share no code path with the exact-coefficient route:
the eigenvalue-density integral representation evaluated by adaptive
quadrature, the one-point eigenvalue density itself (two algebraic
forms), and Monte Carlo over random complex Gaussian channel matrices.
Also numerical checks of the log-weighted gamma integral identity and
the shifted-Laguerre integral expansion that the derivation rests on.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .coefficients import ChannelDims, coeff_c
from .evaluator import EvaluationResult, Method
from .special_functions import laguerre_coeffs, laguerre_eval, upper_gamma_int


class ConvergenceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-13
    max_subdivisions: int = 500
    # Upper integration limit is n + tail_cutoff_multiplier * (sqrt(n) + 10);
    # the default pushes the analytic tail bound well below 1e-10.
    tail_cutoff_multiplier: float = 6.0

    def __post_init__(self):
        if self.rel_tol < 1e-13:
            raise ValueError("rel_tol tighter than 1e-13 is not achievable")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.max_subdivisions <= 10**6:
            raise ValueError("max_subdivisions must be in (0, 10^6]")
        if self.tail_cutoff_multiplier <= 0:
            raise ValueError("tail_cutoff_multiplier must be positive")

    def upper_limit(self, n: int) -> float:
        return n + self.tail_cutoff_multiplier * (math.sqrt(n) + 10.0)


def _quad(f, a, b, cfg: QuadratureConfig) -> tuple[float, float]:
    """scipy adaptive Gauss-Kronrod wrapper that refuses to degrade silently."""
    from scipy import integrate

    out = integrate.quad(
        f,
        a,
        b,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        full_output=1,
    )
    if len(out) > 3:
        raise ConvergenceError(f"quadrature on [{a}, {b}] failed: {out[3]}")
    return out[0], out[1]


def one_point_density(dims: ChannelDims, lam: float, form: str = "sum_form") -> float:
    """Marginal density of one unordered eigenvalue of H H*.

    'sum_form' is the Laguerre sum over degrees 0..m-1; 'two_term_form'
    is the Christoffel-Darboux style expression with only three Laguerre
    factors (L of negative degree taken as zero).  Both integrate to 1.
    """
    if lam < 0:
        raise ValueError(f"need lambda >= 0, got {lam}")
    m, n = dims.m, dims.n
    alpha = n - m
    if form == "sum_form":
        acc = 0.0
        for k in range(m):
            pref = math.factorial(k) / math.factorial(alpha + k)
            acc += pref * laguerre_eval(k, alpha, lam) ** 2
        return math.exp(-lam) * lam**alpha * acc / m
    if form == "two_term_form":
        pref = math.factorial(m - 1) / math.factorial(n - 1)
        lm1 = laguerre_eval(m - 1, alpha + 1, lam)
        cross = 0.0
        if m >= 2:
            cross = laguerre_eval(m - 2, alpha + 1, lam) * laguerre_eval(
                m, alpha + 1, lam
            )
        return pref * lam**alpha * math.exp(-lam) * (lm1**2 - cross)
    raise ValueError(f"unknown density form {form!r}")


def density_moment(
    dims: ChannelDims,
    power: int = 0,
    form: str = "sum_form",
    cfg: QuadratureConfig | None = None,
) -> float:
    """integral of lambda^power * p(lambda) over [0, inf)."""
    cfg = cfg or QuadratureConfig()
    val, _ = _quad(
        lambda lam: lam**power * one_point_density(dims, lam, form),
        0.0,
        math.inf,
        cfg,
    )
    return val


def telatar_quadrature(
    dims: ChannelDims, t: float, cfg: QuadratureConfig | None = None
) -> EvaluationResult:
    """E[I] from the density-integral representation by adaptive quadrature.

    Integrates sum_k k!/(alpha+k)! int ln(1+lam/t) e^-lam lam^alpha
    (L_k^(alpha))^2 dlam over a truncated range; the truncation tail is
    bounded analytically (ln(1+x/t) <= x/t plus an incomplete-gamma
    bound on the polynomial part) and added to err_estimate.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"need finite t > 0, got t={t}")
    cfg = cfg or QuadratureConfig()
    m, n = dims.m, dims.n
    alpha = n - m
    upper = cfg.upper_limit(n)
    total = 0.0
    err = 0.0
    for k in range(m):
        pref = math.factorial(k) / math.factorial(alpha + k)

        def integrand(lam, k=k):
            return (
                math.log1p(lam / t)
                * math.exp(-lam)
                * lam**alpha
                * laguerre_eval(k, alpha, lam) ** 2
            )

        val, abserr = _quad(integrand, 0.0, upper, cfg)
        total += pref * val
        err += pref * abserr
        # Tail: bound the degree-d polynomial by (sum |coeffs|) x^d for x >= 1.
        poly = (laguerre_coeffs(k, alpha) * laguerre_coeffs(k, alpha)).shift_up(alpha)
        coeff_mass = float(sum(abs(c) for c in poly.coeffs))
        err += pref * coeff_mass / t * upper_gamma_int(poly.degree + 2, upper)
    return EvaluationResult(
        dims=dims, t=t, value=total, method=Method.QUADRATURE, err_estimate=err
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


def _mc_chunk(dims: ChannelDims, t: float, count: int, seed: int, chunk: int):
    """(count, mean, sum of squared deviations) for one deterministic chunk.

    Each chunk owns a counter-based Philox stream keyed by (seed, chunk
    index), so results do not depend on scheduling.  Complex Gaussians
    come from Box-Muller on the uniform stream; per-sample mutual
    information is 2 sum ln diag(chol(I + H H*/t)), with a Hermitian
    eigenvalue fallback should the Cholesky factorization fail.
    """
    import numpy as np

    m, n = dims.m, dims.n
    gen = np.random.Generator(np.random.Philox(key=(chunk << 64) | seed))
    u = gen.random((count, m, n, 2))
    radius = np.sqrt(-np.log1p(-u[..., 0]))
    angle = 2.0 * np.pi * u[..., 1]
    h = radius * np.cos(angle) + 1j * radius * np.sin(angle)
    gram = np.eye(m) + h @ h.conj().swapaxes(-1, -2) / t
    try:
        chol = np.linalg.cholesky(gram)
        diag = np.real(np.diagonal(chol, axis1=-2, axis2=-1))
        mi = 2.0 * np.sum(np.log(diag), axis=-1)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(gram)
        mi = np.sum(np.log(eigs), axis=-1)
    mean = float(np.mean(mi))
    m2 = float(np.sum((mi - mean) ** 2))
    return count, mean, m2


def monte_carlo_mi(
    dims: ChannelDims,
    t: float,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> McReport:
    """Sample mean of ln det(I + H H*/t) over random Rayleigh channels.

    H entries are i.i.d. complex Gaussian, zero mean, unit variance
    (variance 1/2 per real part).  The chunk reduction runs in fixed
    index order so the report is bit-identical across runs and thread
    schedules for the same (seed, samples, workers).
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"need finite t > 0, got t={t}")
    if samples < 100:
        raise ValueError(f"need samples >= 100, got {samples}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    base, rem = divmod(samples, workers)
    counts = [base + 1 if c < rem else base for c in range(workers)]
    jobs = [(c, cnt) for c, cnt in enumerate(counts) if cnt > 0]
    if workers == 1:
        stats = [_mc_chunk(dims, t, cnt, seed, c) for c, cnt in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(
                pool.map(lambda job: _mc_chunk(dims, t, job[1], seed, job[0]), jobs)
            )
    # Chan's pairwise combination, applied left to right in chunk order.
    n_tot, mean, m2 = stats[0]
    for cnt, mu, dev in stats[1:]:
        delta = mu - mean
        new_n = n_tot + cnt
        mean += delta * cnt / new_n
        m2 += dev + delta * delta * n_tot * cnt / new_n
        n_tot = new_n
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


def lemma1_check(
    k: int, t: float, cfg: QuadratureConfig | None = None
) -> tuple[float, float]:
    """Quadrature vs closed form for int_t^inf x^k e^-x ln x dx."""
    if t <= 0:
        raise ValueError(f"need t > 0, got t={t}")
    if not 0 <= k <= 20:
        raise ValueError(f"need 0 <= k <= 20, got {k}")
    cfg = cfg or QuadratureConfig()
    lhs, _ = _quad(lambda x: x**k * math.exp(-x) * math.log(x), t, math.inf, cfg)
    return lhs, _log_gamma_integral(k, t)


def _comb0(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def a_pq_check(
    p: int,
    q: int,
    dims: ChannelDims,
    t: float,
    cfg: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """Shifted-Laguerre integral vs its triple-sum expansion.

    integral = e^t int_t^inf L_p^(a+1)(x-t) L_q^(a+1)(x-t) (x-t)^(n-m)
    e^-x ln x dx with a = n-m; expansion is the same quantity computed
    through binomial re-expansion and the log-weighted gamma integrals.
    """
    m, n = dims.m, dims.n
    if not (0 <= p <= m and 0 <= q <= m):
        raise ValueError(f"degrees must lie in [0, m]={m}, got p={p}, q={q}")
    if t <= 0:
        raise ValueError(f"need t > 0, got t={t}")
    cfg = cfg or QuadratureConfig()
    alpha = n - m

    def integrand(x):
        y = x - t
        return (
            laguerre_eval(p, alpha + 1, y)
            * laguerre_eval(q, alpha + 1, y)
            * y**alpha
            * math.exp(-x)
            * math.log(x)
        )

    raw, _ = _quad(integrand, t, math.inf, cfg)
    integral = math.exp(t) * raw

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
    if t <= 0:
        raise ValueError(f"need t > 0, got t={t}")
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
