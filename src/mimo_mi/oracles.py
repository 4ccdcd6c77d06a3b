"""Independent ground-truth computations for the closed form.

Three oracles that share no code path with the exact-coefficient route:
the eigenvalue-density integral representation evaluated by
double-exponential quadrature, the one-point eigenvalue density itself
(the Laguerre sum), and Monte Carlo over Rayleigh channels, whose
eigenvalues are drawn from the bidiagonal Laguerre model of H H* in O(m)
per sample.  Every integral here is over [a, inf) of a function that is
smooth on (a, inf), with any singularity at a alone: the one integrator,
_quad, is built for that class and raises ConvergenceError outside it.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .coefficients import ChannelDims, _check_work
from .evaluator import EvaluationResult, Method
from .special_functions import _check_t


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


# _quad's level-0 step and node indices, u = k h: u in [-5, 7] (193 nodes).
_DE_STEP = 1 / 16
_DE_RANGE = (-80, 112)
# Most levels one _quad call may add after level 0 before it gives up.
_MAX_LEVELS = 6
# The error estimate's roundoff floor, in ulps of the sum of |terms|.
_ROUNDOFF_ULPS = 50


def _quad(
    f, a: float, rel_tol: float = 1e-12, abs_tol: float = 1e-13, scale: float = 1.0
) -> tuple[float, float]:
    """(integral of f over [a, inf), error estimate) by the double-exponential
    rule (Takahasi & Mori, Publ. RIMS 9, 1974; Mori & Sugihara, J. Comput.
    Appl. Math. 127, 2001): x = a + scale exp(u - e^-u), trapezoidal in u.

    Its scope is an f smooth on (a, inf) that decays like e^(-x/scale) times
    powers, with any singularity at a alone (x^-1/2, ln x): there the terms
    decay double exponentially at both ends and the rule converges
    exponentially.  Across a kink inside (a, inf) it converges slowly, and
    the call raises ConvergenceError.

    f takes and returns numpy arrays.  Level 0 is one call of f on the fixed
    range u in [-5, 7] (x from about 1e-67 to 1096 scales).  Each later level
    halves the step and calls f at the new midpoints alone, until |S_h - S_2h|
    (S_2h: every other node) plus the outermost terms is within the tolerance
    max(abs_tol, rel_tol |integral|); a roundoff floor is then added.  Raises
    ConvergenceError if f is not finite at a node, if an outermost level-0
    term exceeds a quarter of that tolerance, or after _MAX_LEVELS levels.
    """
    def terms(k, h):
        # phi'(u) f(a + phi(u)) at u = k h, phi(u) = scale exp(u - e^-u)
        e = np.exp(-k * h)
        x = scale * np.exp(k * h - e)
        fx = f(a + x)
        if not np.all(np.isfinite(fx)):
            raise ConvergenceError(f"integrand not finite on [{a}, inf]")
        return fx * (x * (1.0 + e))

    h = _DE_STEP
    lo, hi = _DE_RANGE
    # terms reports an f that overflows or divides by zero; numpy need not.
    with np.errstate(all="ignore"):
        g = terms(np.arange(lo, hi + 1), h)
        quarter_tol = max(abs_tol, rel_tol * h * abs(g.sum())) / 4
        if h * abs(g[0]) > quarter_tol or h * abs(g[-1]) > quarter_tol:
            raise ConvergenceError(
                f"integrand on [{a}, inf] not negligible at u = {lo * h} or {hi * h}"
            )
        value, coarse = h * g.sum(), 2 * h * g[::2].sum()
        mass, edge = h * np.abs(g).sum(), h * (abs(g[0]) + abs(g[-1]))
        level = 0
        while abs(value - coarse) + edge > max(abs_tol, rel_tol * abs(value)):
            if level == _MAX_LEVELS:
                raise ConvergenceError(
                    f"quadrature on [{a}, inf] needs more than {_MAX_LEVELS} levels"
                )
            h, edge, coarse = h / 2, edge / 2, value
            new = terms(np.arange(lo << level, hi << level) * 2 + 1, h)
            value = value / 2 + h * new.sum()
            mass = mass / 2 + h * np.abs(new).sum()
            level += 1
    err = abs(value - coarse) + edge + _ROUNDOFF_ULPS * np.finfo(float).eps * mass
    return float(value), float(err)


def _root_weight(alpha: int, lam):
    """sqrt(e^-lam lam^alpha / alpha!) at lam >= 0, in long double, from
    its log: in float64 its terms of size ~lam cost that many ulps."""
    x = np.asarray(lam, dtype=np.longdouble)
    if not alpha:
        return np.exp(-0.5 * x)
    log_fact = np.log(np.arange(1, alpha + 1, dtype=np.longdouble)).sum()
    with np.errstate(divide="ignore"):
        return np.exp(0.5 * (alpha * np.log(x) - x - log_fact))


# Every 8 steps, _weighted_kernel scales down the nodes whose running sum
# of squares exceeds this; the 8 steps to the next check cannot overflow it.
_RESCALE_AT = 2.0**400


def _weighted_kernel(m: int, alpha: int, lam):
    """e^-lam lam^alpha K(lam), K(lam) = sum_{k<m} k!/(alpha+k)! L_k^(alpha)(lam)^2,
    at lam >= 0, a float or a numpy array.

    One pass of the three-term recurrence of the orthonormal polynomials
    l_k = sqrt(k!/(alpha+k)!) L_k^(alpha), each times _root_weight.  That
    weight enters as a float64 mantissa with its power-of-two exponent
    carried beside it, and the running sum of squares is scaled down by
    powers of two as it grows: every term is a square, and neither the
    weight's underflow nor the polynomials' growth loses the product.
    """
    cur, exponent = np.frexp(_root_weight(alpha, lam))
    cur = cur.astype(float)
    prev, total = 0.0, cur * cur
    for k in range(m - 1):
        if k % 8 == 7 and np.any(total > _RESCALE_AT):
            shift = np.where(total > _RESCALE_AT, np.frexp(total)[1] // 2, 0)
            cur, prev = np.ldexp(cur, -shift), np.ldexp(prev, -shift)
            total, exponent = np.ldexp(total, -2 * shift), exponent + shift
        prev, cur = cur, (
            (2 * k + 1 + alpha - lam) * cur - math.sqrt(k * (alpha + k)) * prev
        ) / math.sqrt((k + 1) * (alpha + k + 1))
        total = total + cur * cur
    return np.ldexp(total, 2 * exponent)


def one_point_density(dims: ChannelDims, lam: float) -> float:
    """Marginal density of one unordered eigenvalue of H H*: the Laguerre
    sum over degrees 0..m-1 (_weighted_kernel / m), which integrates to 1.
    Raises ValueError for a negative or NaN lam, and for dims build_table
    refuses; at lam = inf it is 0.
    """
    if not lam >= 0:
        raise ValueError(f"need lambda >= 0, got {lam}")
    _check_work(dims)
    if lam == math.inf:
        return 0.0
    return float(_weighted_kernel(dims.m, dims.n - dims.m, lam) / dims.m)


def _lam_scale(dims: ChannelDims) -> float:
    """_quad's scale for the density: 2^floor(log2 n), near its mean n."""
    return float(1 << (dims.n.bit_length() - 1))


def density_moment(dims: ChannelDims, power: int = 0) -> float:
    """integral of lambda^power * p(lambda) over [0, inf)."""
    _check_work(dims)
    m, alpha = dims.m, dims.n - dims.m

    def integrand(lam):
        return lam**power * (_weighted_kernel(m, alpha, lam) / m)

    val, _ = _quad(integrand, 0.0, scale=_lam_scale(dims))
    return val


def telatar_quadrature(dims: ChannelDims, t: float) -> EvaluationResult:
    """E[I] from the density-integral representation by quadrature.

    One integral over [0, inf) of ln(1 + lam/t) e^-lam lam^alpha K(lam),
    where K(lam) = sum_{k<m} k!/(alpha+k)! (L_k^(alpha)(lam))^2 comes from
    one pass of the Laguerre recurrence at every node (_weighted_kernel).
    err_estimate is the integrator's own.  Dims beyond build_table's: ValueError.
    """
    t = _check_t(t)
    _check_work(dims)
    m, n, alpha = dims.m, dims.n, dims.n - dims.m

    def integrand(lam):
        log = np.log1p(lam / t)
        if np.isinf(log).any():  # lam/t overflows: ln lam - ln t there
            log = np.where(np.isinf(log), np.log(lam) - math.log(t), log)
        return log * _weighted_kernel(m, alpha, lam)

    # E[I] >= mn / (t + (m+n)/2) by Jensen's inequality.  Where that bound
    # is below 1e-3, abs_tol shrinks with it, so that a small E[I] (large
    # t) is still integrated to a relative tolerance.
    lower = m * n / (t + (m + n) / 2.0)
    abs_tol = 1e-13 * min(1.0, 1e3 * lower)
    value, err = _quad(integrand, 0.0, 1e-12, abs_tol, _lam_scale(dims))
    return EvaluationResult(
        dims=dims, t=t, value=value, method=Method.QUADRATURE, err_estimate=err
    )


class McReport(NamedTuple):
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
        import json

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


# Most samples drawn and reduced at once inside a chunk: each row of B is
# drawn into one of two 64 KiB buffers, which stay in cache whatever m is.
_MC_BLOCK = 2**13
# Most chunks (`workers`) one call may split its samples into: each chunk
# is a list entry and a future, built before any sample is drawn.
_MC_MAX_WORKERS = 1024
# Most gamma draws, samples * (2m - 1), one call may make.  One worker
# makes 1.7e7 to 2.8e7 a second (2x2 to 8x8, a 2-core Xeon) in full
# blocks at any m, so this allows 6 to 10 minutes; a larger request would
# run for hours, or for centuries, before it returned.
_MC_MAX_DRAWS = 10**10
# Most row steps, m per block, one call may make: a step of a block of a
# few samples costs about 11 us whatever its size (a 2-core Xeon), so this
# allows about 10 minutes where chunks are too small to fill their blocks.
_MC_MAX_ROW_STEPS = 5 * 10**7


def _check_mc_request(
    dims: ChannelDims, samples: int, seed: int, workers: int
) -> tuple[int, int, int, list[int]]:
    """Raise TypeError unless samples, seed and workers are integers, and
    ValueError unless monte_carlo_mi can take them at these dims, before
    any thread starts or any sample is drawn; else return them as ints and
    the sample count of each chunk."""
    ints = []
    for name, value in zip(("samples", "seed", "workers"), (samples, seed, workers)):
        try:
            ints.append(operator.index(value))
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None
    samples, seed, workers = ints
    if samples < 100:
        raise ValueError(f"need samples >= 100, got {samples}")
    if not 1 <= workers <= samples:
        raise ValueError(f"need 1 <= workers <= samples={samples}, got {workers}")
    if workers > _MC_MAX_WORKERS:
        raise ValueError(f"need workers <= {_MC_MAX_WORKERS}, got {workers}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    draws = samples * (2 * dims.m - 1)
    if draws > _MC_MAX_DRAWS:
        raise ValueError(
            f"{samples} samples at m={dims.m} take {draws} gamma draws"
            f" (2m - 1 each), more than the {_MC_MAX_DRAWS} allowed"
        )
    base, rem = divmod(samples, workers)
    counts = [base + 1 if c < rem else base for c in range(workers)]
    steps = dims.m * sum(-(-count // _MC_BLOCK) for count in counts)
    if steps > _MC_MAX_ROW_STEPS:
        raise ValueError(
            f"{samples} samples in {workers} chunks at m={dims.m} take {steps}"
            f" row steps (m per block of {_MC_BLOCK}), more than the"
            f" {_MC_MAX_ROW_STEPS} allowed"
        )
    return samples, seed, workers, counts


def _chan_merge(a, b):
    """Chan's pairwise combination of two (count, mean, sum of squared
    deviations) triples."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * n_b / n, m2_a + (m2_b + delta * delta * n_a * n_b / n)


def _log_det_bidiagonal(rows, t: float):
    """ln det(I + B B^T/t) for each sample, from the rows of B in order.

    B is m x m lower bidiagonal.  For i = 0..m-1 the iterator rows yields
    (d2_i, s2_i) = (B[i, i]^2, B[i, i-1]^2) over the samples (s2_0 unused),
    each used before the next is drawn, so the rows may share buffers.
    I + B B^T/t is tridiagonal, and its LU pivots p_i give the determinant.
    With r_0 = 0 and p_0 - 1 = d2_0/t, each later pivot is
    p_i - 1 = d2_i/t + r_i with r_i = s2_i (1 + r_{i-1}) / (t p_{i-1}),
    a sum of positive terms, so sum_i log1p(p_i - 1) loses nothing to
    cancellation at any t.
    """
    x = next(rows)[0] / t
    total = np.log1p(x)
    r = np.zeros_like(x)
    log = np.empty_like(x)
    for d2, s2 in rows:
        # r = s2 (1 + r) / (t (1 + x)), then x = d2/t + r, in place
        np.multiply(np.add(r, 1.0, out=r), s2, out=r)
        np.divide(r, np.multiply(np.add(x, 1.0, out=x), t, out=x), out=r)
        np.add(np.divide(d2, t, out=x), r, out=x)
        total += np.log1p(x, out=log)
    return total


def _mc_chunk(
    dims: ChannelDims, t: float, count: int, seed: int, chunk: int, scale: int = 0
):
    """(count, mean, sum of squared deviations) of 2^scale times
    ln det(I + H H*/t) over one deterministic chunk of samples.

    Chunk c draws from its own PCG64DXSM stream (O'Neill, "PCG: a family
    of simple fast space-efficient statistically good algorithms for
    random number generation", 2014) seeded by SeedSequence(seed,
    spawn_key=(c,)), so the chunks of one seed draw independent streams
    and results do not depend on scheduling.  Samples come from the
    bidiagonal Laguerre model (Dumitriu & Edelman, "Matrix models for beta
    ensembles", J. Math. Phys. 43, 2002): for beta = 2 the eigenvalues of
    H H* are distributed as those of B B^T, where B is lower bidiagonal
    with B[i, i]^2 ~ Gamma(n - i) and B[i, i-1]^2 ~ Gamma(m - i), all
    independent (chi^2_2k / 2 = Gamma(k) carries the unit entry variance).
    Each sample costs 2m - 1 gamma draws and an O(m) pivot recurrence, with
    B drawn row by row (d2_i, then s2_i) into two _MC_BLOCK buffers that
    every row of every block reuses.  The exact factor 2^scale keeps the
    squared deviations clear of underflow where ln det is tiny (large t).
    """
    m, n = dims.m, dims.n
    stream = np.random.SeedSequence(seed, spawn_key=(chunk,))
    gen = np.random.Generator(np.random.PCG64DXSM(stream))
    d2, s2 = np.empty((2, min(_MC_BLOCK, count)))

    def rows(size):
        for i in range(m):
            d = gen.standard_gamma(n - i, out=d2[:size])
            yield d, gen.standard_gamma(m - i, out=s2[:size]) if i else None

    blocks = []
    for start in range(0, count, _MC_BLOCK):
        size = min(_MC_BLOCK, count - start)
        # At t <~ 1e-307, d2/t overflows; monte_carlo_mi rejects the
        # resulting inf or nan, so numpy need not warn about it.
        with np.errstate(all="ignore"):
            mi = np.ldexp(_log_det_bidiagonal(rows(size), t), scale)
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
    Raises ValueError if the request would take more than _MC_MAX_DRAWS
    gamma draws or _MC_MAX_ROW_STEPS row steps, or if the mean or its
    standard error is not finite.
    """
    t = _check_t(t)
    samples, seed, workers, counts = _check_mc_request(dims, samples, seed, workers)
    # ln det(I + H H*/t) ~ tr(H H*)/t at large t, whose squared deviations
    # would underflow: reduce 2^scale times it, with 2^scale ~ t.
    scale = max(0, math.frexp(t)[1])
    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        stats = list(
            pool.map(
                lambda c: _mc_chunk(dims, t, counts[c], seed, c, scale),
                range(workers),
            )
        )
    # Chan's pairwise combination, applied left to right in chunk order.
    n_tot, mean, m2 = functools.reduce(_chan_merge, stats)
    mean = math.ldexp(mean, -scale)
    std_error = math.ldexp(math.sqrt(m2 / (n_tot - 1) / n_tot), -scale)
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise ValueError(
            f"Monte Carlo at t={t} gave mean={mean}, std_error={std_error}: "
            "ln det(I + H H*/t) overflows a float at this t"
        )
    return McReport(
        dims=dims,
        t=t,
        samples=samples,
        mean=mean,
        std_error=std_error,
        seed=seed,
        worker_count=workers,
    )
