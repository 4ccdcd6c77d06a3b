"""Evaluate the closed form and render it symbolically.

E[I] = A(t) + e^t Ei(-t) B(t), with A and B exact rational polynomials.
Both parts grow like t^(n+m-3) while E[I] decays like mn/t, so they are
never rounded before they are combined.  Each point takes one of two
routes, and each gives a rigorous err_estimate:

- Stieltjes (large t, low SNR).  The closed form equals
  int_0^inf e^-u beta(u) / (t + u) du with beta(u) = -B(-u) > 0, since
  e^-u beta(u) is m times the survival function of one unordered
  eigenvalue.  The 128-point Gauss-Laguerre rule makes it a sum of
  positive terms, sum_i c_i / (t + x_i) with c_i = w_i beta(x_i).  The
  Gauss remainder is at most |B|_1(t) / (t L_128(-t)^2) (Gautschi,
  "Orthogonal Polynomials: Computation and Approximation", 2004), where
  |B|_1 sums |b_k| t^k; the route is taken only where that is at most
  1e-14 of the lower bound mn / (t + (m+n)/2), which Jensen's inequality
  gives from the measure's first two moments.
- Exact (everywhere else).  A(t) and B(t) are summed in integers on the
  table's common denominator, with t = p/q the exact ratio of the input
  float, then combined with e^t E1(t) = man 2^exp at just enough bits for
  their cancellation, in one integer division that rounds once.

The certificate.  The Stieltjes remainder test costs a float Horner sum
and three lgamma calls a point, and below about t = 0.5 it always fails,
so a cheaper test sends such points straight to the exact route.  The
remainder test fails where ln |B|_1(t) - ln t - 2 ln L~(t) > ln(1e-14 mn)
- ln(t + (m+n)/2), with L~(t) the largest term of L_128(-t).  Now
|B|_1(t) >= |b_0| = m, and each term of L_128(-t) is C(128, k) t^k / k!
<= (128 t)^k / (k!)^2 <= I_0(2 sqrt(128 t)) <= e^(2 sqrt(128 t)), so the
test fails wherever
  ln m - ln t - 4 sqrt(128 t) > ln(1e-14 mn) - ln(t + (m+n)/2) + 1,
that is, wherever ln(1 + (m+n)/(2t)) - ln(1e-14 n) - 1 > 4 sqrt(128 t).
Each side of either test is a sum of a few logs, lgammas, square roots
and products, each below 2e5 in size and off by a few ulps at most, so
their rounding is below 1e-9 nats, which the 1 nat covers.  A point
skips only a test whose outcome is already known, and its bytes do not
change.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from ._gauss_laguerre import NODES, WEIGHTS
from .coefficients import ChannelDims, CoefficientTable
from .special_functions import _check_t, ei_exp_scaled

# The Stieltjes route is taken where its remainder bound is at most this
# share of the lower bound on E[I].
_STIELTJES_REL = 1e-14
# Nodes at the top of the rule whose w_i |B|_1(x_i) is below this share of
# mn are dropped; their sum is added to the err_estimate.
_TRIM_REL = 1e-18
# Highest degree of beta for which the rule integrates beta(u) and
# u beta(u) exactly, as the error bounds of the Stieltjes route assume.
_MAX_DEGREE = 2 * len(NODES) - 2
# Bits of e^t E1(t) the exact route keeps beyond those its cancellation
# takes: the combination is then good to about 2^-62 of the lower bound.
_EXACT_BITS = 64
# Most bits the exact route may take; its cost grows about quadratically
# (1.6 s at 77,000 bits).  Only tables with no Stieltjes rule reach it, at
# huge t, since they take the exact route at every t: a rule needs beta's
# degree at most _MAX_DEGREE, every |b_k| above a float's underflow and
# every node's mass below its overflow.  So 1x181 at t = 1e300, and 100x150
# and 127x127 at t = 1e100, are a ValueError, as is 1x300 at t = 1e300.
_MAX_EXACT_BITS = 2**16
# ln (128!), for the largest term of L_128(-t)
_LN_FACT_M = math.lgamma(len(NODES) + 1)
# 4 sqrt(128): twice the exponent of the certificate's bound on L_128(-t)
_CERT_SLOPE = 4.0 * math.sqrt(len(NODES))
# Each node as (p, e) with x_i = p / 2^e, and each weight as its integer
# ratio, for the rule's exact Horner sums.
_NODE_RATIOS = tuple(
    (p, q.bit_length() - 1) for p, q in map(float.as_integer_ratio, NODES)
)
_WEIGHT_RATIOS = tuple(map(float.as_integer_ratio, WEIGHTS))


class Method(str, enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


class EvaluationResult(NamedTuple):
    """One E[I] value in nats at inverse SNR t, with provenance."""

    dims: ChannelDims
    t: float
    value: float
    method: Method
    err_estimate: float


class _StieltjesRule(NamedTuple):
    """E[I] ~ sum_i terms[i] / (t + nodes[i]) for one table, with what the
    error bounds of that sum need."""

    terms: tuple[float, ...]  # w_i beta(x_i), each rounded once
    nodes: tuple[float, ...]
    b_abs: tuple[float, ...]  # |b_k|, for |B|_1(t)
    tail: float  # sum of w_i |B|_1(x_i) over the dropped nodes
    first_dropped: float  # the smallest dropped node; inf if none


@functools.lru_cache(maxsize=None)
def _stieltjes_rule(
    dims: ChannelDims, b_num: tuple[int, ...], denominator: int
) -> _StieltjesRule | None:
    """The rule for the table whose b_k are b_num[k] / denominator, or
    None where the Stieltjes route does not apply: beta's degree is above
    _MAX_DEGREE, a |b_k| underflows a float or a node's w_i |B|_1(x_i)
    overflows one."""
    if len(b_num) - 1 > _MAX_DEGREE:
        return None
    b_abs = tuple(abs(c) / denominator for c in b_num)
    if any(c and not a for c, a in zip(b_num, b_abs)):
        return None
    threshold = _TRIM_REL * dims.m * dims.n
    keep, tail = len(NODES), 0.0
    while keep:
        x = NODES[keep - 1]
        acc = 0.0
        for c in reversed(b_abs):
            acc = acc * x + c
        mass = WEIGHTS[keep - 1] * acc
        if not math.isfinite(mass):
            return None
        if mass >= threshold:
            break
        tail += mass
        keep -= 1
    # beta_k = -(-1)^k b_k, highest degree first for Horner
    beta = [c if k % 2 else -c for k, c in enumerate(b_num)][::-1]
    terms = []
    for (p, step), (w_num, w_den) in zip(_NODE_RATIOS[:keep], _WEIGHT_RATIOS):
        # beta(x_i) = num / 2^shift exactly
        num, shift = 0, 0
        for c in beta:
            shift += step
            num = num * p + (c << shift)
        terms.append(num * w_num / ((w_den * denominator) << shift))
    return _StieltjesRule(
        terms=tuple(terms),
        nodes=NODES[:keep],
        b_abs=b_abs,
        tail=tail,
        first_dropped=NODES[keep] if keep < len(NODES) else math.inf,
    )


def _ln_laguerre_lower(t: float) -> float:
    """A lower bound on ln L_M(-t) = ln sum_k C(M, k) t^k / k!, M = 128:
    the log of its largest term."""
    order = len(NODES)
    if t >= order * order:
        k = order
    else:
        # the ratio of consecutive terms, (M - k) t / (k + 1)^2, falls
        # through 1 at this k
        k = int((math.sqrt((t + 2.0) ** 2 + 4.0 * (order * t - 1.0)) - t - 2.0) / 2.0)
        k = min(max(k, 0), order)
    return (
        _LN_FACT_M
        - math.lgamma(order - k + 1)
        - 2.0 * math.lgamma(k + 1)
        + k * math.log(t)
    )


def _stieltjes(
    rule: _StieltjesRule, dims: ChannelDims, t: float, lower: float
) -> tuple[float, float] | None:
    """(value, err_estimate) by the Gauss-Laguerre sum, or None where its
    remainder bound exceeds _STIELTJES_REL of `lower`."""
    acc = 0.0
    if t <= 1.0:
        for c in reversed(rule.b_abs):
            acc = acc * t + c
        ln_b1 = math.log(acc)
    else:
        # t^D sum_k |b_k| t^(k-D), which cannot overflow
        r = 1.0 / t
        for c in rule.b_abs:
            acc = acc * r + c
        ln_b1 = math.log(acc) + (len(rule.b_abs) - 1) * math.log(t)
    ln_remainder = ln_b1 - math.log(t) - 2.0 * _ln_laguerre_lower(t)
    if ln_remainder > math.log(_STIELTJES_REL * lower):
        return None
    value = math.fsum([c / (t + x) for c, x in zip(rule.terms, rule.nodes)])
    m, n = dims.m, dims.n
    # Rounding: the weights, the terms, t + x_i, each quotient and the sum
    # each add at most 2^-53 of the value.  Rounding the nodes adds at most
    # 2^-53 sum_i w_i x_i |f'(x_i)| with f(u) = beta(u) / (t + u); as
    # beta' = beta - pi with pi = m e^u p(u) >= 0 (p the eigenvalue
    # density), that is at most 2^-53 (value + sum_i w_i x_i (beta + pi)(x_i)
    # / (t + x_i)), and the rule sums the last exactly to at most
    # min(m(n+1), mn((m+n)/2 + 1) / t).  2^-50 covers all of it twice over.
    node_sum = m * min(n + 1.0, n * ((m + n) / 2.0 + 1.0) / t)
    err = (
        math.exp(ln_remainder)
        + 2.0 * rule.tail / (t + rule.first_dropped)
        + 2.0**-50 * (value + node_sum)
    )
    return value, err


def _exact(table: CoefficientTable, t: float, lower: float) -> tuple[float, float]:
    """(value, err_estimate) from the exact A(t) and B(t) and e^t E1(t) at
    just enough bits, rounded once."""
    # A(t) = num / den and B(t) = num_b / den exactly, by one Horner loop on
    # t = p / 2^step; a has one coefficient fewer than b
    p, q = t.as_integer_ratio()
    step = q.bit_length() - 1
    b_rev = reversed(table.b_num)
    num, num_b, shift = 0, next(b_rev) << step, step
    for c_a, c_b in zip(reversed(table.a_num), b_rev):
        shift += step
        num = num * p + (c_a << shift)
        num_b = num_b * p + (c_b << shift)
    den = table.denominator << shift
    # |A| < 2^bits_a and |B| e^t E1(t) < 2^bits_b, while lower >= 2^bits_lower.
    # e^t E1(t) < 1/t <= 2^e1_bits, and below t = 1 also e^t E1(t) <
    # ln(1 + 1/t) < ln 2 - ln t (Abramowitz & Stegun 5.1.20), whose exponent
    # gets a bit to spare for its rounding; above 1 the difference cancels.
    e1_bits = 1 - math.frexp(t)[1]
    if t < 1.0:
        e1_bits = min(e1_bits, math.frexp(math.log(2.0) - math.log(t))[1] + 1)
    bits_a = num.bit_length() - den.bit_length() + 1
    bits_b = num_b.bit_length() - den.bit_length() + 1 + e1_bits
    bits_lower = math.frexp(lower)[1] - 1
    prec = _EXACT_BITS + max(0, bits_a - bits_lower, bits_b - bits_lower)
    if prec > _MAX_EXACT_BITS:
        m, n = table.dims.m, table.dims.n
        raise ValueError(
            f"t={t} is too large for {m}x{n}: the closed form would need"
            f" {prec} bits (at most {_MAX_EXACT_BITS})"
        )
    # e^t Ei(-t) = -man 2^exp to within 2^-prec, and exp < 0: the series
    # gives exp = -work, and the S-fraction, which runs only where
    # e^t E1(t) < 4, gives exp <= 2 - bits
    man, exp = ei_exp_scaled(t, prec)
    num = (num << -exp) - man * num_b
    den <<= -exp
    value = num / den  # int / int true division rounds once
    return value, math.ldexp(1.0, bits_b + 2 - prec) + math.ulp(value)


def _round_up_2_digits(x: float) -> float:
    """The least two-significant-digit decimal >= x > 0, as a float: still
    a bound, without digits the bound does not mean."""
    text = f"{x:.1e}"
    y = float(text)
    if y >= x:
        return y
    digits, _, exp = text.partition("e")
    # 5.7e-16 -> 58e-17, 9.9e-16 -> 100e-17
    return float(f"{round(float(digits) * 10) + 1}e{int(exp) - 1}")


def _closed_form_rows(
    table: CoefficientTable, ts: Iterable[float]
) -> Iterator[tuple[ChannelDims, float, float, Method, float]]:
    """(dims, t, value, method, err_estimate), the fields of an
    EvaluationResult, for each t of `ts` in order, each finite and
    positive: one table's point loop, which looks its Stieltjes rule up
    once and skips its remainder test where the certificate in the
    module docstring shows that the test fails."""
    dims = table.dims
    mn, half = dims.m * dims.n, (dims.m + dims.n) / 2.0
    rule = _stieltjes_rule(dims, table.b_num, table.denominator)
    # The certificate fires where ln(1 + half/t) - ln(1e-14 n) - 1 exceeds
    # 4 sqrt(128 t); cut is its part that does not depend on t.
    cut = -math.log(_STIELTJES_REL * dims.n) - 1.0
    log1p, sqrt, closed_form = math.log1p, math.sqrt, Method.CLOSED_FORM
    for t in ts:
        lower = mn / (t + half)
        if rule is None or log1p(half / t) + cut > _CERT_SLOPE * sqrt(t):
            value, err = _exact(table, t, lower)
        else:
            value, err = _stieltjes(rule, dims, t, lower) or _exact(table, t, lower)
        yield dims, t, value, closed_form, _round_up_2_digits(err)


def evaluate_closed_form(table: CoefficientTable, t: float) -> EvaluationResult:
    """E[I] = sum a_k t^k + e^t Ei(-t) sum b_k t^k at finite inverse SNR
    t > 0, by the Stieltjes route where it is proven accurate and the
    exact route elsewhere (see the module docstring).  err_estimate
    bounds the error, rounded up to two significant digits."""
    t = _check_t(t)
    (row,) = _closed_form_rows(table, (t,))
    return EvaluationResult._make(row)


def _format_int_poly(coeffs: Sequence[int]) -> str:
    """Ascending-power rendering of an integer polynomial, e.g. 2 + t^2."""
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "t" if k == 1 else f"t^{k}"
            body = var if mag == 1 else f"{mag} {var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    if not parts:
        return "0"
    return " ".join(parts)


def render_expression(table: CoefficientTable) -> str:
    """Human-readable closed form with one common denominator factored out,
    e.g. table(2,2) renders as '1 - t - e^t Ei(-t) (2 + t^2)'."""
    lcd = table.denominator
    a_ints = table.a_num
    # The Ei factor enters with a leading minus so its polynomial prints
    # with a positive constant term (b_0 = -m).
    b_ints = [-c for c in table.b_num]
    b_str = _format_int_poly(b_ints)
    a_str = _format_int_poly(a_ints)
    if any(a_ints):
        core = f"{a_str} - e^t Ei(-t) ({b_str})"
    else:
        core = f"- e^t Ei(-t) ({b_str})"
    if lcd == 1:
        return core
    return f"1/{lcd} ({core})"
