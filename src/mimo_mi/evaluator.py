"""Evaluate the closed form, render it symbolically, and sweep SNR grids.

The two polynomial sums nearly cancel against the e^t Ei(-t) factor for
large t (e^t Ei(-t) ~ -1/t), so both sums are accumulated exactly, in
integer arithmetic on the table's common-denominator numerators with t
split into the exact ratio p/q of the input float; floats appear only in
the final combination.
"""

from __future__ import annotations

import enum
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .coefficients import ChannelDims, CoefficientTable, build_table
from .special_functions import ei_exp_scaled

# Relative accuracy of the Ei(-t) evaluation, used in the error model.
_EI_REL_ERR = 1e-15


class Method(str, enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


class GridMode(str, enum.Enum):
    SNR_DB = "snr_db"
    SNR_LINEAR = "snr_linear"
    INVERSE_SNR = "t"


@dataclass(frozen=True)
class EvaluationResult:
    """One E[I] value in nats at inverse SNR t, with provenance."""

    dims: ChannelDims
    t: float
    value: float
    method: Method
    err_estimate: float

    @property
    def snr_db(self) -> float:
        # + 0.0 normalizes the negative zero at t = 1
        return -10.0 * math.log10(self.t) + 0.0

    def as_dict(self) -> dict:
        return {
            "m": self.dims.m,
            "n": self.dims.n,
            "snr_db": self.snr_db,
            "t": self.t,
            "mi_nats": self.value,
            "method": self.method.value,
            "err_estimate": self.err_estimate,
        }


def _horner(nums: Sequence[int], p: int, q: int) -> tuple[int, int]:
    """(num, den) with num / den == sum nums[k] (p/q)^k exactly."""
    num, den = 0, 1
    for c in reversed(nums):
        den *= q
        num = num * p + c * den
    return num, den


def evaluate_closed_form(table: CoefficientTable, t: float) -> EvaluationResult:
    """E[I] = sum a_k t^k + e^t Ei(-t) sum b_k t^k at finite inverse SNR t > 0."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"need finite t > 0, got t={t}")
    p, q = t.as_integer_ratio()
    num_a, den_a = _horner(table.a_num, p, q)
    num_b, den_b = _horner(table.b_num, p, q)
    scaled_ei = ei_exp_scaled(t)
    # int / int true division is correctly rounded, like float(Fraction).
    try:
        fa = num_a / (table.denominator * den_a)
        fb = num_b / (table.denominator * den_b)
    except OverflowError:
        raise ValueError(
            f"t={t} is too large: the polynomial parts overflow a float"
        ) from None
    value = fa + scaled_ei * fb
    err = max(
        2.0 * max(abs(fa), abs(scaled_ei * fb)) * 2.2e-16,
        abs(scaled_ei) * _EI_REL_ERR * abs(fb),
    )
    return EvaluationResult(
        dims=table.dims, t=t, value=value, method=Method.CLOSED_FORM, err_estimate=err
    )


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


def sweep(
    dims: ChannelDims,
    grid: Sequence[float],
    mode: GridMode = GridMode.SNR_DB,
) -> list[EvaluationResult]:
    """Evaluate the closed form over an SNR grid, one result per point.

    Grid values are SNRs in dB or linear scale, or inverse-SNR t values
    directly, per mode; results keep the input order.
    """
    if len(grid) == 0:
        raise ValueError("empty SNR grid")
    table = build_table(dims)
    ts = []
    for g in grid:
        if mode is GridMode.SNR_DB:
            try:
                t = 10.0 ** (-g / 10.0)
            except OverflowError:
                t = math.inf
        elif mode is GridMode.SNR_LINEAR:
            if g <= 0:
                raise ValueError(f"linear SNR must be positive, got {g}")
            t = 1.0 / g
        else:
            t = float(g)
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"grid point {g} maps to t={t}, need finite t > 0")
        ts.append(t)
    return [evaluate_closed_form(table, t) for t in ts]


CSV_HEADER = "m,n,snr_db,t,mi_nats,method,err_estimate"


def results_to_csv(results: Iterable[EvaluationResult]) -> str:
    """CSV with round-trip-exact float formatting."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in results:
        d = r.as_dict()
        buf.write(
            f"{d['m']},{d['n']},{d['snr_db']!r},{d['t']!r},"
            f"{d['mi_nats']!r},{d['method']},{d['err_estimate']!r}\n"
        )
    return buf.getvalue()


def results_to_json(results: Iterable[EvaluationResult]) -> str:
    return json.dumps([r.as_dict() for r in results], indent=2)
