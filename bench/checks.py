"""Output checks, independent of the code under test.

Everything here runs outside the timed region.  The closed-form
reference is a 200-digit mpmath evaluation of A(t) - e^t E1(t) B(t)
from the exact coefficient table; tables are checked against exact
Wishart-moment identities rather than against another copy of the
coefficient code.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

REF_DPS = 200
# ROADMAP item 2's target for closed-form values.
CLOSED_FORM_RTOL = 1e-13
QUADRATURE_RTOL = 1e-8
MC_SIGMAS = 4.0

# The paper's closed forms for small arrays, frozen byte for byte.
REFERENCE_EXPRESSIONS = {
    (2, 2): "1 - t - e^t Ei(-t) (2 + t^2)",
    (2, 4): "1/6 (20 - 6 t - t^2 - t^3"
    " - e^t Ei(-t) (12 - 12 t + 6 t^2 + 2 t^3 + t^4))",
    (2, 6): "1/120 (524 - 180 t + 48 t^2 - 8 t^3 - 3 t^4 - t^5"
    " - e^t Ei(-t) (240 - 240 t + 120 t^2 - 40 t^3 + 10 t^4 + 4 t^5 + t^6))",
    (4, 4): "1/36 (156 - 156 t - 96 t^2 - 56 t^3 - 11 t^4 - t^5"
    " - e^t Ei(-t) (144 + 216 t^2 + 144 t^3 + 66 t^4 + 12 t^5 + t^6))",
    (4, 6): "1/720 (5544 - 1440 t - 720 t^2 - 1600 t^3 - 756 t^4 - 186 t^5"
    " - 21 t^6 - t^7 - e^t Ei(-t) (2880 - 2880 t + 1440 t^2 + 1920 t^3"
    " + 2220 t^4 + 924 t^5 + 206 t^6 + 22 t^7 + t^8))",
}


class CheckError(Exception):
    """An output that is malformed or contradicts an exact check."""


@dataclass
class Tally:
    """Outcome of checking the outputs of one or more requests.

    attempted and failed count requests.  A request fails when it exits
    non-zero or raises, when its output is malformed or holds a
    non-finite value, when a table breaks an identity or a render does
    not match, or when a Monte Carlo mean is beyond 4 standard errors.

    Accuracy is measured, not failed: points counts the closed-form and
    quadrature values checked, misses those beyond their tolerance or
    whose err_estimate is smaller than the actual error.  wrong, flagged
    and uncovered count closed-form points only.
    """

    attempted: int = 0
    failed: int = 0
    points: int = 0
    misses: int = 0
    closed_points: int = 0
    wrong: int = 0
    flagged: int = 0
    uncovered: int = 0
    max_rel_err: float = 0.0
    errors: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        """Add the counts of `other`; its errors are the caller's to merge."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.points += other.points
        self.misses += other.misses
        self.closed_points += other.closed_points
        self.wrong += other.wrong
        self.flagged += other.flagged
        self.uncovered += other.uncovered
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)


def harmonic(l: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, l + 1)), Fraction(0))


def _horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def reference_value(a, b, t: float):
    """A(t) - e^t E1(t) B(t) at the exact binary value of t, 200 digits."""
    tq = Fraction(t)
    with mpmath.workdps(REF_DPS):
        mt = mpmath.mpf(t)
        return _mpf(_horner(a, tq)) - mpmath.exp(mt) * mpmath.e1(mt) * _mpf(
            _horner(b, tq)
        )


def table_identity_errors(m: int, n: int, a, b) -> list[str]:
    """Exact identities every (m, n) table satisfies, m <= n.

    a_0 = sum_{i<m} H_{n-1-i}; and with e^t Ei(-t) ~ -sum_l (-1)^l l!
    t^-(l+1), the large-t expansion of A + e^t Ei(-t) B has zero t^0 ...
    t^(n+m-3) terms and the Wishart moments mn, -mn(m+n)/2 and
    mn(m^2+3mn+n^2+1)/3 at t^-1, t^-2, t^-3.
    """
    errs = []
    if len(a) != n + m - 2 or len(b) != n + m - 1:
        return [f"({m},{n}): table lengths {len(a)}, {len(b)}"]
    a0 = a[0] if a else Fraction(0)
    want = sum((harmonic(n - 1 - i) for i in range(m)), Fraction(0))
    if a0 != want:
        errs.append(f"({m},{n}): a_0 = {a0}, expected {want}")
    moments = {
        -1: Fraction(m * n),
        -2: Fraction(-m * n * (m + n), 2),
        -3: Fraction(m * n * (m * m + 3 * m * n + n * n + 1), 3),
    }
    for j in range(n + m - 3, -4, -1):
        coef = a[j] if 0 <= j < len(a) else Fraction(0)
        for k in range(max(0, j + 1), len(b)):
            l = k - 1 - j
            coef -= b[k] * (-1) ** l * math.factorial(l)
        want = moments.get(j, Fraction(0))
        if coef != want:
            errs.append(f"({m},{n}): t^{j} term of the large-t expansion is {coef}, expected {want}")
    return errs


_TERM = re.compile(r"(-?)(\d+)?\s*(t(?:\^(\d+))?)?")


def _parse_poly(text: str) -> list[int]:
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        match = _TERM.fullmatch(term.strip())
        if not match or not (match.group(2) or match.group(3)):
            raise CheckError(f"cannot parse term {term!r}")
        sign, mag, var, power = match.groups()
        k = (int(power) if power else 1) if var else 0
        if k in coeffs:
            raise CheckError(f"repeated power t^{k}")
        coeffs[k] = (-1 if sign else 1) * (int(mag) if mag else 1)
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


_EI = "e^t Ei(-t) ("


def render_matches_table(expr: str, a, b) -> bool:
    """Parse '1/L (A - e^t Ei(-t) (B))' and compare with the exact table."""
    lcd = 1
    head = re.match(r"1/(\d+) \((.*)\)$", expr)
    if head:
        lcd, expr = int(head.group(1)), head.group(2)
    left, sep, right = expr.partition(_EI)
    if not sep or not right.endswith(")"):
        raise CheckError(f"no e^t Ei(-t) factor in {expr!r}")
    left = left.rstrip()
    if not left.endswith("-"):
        raise CheckError(f"unexpected sign before e^t Ei(-t) in {expr!r}")
    a_str = left[:-1].strip()
    a_ints = _parse_poly(a_str) if a_str else [0]
    b_ints = _parse_poly(right[:-1])

    def pad(xs, size):
        return list(xs) + [0] * (size - len(xs))

    size = max(len(a), len(a_ints))
    want_a = pad([c * lcd for c in a], size)
    size_b = max(len(b), len(b_ints))
    want_b = pad([-c * lcd for c in b], size_b)
    return want_a == pad(a_ints, size) and want_b == pad(b_ints, size_b)


def _point(value: float, err: float | None, ref, rtol: float, tally: Tally, closed: bool):
    """Check one value against its reference and add it to the tally."""
    if not math.isfinite(value) or (err is not None and not math.isfinite(err)):
        raise CheckError(f"non-finite value {value!r} (err_estimate {err!r})")
    with mpmath.workdps(REF_DPS):
        actual = abs(mpmath.mpf(value) - ref)
        rel = float(actual / abs(ref))
        uncovered = err is not None and mpmath.mpf(err) < actual
    wrong = rel > rtol
    tally.points += 1
    tally.misses += wrong or uncovered
    tally.max_rel_err = max(tally.max_rel_err, rel)
    if closed:
        tally.closed_points += 1
        tally.wrong += wrong
        tally.uncovered += uncovered
        tally.flagged += err is not None and err >= abs(value)


def expected_sweep_ts(req) -> list[float]:
    """Inverse-SNR values of the request's inclusive 'start:stop:step' dB grid."""
    spec = next(a for a in req.argv if a.startswith("--snr-db=")).split("=", 1)[1]
    start, stop, step = (float(x) for x in spec.split(":"))
    count = int(round((stop - start) / step)) + 1
    return [10.0 ** (-(start + i * step) / 10.0) for i in range(count)]


def _rows_from_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_dims(req, row) -> None:
    if (int(row["m"]), int(row["n"])) != (req.m, req.n):
        raise CheckError(f"dims {row['m']}x{row['n']} in output of {req.m}x{req.n} request")


class Checker:
    """Checks request outputs; caches exact tables and references."""

    def __init__(self, table_source):
        # table_source(m, n) -> (a, b) exact Fractions, called at most once per dims.
        self._table_source = table_source
        self._tables: dict[tuple[int, int], tuple] = {}
        self._refs: dict[tuple[int, int, float], object] = {}
        self.table_errors: list[str] = []

    def table(self, m: int, n: int):
        key = (m, n)
        if key not in self._tables:
            a, b = self._table_source(m, n)
            self.adopt_table(m, n, a, b)
        return self._tables[key]

    def adopt_table(self, m: int, n: int, a, b) -> list[str]:
        errs = table_identity_errors(m, n, a, b)
        self.table_errors.extend(errs)
        # A table that fails is still used, so every point is still checked.
        self._tables.setdefault((m, n), (tuple(a), tuple(b)))
        return errs

    def reference(self, m: int, n: int, t: float):
        key = (m, n, t)
        if key not in self._refs:
            a, b = self.table(m, n)
            self._refs[key] = reference_value(a, b, t)
        return self._refs[key]

    def check(self, req, stdout: str, file_text: str | None) -> Tally:
        """Accuracy tally for one request that exited 0; raises CheckError
        when the request failed (see Tally)."""
        tally = Tally()
        kind = req.kind
        if kind == "sweep":
            rows = _rows_from_csv(file_text or "")
            want_ts = expected_sweep_ts(req)
            if len(rows) != len(want_ts):
                raise CheckError(f"sweep {req.m}x{req.n}: {len(rows)} rows, expected {len(want_ts)}")
            for row, want_t in zip(rows, want_ts):
                _check_dims(req, row)
                t = float(row["t"])
                if abs(t - want_t) > 1e-12 * want_t:
                    raise CheckError(f"sweep {req.m}x{req.n}: t={t!r}, expected {want_t!r}")
                ref = self.reference(req.m, req.n, t)
                _point(float(row["mi_nats"]), float(row["err_estimate"]), ref, CLOSED_FORM_RTOL, tally, True)
        elif kind in ("eval", "quadrature"):
            rows = json.loads(stdout)
            if [float(r["t"]) for r in rows] != list(req.ts):
                raise CheckError(f"{kind} {req.m}x{req.n}: t values {[r['t'] for r in rows]}")
            closed = kind == "eval"
            for row in rows:
                _check_dims(req, row)
                ref = self.reference(req.m, req.n, float(row["t"]))
                rtol = CLOSED_FORM_RTOL if closed else QUADRATURE_RTOL
                _point(float(row["mi_nats"]), float(row["err_estimate"]), ref, rtol, tally, closed)
        elif kind == "mc":
            rep = json.loads(stdout)
            _check_dims(req, rep)
            if rep["samples"] != req.samples or rep["worker_count"] != req.workers:
                raise CheckError(f"mc report {rep} does not match its request")
            mean, se = float(rep["mean"]), float(rep["std_error"])
            ref = self.reference(req.m, req.n, req.ts[0])
            with mpmath.workdps(REF_DPS):
                ok = (
                    math.isfinite(mean)
                    and math.isfinite(se)
                    and se > 0
                    and abs(mpmath.mpf(mean) - ref) <= MC_SIGMAS * se
                )
            if not ok:
                raise CheckError(
                    f"mc {req.m}x{req.n}: mean {mean!r} +- {se!r} misses {float(ref)!r}"
                )
        elif kind == "coeffs":
            obj = json.loads(stdout)
            _check_dims(req, obj)
            a = [Fraction(x) for x in obj["a"]]
            b = [Fraction(x) for x in obj["b"]]
            errs = self.adopt_table(req.m, req.n, a, b)
            if errs:
                raise CheckError("; ".join(errs))
        elif kind == "render":
            expr = stdout.strip()
            frozen = REFERENCE_EXPRESSIONS.get((req.m, req.n))
            if frozen is not None:
                ok = expr == frozen
            else:
                a, b = self.table(req.m, req.n)
                ok = render_matches_table(expr, a, b)
            if not ok:
                raise CheckError(f"render {req.m}x{req.n}: {expr[:80]!r} does not match")
        else:
            raise CheckError(f"unknown request kind {kind!r}")
        return tally
