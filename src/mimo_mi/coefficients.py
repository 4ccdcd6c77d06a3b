"""Exact rational coefficients of the closed-form ergodic mutual information.

For an m x n Rayleigh channel (m <= n after normalization) the expected
mutual information is

    E[I] = sum_{k=0}^{n+m-3} a_k t^k  +  e^t Ei(-t) sum_{k=0}^{n+m-2} b_k t^k

with t the inverse SNR.  This module computes the a_k, b_k and the
underlying c_ij exactly, on integers over common denominators; no
floating point enters here.  The intermediate factorial terms alternate
in sign and cancel heavily, which is why a fixed-width fast path is a
bad idea.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

# Largest table build_table builds, in units of its work estimate
# (n+m-2)^2 ((n+m-2) + 18m): the final gcds and divisions grow as the
# first term, the column sums and the Horner sums of the a_k as the
# second.  On a 2-core Xeon one unit took about 8e-11 s, so 1.2e11 units
# is about 10 s: the largest tables it admits, 1x4927 and 1145x1145,
# took 8.9 s and 9.3 s, and 1200x1200 11.3 s.
_MAX_BUILD_WORK = 12 * 10**10


class _Dims(NamedTuple):
    m: int
    n: int


class ChannelDims(_Dims):
    """Validated antenna pair of integers, stored with m <= n.

    Arguments may come in either order: ln det(I_m + H H*/t) equals
    ln det(I_n + H* H/t), so an (n, m) channel has the same mutual
    information as an (m, n) one and we silently swap.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        try:
            m, n = operator.index(m), operator.index(n)
        except TypeError:
            msg = f"antenna counts must be integers, got ({m!r}, {n!r})"
            raise TypeError(msg) from None
        if m < 1 or n < 1:
            raise ValueError(f"antenna counts must be >= 1, got ({m}, {n})")
        return super().__new__(cls, min(m, n), max(m, n))

    @classmethod
    def _make(cls, iterable):
        # as _replace builds its result: validated and ordered, too
        return cls(*iterable)


def _c_scaled(i: int, j: int, m: int, n: int) -> int:
    """c_ij i! (n+1)! / (m! (-1)^i), an integer:
    (2nj + j - ni + n - m + 1) C(i, j) C(n, m-1-j) C(n+1, m-i+j),
    and 0 off the support j >= 0, i-j >= 0, m-1-j >= 0, m-i+j >= 0."""
    if min(j, i - j, m - 1 - j, m - i + j) < 0:
        return 0
    return (
        (2 * n * j + j - n * i + n - m + 1)
        * math.comb(i, j)
        * math.comb(n, m - 1 - j)
        * math.comb(n + 1, m - i + j)
    )


def coeff_c(i: int, j: int, dims: ChannelDims) -> Fraction:
    """The common factor c_ij of the double sum,
    m! (-1)^i (2nj + j - ni + n - m + 1) C(i, j) C(n, m-1-j) C(n+1, m-i+j)
    / (i! (n+1)!).

    Out-of-support indices are allowed: any reciprocal factorial of a
    negative integer is taken as zero (the gamma-pole convention), so
    the result is 0 whenever j < 0, i-j < 0, m-1-j < 0 or m-i+j < 0.
    """
    from fractions import Fraction

    m, n = dims.m, dims.n
    scaled = _c_scaled(i, j, m, n)
    if not scaled:
        return Fraction(0)
    return Fraction(
        math.factorial(m) * (-1) ** i * scaled,
        math.factorial(i) * math.factorial(n + 1),
    )


def _column_sums(dims: ChannelDims) -> tuple[list[int], int]:
    """(N, D) with C_i = N[i] / D, where C_i = sum_j c_ij, i = 0 .. 2m-2.

    c_ij vanishes unless max(0, i-m) <= j <= min(i, m-1), so a_k and b_k
    depend on c only through these 2m-1 sums.  Every c_ij of row i is an
    integer over i! (n+1)! / m!, so D = (2m-2)! (n+1)! is a common
    denominator and the sums run on integers.
    """
    m, n = dims.m, dims.n
    top = math.factorial(2 * m - 2)
    den = top * math.factorial(n + 1)
    scale = math.factorial(m) * top  # m! (2m-2)! / i!, from i = 0
    nums = []
    for i in range(2 * m - 1):
        # _c_scaled(i, j, m, n) for each j of the row: the product of the
        # three binomials is stepped from j to j + 1 by its ratio, exactly
        j = max(0, i - m)
        binoms = math.comb(i, j) * math.comb(n, m - 1 - j) * math.comb(n + 1, m - i + j)
        row = 0
        for j in range(j, min(i, m - 1) + 1):
            row += (2 * n * j + j - n * i + n - m + 1) * binoms
            binoms = binoms * ((i - j) * (m - 1 - j) * (n + 1 - m + i - j)) // (
                (j + 1) * (n - m + 2 + j) * (m - i + j + 1)
            )
        nums.append((-1) ** i * scale * row)
        scale //= i + 1
    return nums, den


def _check_work(dims: ChannelDims) -> None:
    """Raise ValueError unless build_table, and so each oracle, takes dims."""
    m, n, top = dims.m, dims.n, dims.m + dims.n - 2
    if top * top * (top + 18 * m) > _MAX_BUILD_WORK:
        raise ValueError(
            f"the {m} x {n} table is too large to build: (n+m-2)^2 ((n+m-2) + 18m) "
            f"is above {_MAX_BUILD_WORK:.2g}, about 10 s of work"
        )


class CoefficientTable(NamedTuple):
    """Full exact coefficient set for one channel dimension pair, as
    integers over one common denominator in lowest terms:
    a_k = a_num[k] / denominator and b_k = b_num[k] / denominator.

    a has n+m-2 entries (empty when m = n = 1), b has n+m-1 entries;
    immutable after construction and safe to share across threads.
    """

    dims: ChannelDims
    denominator: int
    a_num: tuple[int, ...]
    b_num: tuple[int, ...]

    @property
    def a(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        return tuple(Fraction(x, self.denominator) for x in self.a_num)

    @property
    def b(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        return tuple(Fraction(x, self.denominator) for x in self.b_num)


@lru_cache(maxsize=None)
def build_table(dims: ChannelDims) -> CoefficientTable:
    """Compute the complete exact table for the given dimensions.

    With d = n - m, C_i = sum_j c_ij and the suffix sums
    S_j = sum_{i >= j} (i+d)! C_i,

        b_k = -(-1)^k S_{max(0, k-d)} / k!,
        a_0 = sum_i (i+d)! H_{i+d} C_i,
        a_k = -(b_k + (-1)^k sum_{i >= max(0, k-d)} (i+d-k)! C_i) / k.

    Everything runs on integers over one common denominator, reduced by
    a single gcd at the end.  Cached per dims; the cache only ever
    stores immutable values, so concurrent first calls at worst
    duplicate work.
    """
    _check_work(dims)
    m, n = dims.m, dims.n
    d, top = n - m, n + m - 2
    nums, den = _column_sums(dims)
    # 0! .. (n+m-2)!: every factorial the sums below take
    fact = list(accumulate(range(1, top + 1), operator.mul, initial=1))
    # C_i = c[i] / den and S_j = s[j] / delta, each in lowest terms
    g = math.gcd(den, *nums)
    c, den = [x // g for x in nums], den // g
    s = list(accumulate(fact[i + d] * c[i] for i in reversed(range(len(c)))))[::-1]
    # Two guards; a failure means the coefficient code itself is wrong.  The
    # last column sum, c_{2m-2,m-2} + c_{2m-2,m-1}, equals coeff_c's, which
    # checks the integer scaling of every sum; and the t-free part of the
    # log-cancellation identity, S_0 = m, holds.
    last = sum(coeff_c(2 * m - 2, j, dims) for j in (m - 2, m - 1))
    if c[-1] * last.denominator != last.numerator * den or s[0] != m * den:
        raise AssertionError(f"internal consistency failure for dims ({m}, {n})")
    g = math.gcd(den, *s)
    s, delta = [x // g for x in s], den // g
    # big is a common denominator: delta k! k (k < top), delta top! and
    # den k all divide it, and every H_{i+d} is an integer over lcm(1..top)
    lcm_top = math.lcm(*range(1, top + 1))
    big = lcm_top * math.lcm(delta * fact[max(top - 1, 0)], den)
    scale = big // (delta * fact[top])  # big / (delta k!), from k = top down
    b_num = [0] * (top + 1)
    for k in reversed(range(top + 1)):
        b_num[k] = (-1) ** (k + 1) * s[max(0, k - d)] * scale
        scale *= k
    per_c = big // den
    a_num = [0] * top
    for k in range(1, top):
        # sum_{i >= i0} (i+d-k)! c[i] = (i0+d-k)! (c[i0] + (i0+d-k+1) (c[i0+1]
        # + ...)), so the Horner steps multiply by small ints only
        i0, acc = max(0, k - d), 0
        for i in reversed(range(i0, len(c))):
            acc = acc * (i + d - k + 1) + c[i]
        a_num[k] = -(b_num[k] + (-1) ** k * per_c * fact[i0 + d - k] * acc) // k
    if top:
        # h = lcm_top H_{i+d}, kept as a running sum
        h = sum(lcm_top // l for l in range(1, d + 1))
        acc = 0
        for i, x in enumerate(c):
            acc += fact[i + d] * h * x
            h += lcm_top // (i + d + 1)
        a_num[0] = per_c // lcm_top * acc
    g = math.gcd(big, *a_num, *b_num)
    return CoefficientTable(
        dims=dims,
        denominator=big // g,
        a_num=tuple(x // g for x in a_num),
        b_num=tuple(x // g for x in b_num),
    )
