"""Exact rational coefficients of the closed-form ergodic mutual information.

For an m x n Rayleigh channel (m <= n after normalization) the expected
mutual information is

    E[I] = sum_{k=0}^{n+m-3} a_k t^k  +  e^t Ei(-t) sum_{k=0}^{n+m-2} b_k t^k

with t the inverse SNR.  This module computes the a_k, b_k and the
underlying c_ij in exact arbitrary-precision rational arithmetic; no
floating point enters here.  The intermediate factorial terms alternate
in sign and cancel heavily, which is why a fixed-width fast path is a
bad idea.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True)
class ChannelDims:
    """Validated antenna pair, stored with m <= n.

    Arguments may come in either order: ln det(I_m + H H*/t) equals
    ln det(I_n + H* H/t), so an (n, m) channel has the same mutual
    information as an (m, n) one and we silently swap.
    """

    m: int
    n: int

    def __post_init__(self):
        m, n = self.m, self.n
        if m < 1 or n < 1:
            raise ValueError(f"antenna counts must be >= 1, got ({m}, {n})")
        if m > n:
            object.__setattr__(self, "m", n)
            object.__setattr__(self, "n", m)


def coeff_c(i: int, j: int, dims: ChannelDims) -> Fraction:
    """The common factor c_ij of the double sum.

    Out-of-support indices are allowed: any reciprocal factorial of a
    negative integer is taken as zero (the gamma-pole convention), so
    the result is 0 whenever j < 0, i-j < 0, m-1-j < 0 or m-i+j < 0.
    """
    m, n = dims.m, dims.n
    denoms = (j, i - j, n - m + 1 + j, n - m + 1 + i - j, m - 1 - j, m - i + j)
    if any(d < 0 for d in denoms):
        return Fraction(0)
    num = (
        math.factorial(n)
        * math.factorial(m)
        * (-1) ** i
        * (2 * n * j + j - n * i + n - m + 1)
    )
    den = 1
    for d in denoms:
        den *= math.factorial(d)
    return Fraction(num, den)


def _column_sums(dims: ChannelDims) -> tuple[list[int], int]:
    """(N, D) with C_i = N[i] / D, where C_i = sum_j c_ij, i = 0 .. 2m-2.

    c_ij vanishes unless max(0, i-m) <= j <= min(i, m-1), so a_k and b_k
    depend on c only through these 2m-1 sums.  Over one common
    denominator the sums over i below run on integers.
    """
    m = dims.m
    sums = [
        sum(
            (coeff_c(i, j, dims) for j in range(max(0, i - m), min(i, m - 1) + 1)),
            Fraction(0),
        )
        for i in range(2 * m - 1)
    ]
    den = math.lcm(*(c.denominator for c in sums))
    return [c.numerator * (den // c.denominator) for c in sums], den


def _a_from_sums(k: int, dims: ChannelDims, sums: tuple[list[int], int]) -> Fraction:
    """a_0 = sum_i (i+d)! H_{i+d} C_i and, for k >= 1,
    a_k = (-1)^k / (k k!) sum_{i >= k-d+1} ((i+d)! - k! (i+d-k)!) C_i,
    with d = n - m."""
    nums, den = sums
    d = dims.n - dims.m
    if k == 0:
        # h = H_{i+d} = 1 + 1/2 + ... + 1/(i+d), kept as a running sum
        h = sum((Fraction(1, l) for l in range(1, d + 1)), Fraction(0))
        acc = Fraction(0)
        for i, c in enumerate(nums):
            acc += math.factorial(i + d) * h * c
            h += Fraction(1, i + d + 1)
        return acc / den
    fk = math.factorial(k)
    acc = sum(
        (math.factorial(i + d) - fk * math.factorial(i + d - k)) * nums[i]
        for i in range(max(0, k - d + 1), len(nums))
    )
    return Fraction((-1) ** k * acc, k * fk * den)


def _b_from_sums(k: int, dims: ChannelDims, sums: tuple[list[int], int]) -> Fraction:
    """b_k = -(-1)^k m / k! for k <= d, else
    b_k = -(-1)^k / k! sum_{i >= k-d} (i+d)! C_i, with d = n - m."""
    nums, den = sums
    d = dims.n - dims.m
    if k <= d:
        return Fraction(-((-1) ** k) * dims.m, math.factorial(k))
    acc = sum(math.factorial(i + d) * nums[i] for i in range(k - d, len(nums)))
    return Fraction(-((-1) ** k) * acc, math.factorial(k) * den)


@dataclass(frozen=True)
class CoefficientTable:
    """Full exact coefficient set for one channel dimension pair.

    a has n+m-2 entries (empty when m = n = 1), b has n+m-1 entries;
    immutable after construction and safe to share across threads.
    The same coefficients are also kept over one common denominator:
    a[k] == a_num[k] / denominator and b[k] == b_num[k] / denominator.
    """

    dims: ChannelDims
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    denominator: int = field(init=False, repr=False, compare=False)
    a_num: tuple[int, ...] = field(init=False, repr=False, compare=False)
    b_num: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lcd = math.lcm(*(c.denominator for c in self.a + self.b))

        def scaled(coeffs):
            return tuple(c.numerator * (lcd // c.denominator) for c in coeffs)

        object.__setattr__(self, "denominator", lcd)
        object.__setattr__(self, "a_num", scaled(self.a))
        object.__setattr__(self, "b_num", scaled(self.b))

    def to_json(self) -> str:
        return json.dumps(
            {
                "m": self.dims.m,
                "n": self.dims.n,
                "a": [str(x) for x in self.a],
                "b": [str(x) for x in self.b],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CoefficientTable":
        obj = json.loads(text)
        return cls(
            dims=ChannelDims(obj["m"], obj["n"]),
            a=tuple(Fraction(x) for x in obj["a"]),
            b=tuple(Fraction(x) for x in obj["b"]),
        )


@lru_cache(maxsize=None)
def build_table(dims: ChannelDims) -> CoefficientTable:
    """Compute the complete exact table for the given dimensions.

    Cached per dims; the cache only ever stores immutable values, so
    concurrent first calls at worst duplicate work.
    """
    m, n = dims.m, dims.n
    sums = _column_sums(dims)
    # The t-free part of the log-cancellation identity, sum_i (i+n-m)! C_i
    # = m; a failure here means the coefficient code itself is wrong.
    nums, den = sums
    if sum(math.factorial(i + n - m) * c for i, c in enumerate(nums)) != m * den:
        raise AssertionError(f"internal consistency failure for dims ({m}, {n})")
    a = tuple(_a_from_sums(k, dims, sums) for k in range(n + m - 2))
    b = tuple(_b_from_sums(k, dims, sums) for k in range(n + m - 1))
    return CoefficientTable(dims=dims, a=a, b=b)
