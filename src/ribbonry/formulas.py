"""Closed-form counts, entropy limits, bounds, and reference constants.

These are the exact formulas the enumerator is checked against: factorial
counts for short rectangles, powers of two for generalized Aztec diamonds,
staircase counts, the A115047 recurrence for square-multiple rectangles,
Fibonacci products for variable-length tilings, and the classical strip and
whole-plane domino entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .enumeration import count_tilings
from .region import build_rectangle

#: Catalan's constant sum((-1)^k / (2k+1)^2).
CATALAN = 0.915965594177219

#: Per-tile entropy of dominoes on large squares: 2*CATALAN / (pi * ln 2).
DOMINO_SQUARE_ENTROPY = 2 * CATALAN / (math.pi * math.log(2))

#: Growth constant in the (2n)! / C^n law for the A115047 sequence.
A115047_GROWTH_C = 2.496918339


def rect_strip_count(n: int, cols: int) -> int:
    """Tilings of the n x cols rectangle by n-ribbons, for cols <= n + 1.

    Equals cols! while cols <= n, and (n+1)!/2 at cols = n + 1 (of the
    (n+1)! level orders, exactly half are realizable there).
    """
    if n < 1:
        raise ValueError(f"ribbon length must be positive, got {n}")
    if not 1 <= cols <= n + 1:
        raise ValueError(f"closed form needs 1 <= cols <= {n + 1}, got {cols}")
    if cols <= n:
        return math.factorial(cols)
    return math.factorial(n + 1) // 2


def aztec_count(size: int) -> int:
    """Tilings of AD(size, n, k) by n-ribbons: 2^(size*(size+1)/2), any n, k."""
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    return 1 << (size * (size + 1) // 2)


def stair_count(rows: int, n: int) -> int:
    """Tilings of the staircase of `rows` length-n rows by n-ribbons.

    Odd n: rows! while rows <= (n+1)/2, then ((n+1)/2 - 1)! times
    ((n+1)/2)^(rows-(n-1)/2).  Even n: equals the count of (n/2)-ribbon
    tilings of the (n/2) x rows rectangle, delegated to the enumerator.
    """
    if rows < 1 or n < 1:
        raise ValueError(f"parameters must be positive, got rows={rows}, n={n}")
    if n % 2:
        half = (n + 1) // 2
        if rows <= half:
            return math.factorial(rows)
        return math.factorial(half - 1) * half ** (rows - (half - 1))
    return count_tilings(build_rectangle(n // 2, rows), n // 2)


def stair_entropy_limit(n: int) -> float:
    """Limit of the staircase per-tile entropy for odd n: log2(n+1) - 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"staircase entropy limit needs odd n, got {n}")
    return math.log2(n + 1) - 1


def a_sequence(n: int) -> list[int]:
    """A115047 terms a_0..a_n; a_n counts n-ribbon tilings of n x 2n rectangles.

    a_0 = 1 and a_n = (1/2) * sum over i of
    i*(n-i+1)/(n+2) * C(n-1, i-1) * C(n+3, i+1) * a_{i-1} * a_{n-i}.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    terms = [1]
    for m in range(1, n + 1):
        # 2 * (m + 2) * a_m, so that every term of the sum is an integer.
        total = sum(
            i * (m - i + 1) * math.comb(m - 1, i - 1) * math.comb(m + 3, i + 1) * terms[i - 1] * terms[m - i]
            for i in range(1, m + 1)
        )
        term, rest = divmod(total, 2 * (m + 2))
        if rest:
            from fractions import Fraction

            raise ArithmeticError(f"a({m}) is not an integer: {Fraction(total, 2 * (m + 2))}")
        terms.append(term)
    return terms


@dataclass(frozen=True)
class EntropyBounds:
    """Per-tile entropy bounds at ribbon length n.

    general_upper holds for every region; the rect bounds bracket the limit
    entropy of large rectangles.
    """

    n: int
    general_upper: float
    rect_lower: float
    rect_upper: float


def entropy_bounds(n: int) -> EntropyBounds:
    if n < 1:
        raise ValueError(f"ribbon length must be positive, got {n}")
    log2e = math.log2(math.e)
    rect_lower = (
        math.log2(n) - log2e + (0.5 * math.log2(n) + math.log2(math.sqrt(2 * math.pi))) / n
    )
    return EntropyBounds(
        n=n,
        general_upper=float(n - 1),
        rect_lower=rect_lower,
        rect_upper=math.log2(n) + log2e,
    )


def domino_strip_entropy(height: int) -> float:
    """Limit per-tile entropy of dominoes on the height x M strip as M grows.

    (2/height) * sum_{l=1}^{floor(height/2)} log2(c_l + sqrt(1 + c_l^2)) with
    c_l = cos(l*pi/(height+1)).  At height 2 this is log2 of the golden
    ratio; as height grows it tends to DOMINO_SQUARE_ENTROPY.
    """
    if height < 1:
        raise ValueError(f"height must be positive, got {height}")
    total = 0.0
    for l in range(1, height // 2 + 1):
        c = math.cos(l * math.pi / (height + 1))
        total += math.log2(c + math.sqrt(1 + c * c))
    return 2 * total / height


def _fib(k: int) -> int:
    """Fibonacci with F_1 = F_2 = 1."""
    if k < 1:
        raise ValueError(f"index must be positive, got {k}")
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def stanley_fib_count(rows: int, cols: int) -> int:
    """Tilings of the rows x cols rectangle by ribbons of arbitrary lengths.

    With m = min(rows, cols) and M = max(rows, cols), equals
    (prod_{k=1}^{m-1} F_{2k+2}^2) * F_{2m+1}^(M-m), Fibonacci F_1 = F_2 = 1.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"sides must be positive, got {rows}x{cols}")
    small, large = sorted((rows, cols))
    product = 1
    for k in range(1, small):
        product *= _fib(2 * k + 2) ** 2
    return product * _fib(2 * small + 1) ** (large - small)


def stanley_minimal_count(rows: int, cols: int) -> tuple[int, int]:
    """(fewest ribbons tiling the rows x cols rectangle, ways): (m, (m!)^2)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"sides must be positive, got {rows}x{cols}")
    small = min(rows, cols)
    return (small, math.factorial(small) ** 2)
