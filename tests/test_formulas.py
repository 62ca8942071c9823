"""Closed-form counts, the A115047 recurrence, entropy limits, constants."""

import math

import pytest

from oracles import fib
from ribbonry import (
    a_sequence,
    aztec_count,
    build_aztec,
    build_rectangle,
    build_stair,
    count_tilings,
    count_variable,
    domino_strip_entropy,
    entropy,
    entropy_bounds,
    log2_big,
    rect_strip_count,
    stair_count,
    stair_entropy_limit,
    stanley_fib_count,
    stanley_minimal_count,
)
from ribbonry.formulas import A115047_GROWTH_C, CATALAN, DOMINO_SQUARE_ENTROPY

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def test_reference_constants():
    assert CATALAN == pytest.approx(0.9159655942, abs=5e-11)
    assert DOMINO_SQUARE_ENTROPY == pytest.approx(0.8412669407, abs=5e-11)
    assert DOMINO_SQUARE_ENTROPY == pytest.approx(2 * CATALAN / (math.pi * math.log(2)))
    assert A115047_GROWTH_C == pytest.approx(2.496918339, abs=5e-10)


def test_rect_strip_count_values():
    assert [rect_strip_count(3, c) for c in (1, 2, 3, 4)] == [1, 2, 6, 12]
    assert [rect_strip_count(5, c) for c in (1, 5, 6)] == [1, 120, 360]
    for n in (2, 3, 4):
        for cols in range(1, n + 2):
            region = build_rectangle(n, cols)
            assert rect_strip_count(n, cols) == count_tilings(region, n)
    with pytest.raises(ValueError):
        rect_strip_count(3, 5)
    with pytest.raises(ValueError):
        rect_strip_count(3, 0)


def test_aztec_count_values():
    assert [aztec_count(s) for s in (1, 2, 3, 4)] == [2, 8, 64, 1024]
    assert aztec_count(2) == count_tilings(build_aztec(2, 4, 2), 4)
    with pytest.raises(ValueError):
        aztec_count(0)


def test_stair_count_odd():
    assert stair_count(7, 3) == 64
    assert stair_count(7, 5) == 486
    assert stair_count(3, 5) == 6
    assert stair_count(4, 7) == 24
    for rows in range(1, 8):
        assert stair_count(rows, 3) == count_tilings(build_stair(rows, 3), 3)


def test_stair_count_even_reduces_to_rectangles():
    assert stair_count(8, 6) == count_tilings(build_rectangle(3, 8), 3) == 297
    for rows in range(1, 7):
        assert stair_count(rows, 4) == count_tilings(build_stair(rows, 4), 4)
    with pytest.raises(ValueError):
        stair_count(0, 3)


def test_stair_entropy_limit():
    assert stair_entropy_limit(3) == 1.0
    assert stair_entropy_limit(7) == 2.0
    assert stair_entropy_limit(1) == 0.0
    with pytest.raises(ValueError):
        stair_entropy_limit(4)
    gaps = [
        stair_entropy_limit(3) - math.log2(stair_count(rows, 3)) / rows
        for rows in (10, 100, 1000)
    ]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 2e-3


def test_a_sequence_golden_and_enumerator():
    assert a_sequence(5) == [1, 1, 5, 61, 1379, 49946]
    for n in (2, 3, 4):
        assert a_sequence(n)[-1] == count_tilings(build_rectangle(n, 2 * n), n)
    with pytest.raises(ValueError):
        a_sequence(-1)


def test_a_sequence_long_run_stays_integral():
    terms = a_sequence(200)
    assert len(terms) == 201
    assert all(isinstance(t, int) for t in terms)
    assert all(b > a for a, b in zip(terms[2:], terms[3:]))


def a_entropy_diagnostic(n_max: int) -> list[tuple[int, float, float]]:
    """Rows (n, log2(a_n)/(2n), asymptote log2(n) - log2(e) + 1 - log2(C)/2).

    Convergence of the second column to the third is slow; the rows are a
    trend diagnostic, not a bound check.
    """
    terms = a_sequence(n_max)
    asym_shift = 1 - math.log2(math.e) - 0.5 * math.log2(A115047_GROWTH_C)
    return [
        (n, log2_big(terms[n]) / (2 * n), math.log2(n) + asym_shift)
        for n in range(1, n_max + 1)
    ]


def test_a_entropy_diagnostic_trend():
    rows = a_entropy_diagnostic(200)
    assert [r[0] for r in rows] == list(range(1, 201))
    picked = {n: (lhs, rhs) for n, lhs, rhs in rows}
    gaps = [picked[n][0] - picked[n][1] for n in (10, 50, 100, 200)]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.016


def test_entropy_bounds():
    for n in (2, 3, 5, 8):
        bounds = entropy_bounds(n)
        assert bounds.general_upper == n - 1
        assert bounds.rect_upper == pytest.approx(math.log2(n) + math.log2(math.e))
        assert bounds.rect_lower < bounds.rect_upper
    strip = entropy(build_rectangle(3, 9), 3)
    bounds = entropy_bounds(3)
    assert bounds.rect_lower <= strip <= min(bounds.rect_upper, bounds.general_upper)
    with pytest.raises(ValueError):
        entropy_bounds(0)


def test_general_upper_bound_holds_empirically():
    cases = [
        (build_rectangle(3, 9), 3),
        (build_rectangle(4, 8), 4),
        (build_aztec(3, 2, 0), 2),
        (build_stair(7, 3), 3),
    ]
    for region, n in cases:
        assert entropy(region, n) <= n - 1


def test_domino_strip_entropy():
    assert domino_strip_entropy(1) == 0.0
    assert domino_strip_entropy(2) == pytest.approx(math.log2(GOLDEN_RATIO), abs=1e-12)
    assert domino_strip_entropy(100) == pytest.approx(DOMINO_SQUARE_ENTROPY, abs=5e-3)
    assert domino_strip_entropy(1000) == pytest.approx(DOMINO_SQUARE_ENTROPY, abs=5e-4)
    with pytest.raises(ValueError):
        domino_strip_entropy(0)


def test_domino_strip_entropy_matches_fibonacci_growth():
    want = math.log2(fib(31)) / 30
    assert domino_strip_entropy(2) == pytest.approx(want, abs=2e-2)


def test_stanley_fib_count():
    assert stanley_fib_count(1, 5) == 16
    assert stanley_fib_count(2, 2) == 9
    assert stanley_fib_count(2, 3) == 45
    assert stanley_fib_count(2, 5) == 1125
    assert stanley_fib_count(3, 2) == stanley_fib_count(2, 3)
    assert stanley_fib_count(2, 4) == count_variable(build_rectangle(2, 4))
    with pytest.raises(ValueError):
        stanley_fib_count(0, 2)


def test_stanley_minimal_count():
    assert stanley_minimal_count(1, 7) == (1, 1)
    assert stanley_minimal_count(4, 7) == (4, 576)
    assert stanley_minimal_count(3, 2) == stanley_minimal_count(2, 3) == (2, 4)
    with pytest.raises(ValueError):
        stanley_minimal_count(2, 0)
