"""Self-check campaigns: closed forms vs the enumerator, bijections, growth.

Each suite returns a list of Check records with a pass/fail status,
suitable for machine-readable reports.  The batteries here are shared with
the package's acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formulas
from .cli import SUITE_NAMES
from .enumeration import count_minimal, count_tilings, count_variable
from .region import Region, build_aztec, build_rectangle, build_stair, parse_region
from .sheffield import verify_bijection, verify_growth_bounds

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class Check:
    name: str
    source: str
    expected: str
    actual: str
    status: str

    def to_json_dict(self) -> dict:
        # Built directly: `dataclasses.asdict` deep-copies every field, about 25 times slower.
        return {
            "name": self.name,
            "source": self.source,
            "expected": self.expected,
            "actual": self.actual,
            "status": self.status,
        }


def _check(name: str, source: str, expected: object, actual: object) -> Check:
    return Check(
        name=name,
        source=source,
        expected=str(expected),
        actual=str(actual),
        status=PASS if expected == actual else FAIL,
    )


#: Irregular regions (grid text, ribbon length) whose tilings are known to
#: biject onto the admissible orientations with border vertices omitted.
#: Not every irregular region has that property; these were checked.
IRREGULAR_GRIDS: list[tuple[str, str, int]] = [
    ("grid-plus", ".##.\n####\n####\n.##.", 2),
    ("grid-p", "###\n###\n##.\n##.", 2),
    ("grid-octagon", ".##.\n####\n####\n##..", 2),
    ("grid-notched-bar", ".####\n#####", 3),
    ("grid-ragged-column", "##.\n###\n###\n###\n#..", 3),
]


def bijection_battery() -> list[tuple[str, Region, int]]:
    """Labeled (region, n) cases spanning every builder plus parsed grids."""
    cases: list[tuple[str, Region, int]] = []
    for rows, cols, n in [
        (2, 2, 1),
        (2, 2, 2),
        (2, 3, 2),
        (2, 4, 2),
        (2, 6, 2),
        (3, 3, 3),
        (3, 4, 3),
        (3, 6, 3),
        (4, 4, 4),
        (4, 5, 4),
        (5, 5, 5),
    ]:
        cases.append((f"rect {rows}x{cols} n={n}", build_rectangle(rows, cols), n))
    for size, n, k in [
        (1, 2, 0),
        (2, 2, 0),
        (2, 3, 0),
        (2, 3, 1),
        (2, 4, 2),
        (3, 2, 0),
        (3, 3, 1),
        (3, 4, 0),
    ]:
        cases.append((f"aztec N={size} n={n} k={k}", build_aztec(size, n, k), n))
    for rows, n in [(4, 2), (3, 4), (4, 3), (6, 3), (5, 5), (4, 7)]:
        cases.append((f"stair M={rows} n={n}", build_stair(rows, n), n))
    for label, grid, n in IRREGULAR_GRIDS:
        cases.append((f"{label} n={n}", parse_region(grid), n))
    return cases


def formulas_suite() -> list[Check]:
    """Closed-form counts against the enumerator."""
    checks: list[Check] = []
    for n in (2, 3, 4, 5):
        for cols in range(1, n + 2):
            expected = formulas.rect_strip_count(n, cols)
            actual = count_tilings(build_rectangle(n, cols), n)
            checks.append(
                _check(f"rect {n}x{cols} n={n}", "rect_strip_count", expected, actual)
            )
    a = formulas.a_sequence(4)
    for n in (2, 3, 4):
        actual = count_tilings(build_rectangle(n, 2 * n), n)
        checks.append(_check(f"rect {n}x{2 * n} n={n}", "a_sequence[A115047]", a[n], actual))
    for size in (1, 2, 3):
        for n in (2, 3, 4):
            for k in range(n - 1):
                actual = count_tilings(build_aztec(size, n, k), n)
                checks.append(
                    _check(
                        f"aztec N={size} n={n} k={k}",
                        "aztec_count",
                        formulas.aztec_count(size),
                        actual,
                    )
                )
    for k in (0, 1):
        actual = count_tilings(build_aztec(4, 3, k), 3)
        checks.append(
            _check(f"aztec N=4 n=3 k={k}", "aztec_count", formulas.aztec_count(4), actual)
        )
    for n in (2, 3, 4, 5, 6, 7):
        for rows in range(1, 9):
            actual = count_tilings(build_stair(rows, n), n)
            checks.append(
                _check(
                    f"stair M={rows} n={n}", "stair_count", formulas.stair_count(rows, n), actual
                )
            )
    for cols in range(1, 31):
        actual = count_tilings(build_rectangle(2, cols), 2)
        checks.append(
            _check(f"rect 2x{cols} n=2", "fibonacci", formulas._fib(cols + 1), actual)
        )
    return checks


def stanley_suite() -> list[Check]:
    """Variable-length and fewest-tile counts on small rectangles."""
    checks: list[Check] = []
    sides = [(r, c) for r in range(1, 5) for c in range(r, 5)] + [(2, 5)]
    for rows, cols in sides:
        region = build_rectangle(rows, cols)
        checks.append(
            _check(
                f"variable rect {rows}x{cols}",
                "stanley_fib_count",
                formulas.stanley_fib_count(rows, cols),
                count_variable(region),
            )
        )
        checks.append(
            _check(
                f"minimal rect {rows}x{cols}",
                "stanley_minimal_count",
                formulas.stanley_minimal_count(rows, cols),
                count_minimal(region),
            )
        )
    return checks


def bijection_suite() -> list[Check]:
    """Tiling/orientation bijection over the whole battery."""
    checks: list[Check] = []
    for label, region, n in bijection_battery():
        report = verify_bijection(region, n)
        expected = f"{report.tiling_count} tilings = orientations, injective"
        if report.ok:
            actual = expected
        else:
            actual = (
                f"{report.tiling_count} tilings vs {report.orientation_count} orientations, "
                f"injective={report.injective}"
            )
        checks.append(_check(label, "verify_bijection", expected, actual))
    return checks


def growth_suite(cases: list[tuple[str, Region, int]] | None = None) -> list[Check]:
    """Level-growth bounds on rectangles (defaults: 3x6, 3x9, 4x8)."""
    if cases is None:
        cases = [
            ("rect 3x6 n=3", build_rectangle(3, 6), 3),
            ("rect 3x9 n=3", build_rectangle(3, 9), 3),
            ("rect 4x8 n=4", build_rectangle(4, 8), 4),
        ]
    checks: list[Check] = []
    for label, region, n in cases:
        report = verify_growth_bounds(region, n)
        bad = [row for row in report.rows if not row.ok]
        actual = "bounds hold" if report.ok else f"violated at levels {[r.level for r in bad]}"
        checks.append(_check(label, "verify_growth_bounds", "bounds hold", actual))
    return checks


def run_suite(
    name: str, *, growth_cases: list[tuple[str, Region, int]] | None = None
) -> list[Check]:
    """Run one named suite (or every suite for "all")."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    checks: list[Check] = []
    if name in ("formulas", "all"):
        checks.extend(formulas_suite())
    if name in ("stanley", "all"):
        checks.extend(stanley_suite())
    if name in ("bijection", "all"):
        checks.extend(bijection_suite())
    if name in ("growth", "all"):
        checks.extend(growth_suite(growth_cases))
    return checks
