"""End-to-end command-line behavior: outputs, schemas, determinism, exit codes."""

import argparse
import gc
import io
import json
import os
import shlex
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from importlib import resources
from itertools import islice
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_pipe import ClosedPipe
from oracles import fib, region_cells, tiling_to_ascii_reference, tilings_oracle
from ribbonry import (
    NotTileableError,
    Region,
    Tiling,
    build_rectangle,
    count_tilings,
    enumerate_tilings,
    parse_region,
    sample_tiling,
    tiling_to_ascii,
)
from ribbonry import cli, enumeration, region
from ribbonry.cli import UsageError, build_parser, main
from ribbonry.verify import run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def load_schema(name: str) -> dict:
    text = resources.files("ribbonry").joinpath(f"schemas/{name}.schema.json").read_text()
    return json.loads(text)


def test_count_json(capsys):
    code, out, err = run(capsys, "count", "--rect", "3x6", "--n", "3")
    assert code == 0 and err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("count"))
    assert payload == {"count": "61", "tiles": 6, "entropy": pytest.approx(0.9884562229)}


def test_count_embedded_n(capsys):
    code, out, _ = run(capsys, "count", "--aztec", "N=2,n=3,k=1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "8"
    assert payload["tiles"] == 6
    assert payload["entropy"] == 0.5


def test_count_zero_is_success(capsys):
    code, out, _ = run(capsys, "count", "--rect", "2x3", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("count"))
    assert payload == {"count": "0", "tiles": None, "entropy": None}


def test_count_a7_rectangle(capsys):
    # a_7 of A115047: 7-ribbon tilings of the 7x14 rectangle.
    code, out, err = run(capsys, "count", "--rect", "7x14", "--n", "7")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["count"], payload["tiles"]) == ("193530835", 14)


def test_count_text_format(capsys):
    code, out, _ = run(capsys, "count", "--rect", "3x6", "--n", "3", "--format", "text")
    assert code == 0
    assert out.splitlines() == ["count: 61", "tiles: 6", "entropy: 0.988456"]


def test_deep_regions_need_no_recursion(capsys):
    # Each of these needs more than a thousand tiles or ribbon cells in a row.
    assert sys.getrecursionlimit() <= 1000
    for rect, n, want in [("2x1200", "2", fib(1201)), ("1x2000", "1", 1), ("1x1500", "1500", 1)]:
        code, out, err = run(capsys, "count", "--rect", rect, "--n", n)
        assert code == 0 and err == "", rect
        assert json.loads(out)["count"] == str(want), rect
    strip = build_rectangle(2, 1200)
    code, out, _ = run(capsys, "sample", "--rect", "2x1200", "--n", "2", "--seed", "0")
    assert code == 0
    assert Tiling.from_json(out).region == strip
    next(enumerate_tilings(strip, 2)).validate()


def _int(numeral: str) -> int:
    """`int(numeral)` for a numeral longer than `str` and `int` may convert."""
    value = 0
    for start in range(0, len(numeral), 1000):
        chunk = numeral[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_count_past_the_digit_limit(capsys):
    # 2x20580 has F(20581) domino tilings, 4,301 digits: one past the
    # default limit on int-to-str conversion, which the CLI leaves alone.
    limit = sys.get_int_max_str_digits()
    want = fib(20581)
    code, out, err = run(capsys, "count", "--rect", "2x20580", "--n", "2")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert _int(payload["count"]) == want and payload["tiles"] == 20580
    code, out, err = run(capsys, "count", "--rect", "2x20580", "--n", "2", "--format", "text")
    assert (code, err) == (0, "")
    count, tiles, ent = out.splitlines()
    assert count.startswith("count: ") and _int(count[7:]) == want
    assert (tiles, ent) == ("tiles: 20580", f"entropy: {payload['entropy']:.6f}")
    assert sys.get_int_max_str_digits() == limit
    assert len(count) - 7 == len(payload["count"]) == 4301


def test_memory_error_exits_1(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    # The count loop, then any count.
    monkeypatch.setattr(enumeration, "_count_by_depth", exhausted)
    assert run(capsys, "count", "--rect", "6x30", "--n", "6") == (1, "", "error: out of memory\n")
    monkeypatch.setattr("ribbonry.cli.count_tilings", exhausted)
    code, out, err = run(capsys, "count", "--rect", "3x6", "--n", "3")
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"


def _run_capped(*argv: str) -> subprocess.CompletedProcess:
    """`python -m ribbonry.cli` in a process whose address space is capped at 150 MB."""
    resource = pytest.importorskip("resource")
    cap = 150 << 20
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "ribbonry.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_running_out_of_memory_exits_1():
    try:
        probe = _run_capped("count", "--rect", "2x2", "--n", "2")
    except subprocess.SubprocessError:
        probe = None
    if probe is None or probe.returncode != 0:
        pytest.skip("the CLI does not start under a 150 MB address-space cap here")
    # The sampler's completion table for 30x30 n=3 outgrows the cap.
    result = _run_capped("sample", "--rect", "30x30", "--n", "3")
    assert (result.returncode, result.stdout, result.stderr) == (1, "", "error: out of memory\n")


def test_enumerate_lines_match_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--rect", "2x2", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    schema = load_schema("tiling")
    for line in lines:
        jsonschema.validate(json.loads(line), schema)
    code, out, _ = run(capsys, "enumerate", "--rect", "3x6", "--n", "3")
    assert len(out.splitlines()) == count_tilings(build_rectangle(3, 6), 3)


def test_enumerate_text_format(capsys):
    code, out, _ = run(capsys, "enumerate", "--rect", "2x2", "--n", "2", "--format", "text")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert blocks[0].splitlines() == ["bb", "aa"]
    assert blocks[1].splitlines() == ["ab", "ab"]


# A ring around a one-cell hole, a gap column, and a 3x2 block.
GAPPED_GRID = "###.##\n#.#.##\n###.##"
# Area 42 with no 3-ribbon tiling, although its level profile allows one.
DEAD_GRID = "\n".join([".....#...", "#########", "#######.#"] + ["######..."] * 4)


def reference_listing(tilings, fmt: str) -> str:
    """What `ribbonry enumerate` prints for these tilings, from the reference serialisers."""
    if fmt == "text":
        return "".join(tiling_to_ascii(t) + "\n\n" for t in tilings)
    return "".join(t.to_json() + "\n" for t in tilings)


# The bench's `stream` listings, each in the format the bench asks for.
@pytest.mark.parametrize(
    "rows,cols,n,fmt",
    [(4, 12, 4, "json"), (2, 22, 2, "json"), (6, 6, 3, "json"), (6, 6, 3, "text"), (2, 16, 2, "text")],
)
def test_enumerate_matches_reference_serialisers(capsys, rows, cols, n, fmt):
    code, out, _ = run(capsys, "enumerate", "--rect", f"{rows}x{cols}", "--n", str(n), "--format", fmt)
    assert code == 0
    assert out == reference_listing(enumerate_tilings(build_rectangle(rows, cols), n), fmt)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_enumerate_grid_with_gaps_and_hole(capsys, monkeypatch, fmt):
    monkeypatch.setattr("sys.stdin", io.StringIO(GAPPED_GRID))
    code, out, _ = run(capsys, "enumerate", "--grid", "-", "--n", "2", "--format", fmt)
    assert code == 0
    want = reference_listing(enumerate_tilings(parse_region(GAPPED_GRID), 2), fmt)
    assert out == want and want.count("\n") == {"json": 6, "text": 6 * 4}[fmt]


def test_enumerate_text_letters_wrap(monkeypatch):
    # The first tilings of a 2x70 strip have up to 70 tiles; letters wrap after 62.
    tilings = 200
    pipe = ClosedPipe(tilings * 3)
    monkeypatch.setattr("sys.stdout", pipe)
    assert main(["enumerate", "--rect", "2x70", "--n", "2", "--format", "text"]) == 1
    first = list(islice(enumerate_tilings(build_rectangle(2, 70), 2), tilings))
    assert len(first[0].tiles) == 70
    assert pipe.getvalue() == reference_listing(first, "text")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "flags,grid",
    [
        (("--rect", "3x3", "--n", "2"), ""),
        (("--grid", "-", "--n", "2"), "#.\n.#"),
        (("--grid", "-", "--n", "3"), DEAD_GRID),
    ],
    ids=["area-not-multiple", "level-profile", "dead-ends"],
)
def test_enumerate_nothing_to_list(capsys, monkeypatch, flags, grid, fmt):
    monkeypatch.setattr("sys.stdin", io.StringIO(grid))
    assert run(capsys, "enumerate", *flags, "--format", fmt) == (0, "", "")


@pytest.mark.parametrize("fmt,lines", [("json", 10), ("text", 5 * 4), ("json", 0)])
def test_enumerate_into_closed_pipe(monkeypatch, fmt, lines):
    # A 3-row region prints each text tiling as 3 rows and a blank line.
    pipe = ClosedPipe(lines)
    monkeypatch.setattr("sys.stdout", pipe)
    assert main(["enumerate", "--rect", "3x6", "--n", "3", "--format", fmt]) == 1
    want = reference_listing(enumerate_tilings(build_rectangle(3, 6), 3), fmt)
    assert pipe.getvalue() == "".join(want.splitlines(keepends=True)[:lines])
    assert pipe.getvalue().count("\n") == lines


@pytest.mark.parametrize("lines", [1, 7, 10_000])
def test_long_listing_into_closed_pipe(monkeypatch, lines):
    # 4x12 n=4 lists 88,447 tilings; a closed pipe keeps exactly its first lines.
    full = io.StringIO()
    with redirect_stdout(full):
        assert main(["enumerate", "--rect", "4x12", "--n", "4"]) == 0
    pipe = ClosedPipe(lines)
    monkeypatch.setattr("sys.stdout", pipe)
    assert main(["enumerate", "--rect", "4x12", "--n", "4"]) == 1
    assert pipe.getvalue() == "".join(full.getvalue().splitlines(keepends=True)[:lines])


def test_sample_deterministic(capsys):
    code, first, _ = run(capsys, "sample", "--stair", "M=7,n=3", "--seed", "1")
    assert code == 0
    _, second, _ = run(capsys, "sample", "--stair", "M=7,n=3", "--seed", "1")
    assert first == second
    jsonschema.validate(json.loads(first), load_schema("tiling"))
    tiling = Tiling.from_json(first)
    tiling.validate()
    assert len(tiling.tiles) == 7
    _, other, _ = run(capsys, "sample", "--stair", "M=7,n=3", "--seed", "2")
    assert other != first


def _main_on(argv: list[str], stdin: str, entry=main) -> tuple[object, str, str]:
    """Exit code (or `("exit", code)` of a `SystemExit`), stdout and stderr
    of `entry(argv)` reading `stdin`."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = entry(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@st.composite
def _holed_region(draw) -> Region:
    """A rectangle of up to 6 by 6 cells with up to 5 of them taken out."""
    cols, rows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = {(x, y) for x in range(cols) for y in range(rows)}
    gone = draw(st.sets(st.sampled_from(sorted(cells)), max_size=min(5, len(cells) - 1)))
    return Region.from_cells(cells - gone)


@settings(max_examples=80, deadline=None)
@given(_holed_region(), st.integers(1, 4), st.lists(st.integers(-10**6, 10**9), min_size=1, max_size=6))
def test_sample_writes_what_the_library_draws(region, n, seeds):
    grid = region.to_text()
    for seed in seeds:
        try:
            tiling = sample_tiling(region, n, seed)
        except NotTileableError as exc:
            for fmt in ("json", "text"):
                argv = ["sample", "--grid", "-", "--n", str(n), "--seed", str(seed), "--format", fmt]
                assert _main_on(argv, grid) == (1, "", f"error: {exc}\n")
            continue
        for fmt, want in (("json", tiling.to_json()), ("text", tiling_to_ascii(tiling))):
            argv = ["sample", "--grid", "-", "--n", str(n), "--seed", str(seed), "--format", fmt]
            assert _main_on(argv, grid) == (0, want + "\n", ""), (argv, grid)


@st.composite
def _two_piece_region(draw) -> Region:
    """Two rectangles of up to 3 by 4 cells, one column apart, the second
    shifted up by up to 2 rows."""
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cells = {(x, y) for x in range(width) for y in range(height)}
    left, rise = width + 1, draw(st.integers(0, 2))
    cols, rows = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cells |= {(left + x, rise + y) for x in range(cols) for y in range(rows)}
    return Region.from_cells(cells)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_holed_region(), _two_piece_region()), st.integers(1, 4))
@example(parse_region(GAPPED_GRID), 2)
@example(parse_region(DEAD_GRID), 3)  # no tiling, although its level profile allows one
def test_listing_matches_an_independent_oracle(region, n):
    # The oracle recurses over cell sets with no memo and shares no code with
    # the walk; each of its tilings is dumped here with `json` alone.
    tilings = [Tiling(region, tiles) for tiles in tilings_oracle(region_cells(region), n)]
    grid = region.to_text()
    want_json = "".join(
        json.dumps(
            {"tiles": [{"root": [t.root.x, t.root.y], "moves": t.shape.moves} for t in tiling.tiles]},
            separators=(",", ":"),
        )
        + "\n"
        for tiling in tilings
    )
    want_text = "".join(tiling_to_ascii_reference(tiling) + "\n\n" for tiling in tilings)
    for fmt, want in (("json", want_json), ("text", want_text)):
        argv = ["enumerate", "--grid", "-", "--n", str(n), "--format", fmt]
        assert _main_on(argv, grid) == (0, want, ""), (argv, grid)


def test_json_draws_and_listings_build_no_tiles(capsys, monkeypatch):
    draw = ("sample", "--rect", "4x8", "--n", "4", "--seed", "11")
    listing = ("enumerate", "--grid", "-", "--n", "2")
    want = [
        sample_tiling(build_rectangle(4, 8), 4, 11).to_json() + "\n",
        reference_listing(enumerate_tilings(parse_region(GAPPED_GRID), 2), "json"),
    ]
    # A fresh cache, so the draw's searcher has built no tiles yet.
    monkeypatch.setattr(enumeration, "_tables", enumeration._TableCache())

    def no_tile(*args):
        raise AssertionError("built a Tile or a Tiling for JSON output")

    monkeypatch.setattr(enumeration, "Tile", no_tile)
    monkeypatch.setattr(enumeration, "Tiling", no_tile)
    monkeypatch.setattr("sys.stdin", io.StringIO(GAPPED_GRID))
    assert [run(capsys, *draw), run(capsys, *listing)] == [(0, out, "") for out in want]


def test_warm_draw_builds_no_region(capsys, monkeypatch):
    draw = ["sample", "--rect", "2x300", "--n", "2", "--seed"]
    want = [sample_tiling(build_rectangle(2, 300), 2, seed).to_json() + "\n" for seed in (1, 2)]
    # The sampler's table cache now holds the region, and nothing else does.
    assert run(capsys, *draw, "1") == (0, want[0], "")

    def no_cells(*args):
        raise AssertionError("built a region for a repeated spec")

    monkeypatch.setattr(region, "_cells", no_cells)
    assert run(capsys, *draw, "2") == (0, want[1], "")
    assert run(capsys, *draw, "1") == (0, want[0], "")


@pytest.mark.parametrize(
    "builder, flags",
    [
        ("build_rectangle", ("--rect", "4x9", "--n", "3")),
        ("build_aztec", ("--aztec", "N=3,n=4,k=2")),
        ("build_stair", ("--stair", "M=6,n=5")),
    ],
)
def test_count_regions_do_not_outlive_their_request(capsys, monkeypatch, builder, flags):
    # No other test keeps these regions, so a live one here was kept by the request.
    built = []

    def build(*args):
        made = getattr(region, builder)(*args)
        built.append(weakref.ref(made))
        return made

    monkeypatch.setattr(cli, builder, build)
    assert run(capsys, "count", *flags)[0] == 0
    gc.collect()
    assert len(built) == 1 and built[0]() is None


def _reference_main(argv: list[str]) -> int:
    """`main` as it was first written: the whole parser parses every argv."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotTileableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


def _parsed(parse, argv: list[str]) -> object:
    """The attributes `parse(argv)` sets, or the code it exits with."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code


def _assert_main_parses_as_whole_parser(argv: list[str], stdin: str) -> None:
    assert _main_on(argv, stdin) == _main_on(argv, stdin, _reference_main), argv
    assert _parsed(cli._parse, argv) == _parsed(build_parser().parse_args, argv), argv


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--version"],
        ["-h"],
        ["--"],
        ["bogus"],
        ["Sample"],
        ["--version", "sample"],
        ["sample", "--version"],
        ["sample", "-h"],
        ["sample", "--help", "--bogus"],
        ["sample", "--rect", "3x3", "--n", "3", "--bogus"],
        ["sample", "--rect", "3x3", "--n", "3", "extra", "words"],
        ["sample", "--re", "3x3", "--n", "3", "--se", "5"],
        ["sample", "--s", "5", "--rect", "3x3", "--n", "3"],
        ["sample", "--rect=3x3", "--n=3", "--seed=-4"],
        ["sample", "--rect", "3x3", "--n", "3", "--", "--seed", "1"],
        ["sample", "--", "--rect", "3x3"],
        ["--", "sample", "--rect", "3x3", "--n", "3"],
        ["sample", "--rect", "3x3", "--n", "3", "--format", "svg"],
        ["count", "--rect", "3x3", "--n", "x"],
        ["count", "--rect", "3x6", "--n", "3", "--format=text"],
        ["enumerate", "--rect", "2x3", "--n", "2", "sample"],
        ["render", "--in", "-", "--format", "text"],
        ["graph", "--stair", "M=3,n=2", "--format", "json"],
        ["verify"],
        ["verify", "nonsense"],
        ["verify", "formulas", "--bogus"],
        ["verify", "growth", "--rect", "4x6", "--n", "3"],
        # The edges of the plain path: a value of `-`, a value that starts
        # with `-`, a repeated option, an option where a value should be,
        # values that only `int` reads, a choice the command lacks, and a
        # command with a positional argument.
        ["render", "--in", "-"],
        ["sample", "--rect", "3x3", "--n", "3", "--seed", "-5"],
        ["sample", "--rect", "3x3", "--n", "3", "--seed", "1", "--seed", "2"],
        ["sample", "--rect", "--n", "3"],
        ["sample", "--rect", "--n", "--n", "3"],
        ["count", "--rect", "3x3", "--n", ""],
        ["count", "--rect", "3x3", "--n", " 3"],
        ["count", "--rect", "3x3", "--n", "+3"],
        ["count", "--rect", "3x3", "--n", "1_0"],
        ["count", "--rect", "3x3", "--n", "\u0663"],
        ["sample", "--format", "svg"],
        ["verify", "all", "--rect", "4x6", "--n", "3"],
    ],
)
def test_main_parses_as_the_whole_parser(argv):
    _assert_main_parses_as_whole_parser(argv, '{"tiles":[{"root":[0,0],"moves":"E"}]}')


_STRAY = ["--bogus", "bogus", "-x", "-h", "--help", "--version", "--", "--seed=3", "--n=x", "-5", "-", "count", "sample"]


@st.composite
def _any_argv(draw):
    """A `_cli_request` argv with flags now and then abbreviated or joined to
    their values by `=`, and stray words put in anywhere, the command's place
    included."""
    argv, grid = draw(_cli_request())
    words = argv[:1]
    for flag, value in zip(argv[1::2], argv[2::2]):
        if draw(_usually(st.just(False), st.just(True))):
            flag = flag[: draw(st.integers(3, len(flag)))]
        if draw(_usually(st.just(False), st.just(True))):
            words.append(f"{flag}={value}")
        else:
            words += [flag, value]
    for place, word in draw(st.lists(st.tuples(st.integers(0, len(words)), st.sampled_from(_STRAY)), max_size=2)):
        words.insert(place, word)
    return words, grid


@settings(max_examples=200, deadline=None)
@given(_any_argv())
def test_main_parses_any_argv_as_the_whole_parser(tmp_path_factory, argv_and_grid):
    argv, grid = argv_and_grid
    path = tmp_path_factory.mktemp("parse") / "grid.txt"  # a fresh name: rewriting one file waits on the disk
    path.write_text(grid)
    argv = [str(path) if word == "GRID" else word for word in argv]
    _assert_main_parses_as_whole_parser(argv, grid)


def test_plain_argv_runs_without_argparse(monkeypatch):
    stdin = '{"tiles":[{"root":[0,0],"moves":"E"}]}'
    argvs = [
        ["sample", "--rect", "3x3", "--n", "3", "--seed", "4"],
        ["render", "--in", "-", "--format", "svg"],
        ["count", "--aztec", "N=3,n=2"],
        ["enumerate", "--rect", "2x3", "--n", "2", "--format", "text"],
    ]
    before = [_main_on(argv, stdin, _reference_main) for argv in argvs]
    assert all(code == 0 for code, _, _ in before)
    cli._parsers()  # the plain path's table is built with argparse, once

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert [_main_on(argv, stdin) for argv in argvs] == before


def test_parser_reuse_keeps_calls_apart(capsys):
    sample = ["sample", "--rect", "3x3", "--n", "3", "--seed", "4"]
    code, text, _ = run(capsys, *sample, "--format", "text")
    assert code == 0
    code, out, _ = run(capsys, *sample)
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("tiling"))
    assert tiling_to_ascii(Tiling.from_json(out)) + "\n" == text
    bad = ["sample", "--rect", "3x3", "--n", "3", "--format", "svg"]
    with pytest.raises(SystemExit):
        build_parser().parse_args(bad)
    fresh = capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    assert capsys.readouterr().err == fresh
    assert run(capsys, "count", "--rect", "3x6") == (2, "", "error: --n is required with --rect\n")
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("ribbonry ")


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_sample_untileable_fails(capsys):
    code, out, err = run(capsys, "sample", "--rect", "2x3", "--n", "4")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_render_svg_from_file(capsys, tmp_path):
    tiling = next(enumerate_tilings(build_rectangle(3, 6), 3))
    path = tmp_path / "tiling.json"
    path.write_text(tiling.to_json())
    code, out, _ = run(capsys, "render", "--in", str(path), "--format", "svg")
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")
    polygons = [el for el in root.iter() if el.tag.endswith("polygon")]
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(polygons) == 6
    assert len(circles) == 6


def test_render_text_from_stdin(capsys, monkeypatch):
    tiling = next(enumerate_tilings(build_rectangle(2, 2), 2))
    monkeypatch.setattr("sys.stdin", io.StringIO(tiling.to_json()))
    code, out, _ = run(capsys, "render", "--format", "text")
    assert code == 0
    assert out.rstrip("\n") == tiling_to_ascii(tiling)


def test_render_rejects_garbage(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO("{\"tiles\": []}"))
    code, out, err = run(capsys, "render")
    assert code == 1 and "not a tiling" in err
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    code, _, err = run(capsys, "render")
    assert code == 1
    # Inputs the tiling schema rejects: a list of moves, a fractional root,
    # a stray tile key, a stray top-level key.
    for doc in (
        {"tiles": [{"root": [0, 0], "moves": ["E"]}]},
        {"tiles": [{"root": [0.7, 0], "moves": "E"}]},
        {"tiles": [{"root": [0, 0], "moves": "E", "color": "red"}]},
        {"tiles": [{"root": [0, 0], "moves": "E"}], "extra": 1},
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "render")
        assert (code, out) == (1, ""), doc
        assert err.startswith("error: not a tiling: "), doc
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"tiles": [{"root": [0, 0], "moves": "\xe9"}]}')
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 200000))
    for argv in (("render", "--in", str(path)), ("render",)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: not a tiling: "), argv


def test_graph_dot_output(capsys):
    code, out, _ = run(capsys, "graph", "--rect", "3x4", "--n", "3")
    assert code == 0
    assert out.startswith("digraph")
    assert 'class="forced_n"' in out
    assert out.count("style=dashed") == 5


def test_graph_json_output(capsys):
    code, out, _ = run(capsys, "graph", "--stair", "M=9,n=5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("graph"))
    assert len(payload["vertices"]) == 9
    assert all(edge["class"] == "free" for edge in payload["edges"])
    assert payload["tau"] == []


@pytest.mark.parametrize(
    "flags,grid,area,n",
    [(("--rect", "3x3", "--n", "2"), "", 9, 2), (("--grid", "-", "--n", "3"), "#..\n###\n###", 7, 3)],
    ids=["rectangle", "grid"],
)
def test_area_mismatch_answers(capsys, monkeypatch, flags, grid, area, n):
    monkeypatch.setattr("sys.stdin", io.StringIO(grid))
    assert run(capsys, "count", *flags) == (0, '{"count":"0","tiles":null,"entropy":null}\n', "")
    monkeypatch.setattr("sys.stdin", io.StringIO(grid))
    assert run(capsys, "enumerate", *flags) == (0, "", "")
    monkeypatch.setattr("sys.stdin", io.StringIO(grid))
    assert run(capsys, "sample", *flags) == (1, "", f"error: area {area} is not a multiple of {n}\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(grid))
    want = f"error: region of area {area} has no {n}-ribbon tiling\n"
    assert run(capsys, "graph", *flags) == (1, "", want)


def test_graph_untileable_fails(capsys, tmp_path):
    code, _, err = run(capsys, "graph", "--rect", "2x3", "--n", "4")
    assert code == 1 and "error" in err
    # Area divisible by 3 with no tiling: the first-tiling search must give up.
    path = tmp_path / "grid.txt"
    path.write_text("\n".join([".....#...", "#########", "#######.#"] + ["######..."] * 4))
    code, out, err = run(capsys, "graph", "--grid", str(path), "--n", "3")
    assert (code, out, err) == (1, "", "error: region of area 42 has no 3-ribbon tiling\n")


def test_verify_growth_with_region(capsys):
    code, out, _ = run(capsys, "verify", "growth", "--rect", "3x6", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("report"))
    assert payload["ok"] is True
    assert payload["failed"] == 0
    assert payload["checks"][0]["status"] == "pass"


def test_verify_stanley_report(capsys):
    code, out, _ = run(capsys, "verify", "stanley")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("report"))
    assert payload["suite"] == "stanley"
    assert payload["passed"] == len(payload["checks"]) > 0


def test_verify_growth_checks_large_rectangle(capsys):
    # 4x16 n=4 has 42 free edges, too many to visit orientations one by one.
    code, out, _ = run(capsys, "verify", "growth", "--rect", "4x16", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("report"))
    assert payload["ok"] is True
    assert payload["skipped"] == 0
    assert [c["status"] for c in payload["checks"]] == ["pass"]


def test_verify_text_format(capsys):
    code, out, _ = run(capsys, "verify", "growth", "--format", "text")
    assert code == 0
    assert out.splitlines()[-1].endswith("0 failed, 0 skipped")


def test_check_json_matches_asdict():
    checks = run_suite("all")
    assert len(checks) == 174
    for check in checks:
        assert check.to_json_dict() == asdict(check), check


def test_usage_errors_exit_2(capsys):
    cases = [
        ("count", "--rect", "3x6"),
        ("count", "--rect", "3x6", "--n", "3", "--stair", "M=2,n=3"),
        ("count", "--rect", "six", "--n", "2"),
        ("count", "--aztec", "N=2,n=3,k=9"),
        ("count", "--aztec", "N=2"),
        ("count", "--stair", "M=7,n=3", "--n", "4"),
        ("count", "--grid", "/nonexistent/grid.txt", "--n", "2"),
        ("verify", "formulas", "--rect", "2x2", "--n", "2"),
        ("verify", "growth", "--stair", "M=4,n=3"),
        ("verify", "growth", "--aztec", "N=2,n=2"),
        ("verify", "growth", "--rect", "4x6", "--n", "3"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error" in err, argv


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--rect", "3"), "--rect wants ROWSxCOLS, got '3'"),
        (("--aztec", "N=2,n=3,q=1"), "--aztec wants N=…,n=…,k=…, got 'N=2,n=3,q=1'"),
        (("--stair", "M=x,n=3"), "--stair: M must be an integer, got 'x'"),
        (("--rect", "3x3", "--n", "0"), "ribbon length must be positive, got 0"),
        (("--rect", "6x30", "--n", "0"), "ribbon length must be positive, got 0"),
        (("--aztec", "N=3,N=4,n=2"), "--aztec: N appears more than once, got 'N=3,N=4,n=2'"),
        (("--stair", "M=4,n=3,n=3"), "--stair: n appears more than once, got 'M=4,n=3,n=3'"),
    ],
)
def test_usage_error_messages(capsys, flags, message):
    assert run(capsys, "count", *flags) == (2, "", f"error: {message}\n")


_FORMATS = {
    "count": ("json", "text"),
    "sample": ("json", "text"),
    "enumerate": ("json", "text"),
    "graph": ("dot", "json"),
}


def _usually(value, other):
    """`value` seven times in eight, else `other`."""
    return st.sampled_from([value] * 7 + [other]).flatmap(lambda chosen: chosen)


_SIDE = _usually(st.integers(1, 6), st.integers(-1, 0))
_N = _usually(st.integers(1, 7), st.integers(-2, 0))


@st.composite
def _region_spec(draw, keys):
    """`K=v,...` for `keys`, each key usually there, now and then with a stray
    part: an unknown key, a bad value or one of `keys` once more."""
    parts = [f"{key}={draw(values)}" for key, values in keys if draw(_usually(st.just(True), st.just(False)))]
    again = st.sampled_from(keys).flatmap(lambda pair: pair[1].map(f"{pair[0]}={{}}".format))
    parts += draw(_usually(st.just([]), (st.sampled_from(["q=1", "n=two"]) | again).map(lambda part: [part])))
    return ",".join(draw(st.permutations(parts)))


@st.composite
def _cli_request(draw):
    """argv for count, sample, enumerate or graph, built from the README grammar,
    and the grid text that `--grid` reads from a file or from stdin.

    Sides stay at 6 or under (an Aztec diamond of size 3 is 6 wide), so no
    request is oversized; flags go missing, conflict and take bad values.
    """
    command = draw(st.sampled_from(sorted(_FORMATS)))
    rows = draw(st.lists(st.text("#.", min_size=1, max_size=6), max_size=6))
    grid = "\n".join(rows) + draw(_usually(st.just(""), st.just("x")))
    sources = draw(_usually(st.just(1), st.sampled_from([0, 2])))
    pairs = []
    for source in draw(st.permutations(["rect", "aztec", "stair", "grid"]))[:sources]:
        if source == "rect":
            sides = st.builds("{}x{}".format, _SIDE, _SIDE)
            value = draw(_usually(sides, st.sampled_from(["3", "3x", "ax2", "2x2x2"])))
        elif source == "aztec":
            size = _usually(st.integers(1, 3), st.integers(-1, 0))
            offset = _usually(st.integers(0, 2), st.integers(-1, 5))
            value = draw(_region_spec([("N", size), ("n", _N), ("k", offset)]))
        elif source == "stair":
            value = draw(_region_spec([("M", _SIDE), ("n", _N)]))
        else:
            value = draw(st.sampled_from(["-", "GRID", "GRID", "/nonexistent/grid.txt"]))
        pairs.append([f"--{source}", value])
    # --aztec and --stair carry n, so a second one is usually left out.
    embedded = any(source in ("--aztec", "--stair") for source, _ in pairs)
    if draw(_usually(st.just(not embedded), st.just(embedded))):
        pairs.append(["--n", draw(_usually(_N.map(str), st.just("two")))])
    if draw(st.booleans()):
        formats = st.sampled_from(_FORMATS[command])
        pairs.append(["--format", draw(_usually(formats, st.sampled_from(["svg", "xml"])))])
    if command == "sample" and draw(st.booleans()):
        pairs.append(["--seed", str(draw(st.integers(-5, 10**6)))])
    return [command] + [word for pair in draw(st.permutations(pairs)) for word in pair], grid


@settings(max_examples=300, deadline=None)
@given(_cli_request())
def test_cli_grammar_exits_cleanly(tmp_path_factory, request_and_grid):
    argv, grid = request_and_grid
    path = tmp_path_factory.mktemp("fuzz") / "grid.txt"  # a fresh name: rewriting one file waits on the disk
    path.write_text(grid)
    argv = [str(path) if word == "GRID" else word for word in argv]
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(grid)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv


def test_verify_formulas_checks_every_strip(capsys):
    code, out, _ = run(capsys, "verify", "formulas")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == len(payload["checks"]) == 119
    strip = [c for c in payload["checks"] if c["name"] == "rect 5x6 n=5"]
    assert [(c["expected"], c["status"]) for c in strip] == [("360", "pass")]


def test_grid_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("##\n#x")
    code, _, err = run(capsys, "count", "--grid", str(path), "--n", "2")
    assert code == 2
    assert "illegal character" in err


def test_grid_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(".##.\n####\n####\n.##.\n"))
    code, out, _ = run(capsys, "count", "--grid", "-", "--n", "2")
    assert code == 0
    assert json.loads(out)["count"] == "8"


def test_argparse_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    for removed in (
        ["count", "--rect", "3x9", "--n", "3", "--threads", "3"],
        ["count", "--rect", "3x9", "--n", "3", "--memo-limit", "320"],
        ["verify", "bijection", "--free-edge-limit", "40"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(removed)
        assert exc.value.code == 2


def _readme_cli_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        for part in line.split("#", 1)[0].split("|"):
            words = shlex.split(part.split(">", 1)[0])
            if words[:1] == ["ribbonry"]:
                commands.append(words[1:])
    return commands


def test_readme_cli_lines_parse():
    commands = _readme_cli_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line no longer parses: ribbonry {shlex.join(argv)}")


def test_readme_verify_lines_pass(capsys):
    commands = [argv for argv in _readme_cli_commands() if argv[:1] == ["verify"]]
    assert len(commands) >= 3
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert json.loads(out)["skipped"] == 0, argv


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("ribbonry ")


def test_no_runtime_dependencies():
    # -S skips site, so only what the import itself loads is in sys.modules.
    probe = (
        "import sys, ribbonry, ribbonry.cli; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} - sys.stdlib_module_names))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "['__main__', 'ribbonry']"
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["dependencies"] == []
