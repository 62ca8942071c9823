"""Command-line front end: count, enumerate, sample, render, graph, verify.

Exit codes: 0 success (a count of zero is success), 1 domain failure such as
sampling an untileable region or running out of memory, 2 usage error.

`main` reads a plain command line without argparse: a command that takes no
positional argument, then pairs of a whole option string, each at most once,
and a value that passes the option's type and choices.  Any other argv goes
through the whole parser.  Either way the outcome, usage messages and
`--help`/`--version` output included, is the same as
`build_parser().parse_args(argv)`.

Only `region` and `enumeration` are imported with this module: they are
what `count`, `enumerate` and `sample` run.  `render`, `sheffield` and
`verify` are imported inside the commands that use them, so a one-shot
process never loads a module its command does not run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .enumeration import NotTileableError, _draw, _searcher_for, count_tilings, log2_big
from .region import Region, RegionParseError, Tiling, build_aztec, build_rectangle, build_stair, parse_region


_REGION_FLAGS = ("rect", "aztec", "stair", "grid")

#: The suites `ribbonry verify` runs, as `verify.run_suite` names them.
SUITE_NAMES = ("formulas", "stanley", "bijection", "growth", "all")


class UsageError(Exception):
    """Bad flag values or region specs; reported with exit code 2."""


def _parse_rect(text: str) -> tuple[int, int]:
    rows, sep, cols = text.partition("x")
    if not sep:
        raise UsageError(f"--rect wants ROWSxCOLS, got {text!r}")
    try:
        return int(rows), int(cols)
    except ValueError:
        raise UsageError(f"--rect wants integers, got {text!r}") from None


def _parse_kv(flag: str, text: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict[str, int]:
    out: dict[str, int] = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in required + optional:
            wanted = ",".join(f"{k}=…" for k in required + optional)
            raise UsageError(f"{flag} wants {wanted}, got {text!r}")
        if key in out:
            raise UsageError(f"{flag}: {key} appears more than once, got {text!r}")
        try:
            out[key] = int(value)
        except ValueError:
            raise UsageError(f"{flag}: {key} must be an integer, got {value!r}") from None
    missing = [k for k in required if k not in out]
    if missing:
        raise UsageError(f"{flag} is missing {', '.join(missing)}")
    return out


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _resolve_region(args: argparse.Namespace) -> tuple[Region, int]:
    """Build the region named by the flags and settle the ribbon length."""
    chosen = [name for name in _REGION_FLAGS if getattr(args, name)]
    if len(chosen) != 1:
        raise UsageError("exactly one of --rect, --aztec, --stair, --grid is required")
    source = chosen[0]
    embedded: int | None = None
    try:
        if source == "rect":
            rows, cols = _parse_rect(args.rect)
            region = build_rectangle(rows, cols)
        elif source == "aztec":
            kv = _parse_kv("--aztec", args.aztec, required=("N", "n"), optional=("k",))
            embedded = kv["n"]
            region = build_aztec(kv["N"], kv["n"], kv.get("k", 0))
        elif source == "stair":
            kv = _parse_kv("--stair", args.stair, required=("M", "n"))
            embedded = kv["n"]
            region = build_stair(kv["M"], kv["n"])
        else:
            region = parse_region(_read_text(args.grid))
    except RegionParseError as exc:
        raise UsageError(f"--grid: {exc}") from None
    except ValueError as exc:
        raise UsageError(f"--{source}: {exc}") from None
    n = args.n if args.n is not None else embedded
    if n is None:
        raise UsageError(f"--n is required with --{source}")
    if embedded is not None and args.n is not None and args.n != embedded:
        raise UsageError(f"--n {args.n} conflicts with n={embedded} in --{source}")
    if n < 1:
        raise UsageError(f"ribbon length must be positive, got {n}")
    return region, n


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _decimal(value: int) -> str:
    """`str(value)` for a nonnegative integer of any size.

    `str` refuses an integer of more digits than
    `sys.get_int_max_str_digits()` (4,300 by default).  Such a value is split
    at a power of ten into two halves that are converted on their own, so the
    limit, which the whole process shares, stays as it is.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # Under 8**limit, a value has at most `limit` digits.
    if not limit or value.bit_length() <= 3 * limit:
        return str(value)
    width = value.bit_length() * 3 // 20  # about half its digits
    head, tail = divmod(value, 10**width)
    return _decimal(head) + _decimal(tail).zfill(width)


def cmd_count(args: argparse.Namespace) -> int:
    region, n = _resolve_region(args)
    count = count_tilings(region, n)
    tiles = region.area // n if region.area % n == 0 else None
    ent = log2_big(count) / tiles if count and tiles else None
    if args.format == "text":
        print(f"count: {_decimal(count)}")
        print(f"tiles: {'-' if tiles is None else tiles}")
        print(f"entropy: {'-' if ent is None else format(ent, '.6f')}")
    else:
        _print_json({"count": _decimal(count), "tiles": tiles, "entropy": ent})
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    """List every tiling, one write per tiling.

    The walk folds output built once per placement along its stack
    (`_Searcher.walk`).  In JSON each placement's label is its fragment and
    a comma, and its end is its fragment and the line's close, so the walk
    yields each whole line from `{"tiles":[` with one concatenation, and
    consecutive lines share their common prefix.  In text the walk folds
    1-tuples of positions, which `_letter_grids` draws.  Each line matches
    `Tiling.to_json` (or `tiling_to_ascii` and a blank line) of the tiling
    `enumerate_tilings` yields in its place.
    """
    region, n = _resolve_region(args)
    searcher = _searcher_for(region, n)
    write = sys.stdout.write
    if args.format == "text":
        from .render import _letter_grids

        positions = [(position,) for position in range(len(searcher.tiles))]
        for grid in _letter_grids(region, searcher.tiles, searcher.walk((), positions, positions)):
            write(grid + "\n\n")
    else:
        fragments = searcher.fragments
        labels = [fragment + "," for fragment in fragments]
        ends = [fragment + "]}\n" for fragment in fragments]
        for line in searcher.walk('{"tiles":[', labels, ends):
            write(line)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    """Draw one tiling and write it in one write.

    The line is built from the drawn placements' output, which
    `cmd_enumerate` reads too: in JSON it is joined from their `fragments`,
    which the sampler's cached searcher holds, and text goes through
    `_letter_grids`.  It matches `Tiling.to_json` (or `tiling_to_ascii`)
    of `sample_tiling`'s draw.
    """
    region, n = _resolve_region(args)
    searcher, picks = _draw(region, n, args.seed)
    if args.format == "text":
        from .render import _letter_grids

        tiles = list(map(searcher.tiles.__getitem__, picks))
        sys.stdout.write(next(_letter_grids(region, tiles, [range(len(tiles))])) + "\n")
    else:
        sys.stdout.write('{"tiles":[' + ",".join(map(searcher.fragments.__getitem__, picks)) + "]}\n")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from .render import tiling_to_ascii, tiling_to_svg

    try:
        tiling = Tiling.from_json(_read_text(args.infile))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"error: not a tiling: {exc}", file=sys.stderr)
        return 1
    print(tiling_to_svg(tiling) if args.format == "svg" else tiling_to_ascii(tiling))
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    from .sheffield import build_graph, to_dot

    region, n = _resolve_region(args)
    graph = build_graph(region, n)
    if args.format == "json":
        _print_json(graph.to_json_dict())
    else:
        print(to_dot(graph))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import FAIL, run_suite

    growth_cases = None
    if any(getattr(args, name) for name in _REGION_FLAGS):
        if args.suite not in ("growth", "all"):
            raise UsageError("region flags apply only to the growth suite")
        region, n = _resolve_region(args)
        growth_cases = [(f"region n={n}", region, n)]
    try:
        checks = run_suite(args.suite, growth_cases=growth_cases)
    except ValueError as exc:  # verify_growth_bounds refuses a non-rectangle or a bad n
        raise UsageError(str(exc)) from None
    failed = sum(c.status == FAIL for c in checks)
    passed = len(checks) - failed
    if args.format == "text":
        for check in checks:
            if check.status == FAIL:
                print(f"FAIL {check.name}: expected {check.expected} ({check.source}), got {check.actual}")
            else:
                print(f"PASS {check.name}: {check.actual} ({check.source})")
        print(f"{passed} passed, {failed} failed, 0 skipped")
    else:
        _print_json(
            {
                "suite": args.suite,
                "ok": failed == 0,
                "passed": passed,
                "failed": failed,
                "skipped": 0,
                "checks": [c.to_json_dict() for c in checks],
            }
        )
    return 1 if failed else 0


def _add_region_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("region (pick one)")
    group.add_argument("--rect", metavar="ROWSxCOLS", help="rectangle, e.g. 3x6")
    group.add_argument("--aztec", metavar="N=..,n=..[,k=..]", help="Aztec-diamond analogue")
    group.add_argument("--stair", metavar="M=..,n=..", help="stair region with M rows of length n")
    group.add_argument("--grid", metavar="PATH", help="grid file of '#' and '.' ('-' for stdin)")
    parser.add_argument("--n", type=int, help="ribbon length (implied by --aztec/--stair)")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole `ribbonry` command line."""
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """A new whole parser and its commands' own parsers, by command name."""
    parser = argparse.ArgumentParser(
        prog="ribbonry",
        description="Exact counting, enumeration, and uniform sampling of ribbon tilings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count tilings and report per-tile entropy")
    _add_region_flags(count)
    count.add_argument("--format", choices=("json", "text"), default="json")
    count.set_defaults(func=cmd_count)

    enum = sub.add_parser("enumerate", help="stream every tiling, one JSON object per line")
    _add_region_flags(enum)
    enum.add_argument("--format", choices=("json", "text"), default="json")
    enum.set_defaults(func=cmd_enumerate)

    sample = sub.add_parser("sample", help="draw one tiling exactly uniformly at random")
    _add_region_flags(sample)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--format", choices=("json", "text"), default="json")
    sample.set_defaults(func=cmd_sample)

    render = sub.add_parser("render", help="render a tiling JSON file as SVG or ASCII")
    render.add_argument("--in", dest="infile", default="-", metavar="PATH", help="tiling JSON ('-' for stdin)")
    render.add_argument("--format", choices=("svg", "text"), default="svg")
    render.set_defaults(func=cmd_render)

    graph = sub.add_parser("graph", help="emit the tile adjacency graph as DOT or JSON")
    _add_region_flags(graph)
    graph.add_argument("--format", choices=("dot", "json"), default="dot")
    graph.set_defaults(func=cmd_graph)

    verify = sub.add_parser("verify", help="run a self-check suite and report each check")
    verify.add_argument("suite", choices=SUITE_NAMES)
    _add_region_flags(verify)
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.set_defaults(func=cmd_verify)

    return parser, sub.choices


_Plain = dict[str, tuple[dict[str, object], dict[str, argparse.Action]]]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, _Plain]:
    """The whole parser `main` reuses and the plain path's table, built on
    first use rather than at import."""
    parser, commands = _build_parsers()
    return parser, _plain_table(commands)


def _plain_table(commands: dict[str, argparse.ArgumentParser]) -> _Plain:
    """For each command whose parser takes only optional, value-taking
    options: what the whole parser makes of the command alone (the
    defaults, `func` and `command`), and its options by option string."""
    table: _Plain = {}
    for name, command in commands.items():
        actions = command._actions
        if all(action.option_strings and not action.required for action in actions):
            options = {
                flag: action
                for action in actions
                if isinstance(action, argparse._StoreAction)
                for flag in action.option_strings
            }
            table[name] = ({**vars(command.parse_known_args([])[0]), "command": name}, options)
    return table


def _parse_plain(
    defaults: dict[str, object], options: dict[str, argparse.Action], words: list[str]
) -> argparse.Namespace | None:
    """The namespace the whole parser makes of a command and the `words`
    after it, when they are pairs of an option string spelled out, each at
    most once, and a value that is `-` or does not start with `-` and passes
    the option's type and choices; otherwise None."""
    if len(words) % 2:
        return None
    values: dict[str, object] = {}
    pairs = iter(words)
    for flag, text in zip(pairs, pairs):
        action = options.get(flag)
        if action is None or action.dest in values or text[:1] == "-" and text != "-":
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    args = argparse.Namespace()
    namespace = vars(args)  # filled directly: `Namespace(**kwargs)` sets one attribute at a time
    namespace.update(defaults)
    namespace.update(values)
    return args


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """What `build_parser().parse_args(argv)` returns, or its usage error.

    A plain argv (see the module docstring) is read straight into the
    namespace that argparse would build; any other goes through the whole
    parser.
    """
    parser, plain = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    name = argv[0] if argv else None
    if name in plain:
        args = _parse_plain(*plain[name], argv[1:])
        if args is not None:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
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


if __name__ == "__main__":
    sys.exit(main())
