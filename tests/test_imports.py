"""What a fresh interpreter loads: the package namespace resolves each name on
first use, and each command imports only the modules it runs."""

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ribbonry import cli, verify
from ribbonry.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: `ribbonry.__all__` as the package has always listed it.
PUBLIC = [
    "Cell", "Region", "RegionParseError", "RibbonShape", "Tile", "Tiling",
    "build_aztec", "build_rectangle", "build_stair", "parse_region",
    "NotTileableError", "count_minimal", "count_tilings", "count_variable", "entropy",
    "enumerate_tilings", "is_tileable", "log2_big", "sample_tiling", "tiling_probability",
    "BijectionReport", "ChromaticPoly", "GraphInconsistencyError", "GrowthReport", "SEdge",
    "SGraph", "VertexId", "acyclic_count_via_chromatic", "build_graph",
    "chromatic_polynomial", "count_admissible_orientations", "graphs_isomorphic",
    "is_acyclic", "orientation_from_tiling", "tile_levels", "to_dot", "verify_bijection",
    "verify_growth_bounds",
    "a_sequence", "aztec_count", "domino_strip_entropy", "entropy_bounds",
    "rect_strip_count", "stair_count", "stair_entropy_limit", "stanley_fib_count",
    "stanley_minimal_count",
    "tiling_to_ascii", "tiling_to_svg",
    "__version__",
]  # fmt: skip

SUBMODULES = ["region", "enumeration", "sheffield", "formulas", "render", "verify", "cli"]


def _fresh(probe: str, *argv: str) -> subprocess.CompletedProcess:
    """`python -c probe argv...` in a new interpreter that imports ribbonry from src/."""
    return subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )


# Runs one command, then reports on stderr every module it loaded beyond
# what the bare interpreter had.
_COMMAND = """
import sys
bare = set(sys.modules)
from ribbonry.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(repr((code, sorted(set(sys.modules) - bare))))
"""

_LEAN = ["ribbonry", "ribbonry.cli", "ribbonry.enumeration", "ribbonry.region"]


@pytest.mark.parametrize(
    "argv,ribbonry_modules",
    [
        (["count", "--rect", "3x6", "--n", "3"], _LEAN),
        (["count", "--rect", "3x6", "--n", "3", "--format", "text"], _LEAN),
        (["sample", "--rect", "3x7", "--n", "3", "--seed", "42"], _LEAN),
        (["sample", "--rect", "3x7", "--n", "3", "--seed", "42", "--format", "text"], [*_LEAN, "ribbonry.render"]),
        (["graph", "--rect", "3x3", "--n", "3"], [*_LEAN, "ribbonry.sheffield"]),
    ],
)
def test_a_command_imports_only_what_it_runs(argv, ribbonry_modules):
    result = _fresh(_COMMAND, *argv)
    code, loaded = ast.literal_eval(result.stderr)
    assert sorted(m for m in loaded if m.partition(".")[0] == "ribbonry") == ribbonry_modules
    assert not {"fractions", "decimal"} & set(loaded)  # only the growth check and probabilities need them
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == code == 0
    assert result.stdout == out.getvalue()


# Reports what `import ribbonry` loads and how its namespace answers.
_NAMESPACE = """
import json, sys
bare = set(sys.modules)
import ribbonry
loaded = sorted(m for m in set(sys.modules) - bare if m.startswith("ribbonry"))
listed = list(ribbonry.__all__)
in_dir = sorted(set(dir(ribbonry)) & set(listed + sys.argv[1:]))
star = {}
exec("from ribbonry import *", star)
star.pop("__builtins__")
owners = {name: getattr(ribbonry, name).__module__ for name in listed if name != "__version__"}
modules = {name: getattr(ribbonry, name).__name__ for name in sys.argv[1:]}
try:
    ribbonry.no_such_name
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"loaded": loaded, "all": listed, "dir": in_dir, "star": sorted(star),
                  "owners": owners, "modules": modules, "missing": missing}))
"""


def test_package_namespace_resolves_on_first_use():
    report = json.loads(_fresh(_NAMESPACE, *SUBMODULES).stdout)
    assert report["loaded"] == ["ribbonry"]
    assert report["all"] == PUBLIC
    assert report["dir"] == sorted(PUBLIC + SUBMODULES)
    assert report["star"] == sorted(PUBLIC)
    assert set(report["owners"].values()) == {f"ribbonry.{m}" for m in SUBMODULES[:5]}
    assert report["modules"] == {name: f"ribbonry.{name}" for name in SUBMODULES}
    assert report["missing"] == "module 'ribbonry' has no attribute 'no_such_name'"


def test_suite_names_come_without_the_suites():
    probe = "import sys\nfrom ribbonry.cli import SUITE_NAMES\nprint(sorted(sys.modules))"
    loaded = ast.literal_eval(_fresh(probe).stdout)
    assert not {"fractions", "ribbonry.formulas", "ribbonry.sheffield", "ribbonry.verify"} & set(loaded)
    assert verify.SUITE_NAMES is cli.SUITE_NAMES


def test_import_builds_no_parser():
    probe = "import ribbonry.cli as cli\nprint(cli._parsers.cache_info().currsize)"
    assert _fresh(probe).stdout == "0\n"
