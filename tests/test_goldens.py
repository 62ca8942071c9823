"""Outputs pinned as sha256 digests: seed -> sampled tiling, the sampler's
completion tables, enumeration order, CLI listings, `verify all` reports,
`render` pictures, isomorphism witnesses and chromatic coefficients.

The tiling digests were recorded from the recursive frontier search, the
graph digests before isomorphism and the chromatic peel moved onto
incidence lists, the CLI listing digests while `enumerate` still built
and serialised a `Tiling` per line, and the picture digests while both
renderers still worked cell by cell; any engine change must reproduce them
byte for byte.
"""

import hashlib
import io
import json

import pytest

from closed_pipe import ClosedPipe
from oracles import absolute_states
from ribbonry import (
    build_aztec,
    build_graph,
    build_rectangle,
    build_stair,
    chromatic_polynomial,
    enumerate_tilings,
    graphs_isomorphic,
    parse_region,
    sample_tiling,
)
from ribbonry.cli import main
from ribbonry.enumeration import _Searcher
from ribbonry.region import Region
from ribbonry.verify import bijection_battery


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _lines_digest(lines) -> str:
    return sha256("".join(line + "\n" for line in lines))


def _witness_line(result) -> str:
    """The verdict and the witness in the order the search mapped its vertices."""
    ok, mapping = result
    if mapping is None:
        return f"{ok} None"
    return f"{ok} {[(tuple(v), tuple(w)) for v, w in mapping.items()]!r}"


SAMPLE_GOLDENS = [
    (build_rectangle(3, 7), 3, 0, "61b38e39a1f10f41756eae4ea0361fcbff47ae9575ed5543987edcf9ef8d59a1"),
    (build_rectangle(3, 7), 3, 1, "2312c1e8772d666a1fce2c9d1de7a7d447d07a131abc37ca72283aa80e419c57"),
    (build_rectangle(3, 7), 3, 2, "6d63d8ac041119ebbb7e0eb407ec22736b2eeabdd889d4e0e4ac3e36e16d2c6e"),
    (build_rectangle(3, 7), 3, 3, "d6a866ba1388a84243c43c589596051696a3b509cf54d5d24d8ae0a0edf1892f"),
    (build_rectangle(3, 7), 3, 4, "5c53e19401cf9eb7d8f20994a7c475a2fab2ab00f8cd76a975326875b920c828"),
    (build_stair(10, 4), 4, 0, "325f70e4377707386610fd542332e09d3ab42c1d156e83081b320e5fc852344c"),
    (build_aztec(5, 3, 1), 3, 0, "3edf93c7b6491307242cf185ab14a2c2006f3cfef296c27b8067e6bcf5a63d13"),
    (build_rectangle(2, 300), 2, 0, "defa601b2214ef077f9273aa3e0ed24d00b8ae944e2806b62214c43abacdaa61"),
]

# The bench's `sample` regions and 8x8 n=4: table size and the digest of
# `repr(sorted(table.items()))`, the table keyed by covered masks, recorded
# from the two-pass table build (a forward sweep that kept its layers, then a
# back pass over them).
COMPLETION_TABLE_GOLDENS = [
    (build_rectangle(3, 3), 3, 11, "55532671fd14b8ce84929f5235f0c9157728da78dc10c336928f291ec20067a0"),
    (build_rectangle(3, 7), 3, 43, "188f2ce9f8269e117c5f400e28f1693b6fc8f815f68283854513797c321fc832"),
    (build_rectangle(4, 8), 4, 292, "f5d47fb8e3b912bba2b1e93cebb7c669b5b09628b4c4bb133d48c45835ccd499"),
    (build_stair(10, 4), 4, 28, "5d8bb4404302a41fc9d303ee66921b06171d2e29299dd53a5447249c0c32044c"),
    (build_aztec(5, 3, 1), 3, 983, "9ecadf74d72379eb7b371936bd2d749d2e71f6768999cb49ea8966cfe7b6cece"),
    (build_rectangle(10, 10), 2, 4095, "501d0a5d64312f39588238178333e585762289eba9d7833689f6fb5965f9a3d5"),
    (build_rectangle(2, 300), 2, 599, "4500b4f917e4d318383998d3bd07c8c2bc3bee8c7e0a7f8c4751a04d9f453a6b"),
    (build_rectangle(8, 8), 4, 47114, "5f85594a6e14f4870d4728d7eb283619bde94b59a2daf3e8b0a8ba73bac96340"),
]

ENUMERATION_GOLDENS = [
    (build_rectangle(3, 6), 3, 61, "7ecfbe8911ada3d9b9dbb790abd808b0278cd920c8d6057a6dce6ca45ab7dca2"),
    (build_rectangle(4, 8), 4, 1379, "d5c38e44ece5426f9ec553feb820c4b0a832b65363e3c0c5e6d257bc12ffd66c"),
]


# The bench's `stream` listings: stdout of `ribbonry ARGV`, and of
# `ribbonry ARGV | head -n HEAD` where HEAD is set.
CLI_LISTING_GOLDENS = [
    ("enumerate --rect 4x12 --n 4", None, "c5bbb0a71606abd614a430240d36687b65756ea9f79fd578e72b9e1eee18b402"),
    ("enumerate --rect 2x22 --n 2", None, "da43e00d3b7de0d09eb989fb072fa6538d34c42c8214cd6c048bdc2952543666"),
    ("enumerate --rect 6x6 --n 3", None, "1ee7e1e59caf3b57acffbb491fefc61532787894bbe1f49fa1d560da8361f5ee"),
    (
        "enumerate --rect 6x6 --n 3 --format text",
        None,
        "95d6b970e1dc004de7117ba2502c4351166f815bfbad01ac8b103f4ad595ea84",
    ),
    (
        "enumerate --rect 2x16 --n 2 --format text",
        None,
        "a04d60d3966dca335ed6c7cdfc08ebb6c18b085cb21c4a536dd0853f3522de8a",
    ),
    ("enumerate --rect 4x16 --n 4", 10_000, "cab6f3846b333c90378e8c0b4e634702fdfad9bf0b4e32f31fb7745f7e73bf2e"),
]


@pytest.mark.parametrize(
    "argv,head,digest",
    CLI_LISTING_GOLDENS,
    ids=[argv if head is None else f"{argv} | head -n {head}" for argv, head, _ in CLI_LISTING_GOLDENS],
)
def test_cli_listing_golden(monkeypatch, argv, head, digest):
    # Without a head the pipe never closes: no listing here has a billion lines.
    pipe = ClosedPipe(head if head is not None else 10**9)
    monkeypatch.setattr("sys.stdout", pipe)
    assert main(argv.split()) == (0 if head is None else 1)
    assert sha256(pipe.getvalue()) == digest


# `ribbonry verify all`: the bench's `stream` workload checks only that its
# report says "ok": true, so these pin every check line.
VERIFY_GOLDENS = [
    ("json", "7f34f27e2e250a2315a19b18fa619a2b948e72d1fc1f6e508e09d17b367806b3"),
    ("text", "7acc7f0dd6b38ac5abeb15b997361d9a4d0757384cac9622498548e84685ebc5"),
]


@pytest.mark.parametrize("fmt,digest", VERIFY_GOLDENS)
def test_verify_all_golden(capsys, fmt, digest):
    assert main(["verify", "all", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert sha256(out) == digest


@pytest.mark.parametrize("region,n,seed,digest", SAMPLE_GOLDENS)
def test_sample_golden(region, n, seed, digest):
    assert sha256(sample_tiling(region, n, seed).to_json()) == digest


@pytest.mark.parametrize("region,n,size,digest", COMPLETION_TABLE_GOLDENS)
def test_completion_table_golden(region, n, size, digest):
    # The size is what the sampler's cache charges against its budget.
    table = absolute_states(_Searcher(region, n).completions())
    assert len(table) == size
    assert sha256(repr(sorted(table.items()))) == digest


@pytest.mark.parametrize("region,n,lines,digest", ENUMERATION_GOLDENS)
def test_enumeration_stream_golden(region, n, lines, digest):
    stream = [tiling.to_json() + "\n" for tiling in enumerate_tilings(region, n)]
    assert len(stream) == lines
    assert sha256("".join(stream)) == digest


def test_isomorphism_witness_golden():
    graphs = [build_graph(region, n) for _, region, n in bijection_battery()]
    lines = [_witness_line(graphs_isomorphic(g1, g2)) for g1 in graphs for g2 in graphs]
    assert sum(line.startswith("True") for line in lines) == 66
    assert _lines_digest(lines) == "0c2423aa545f7678df182760c912702d1a6ae7ed1e3044409bb11f27877dd9a2"
    strip = build_graph(build_rectangle(2, 1200), 2)
    assert _lines_digest([_witness_line(graphs_isomorphic(strip, strip))]) == (
        "4ec23e4d69afb0ad4d6aa161535c1c7bfe3e4a1a20ad70653e55f38c773995e0"
    )


def test_chromatic_coefficients_golden():
    graphs = [build_graph(region, n) for _, region, n in bijection_battery()]
    graphs.append(build_graph(build_rectangle(2, 1200), 2))
    lines = [repr(chromatic_polynomial(graph).coeffs) for graph in graphs]
    assert _lines_digest(lines) == "875685e9d3394ae435e0237b4b44363089cfa1952325643412421a1a7f95b4e3"


def _draw(region: Region, n: int) -> str:
    """The tiling JSON that `ribbonry sample ... --seed 1` writes."""
    return sample_tiling(region, n, 1).to_json()


def _shifted_draw(dx: int, dy: int) -> str:
    """A draw on a region built from cells away from the origin, with its
    roots moved off the origin too, so that `render` shifts them back."""
    cells = [(x + 11, y + 4) for x, y in build_aztec(3, 3, 1).cells]
    tiling = json.loads(sample_tiling(Region.from_cells(cells), 3, 5).to_json())
    for tile in tiling["tiles"]:
        tile["root"] = [tile["root"][0] + dx, tile["root"][1] + dy]
    return json.dumps(tiling)


HOLED_GRID = "#######\n#######\n##...##\n##...##\n#######\n#######"

# `render` of fixed draws: the seven bench `sample` regions, an offset-built
# region and a grid with a hole.  sha256 of stdout for --format svg and text,
# recorded while the SVG traced every tile's outline from its own cells and
# the letter grid was filled from a cell -> tile dict.
RENDER_GOLDENS = [
    (
        "rect 3x3 n=3",
        lambda: _draw(build_rectangle(3, 3), 3),
        "040054cb83c598ab73802f7712ffd3968a03b1bb9a42a4bf9700b46f269ec1b9",
        "a0bac2d31fb1eb1c323c295863cb687f7a752c949ef5e0f7364f991866b0f180",
    ),
    (
        "rect 3x7 n=3",
        lambda: _draw(build_rectangle(3, 7), 3),
        "58ebf7cbf5a87aeeaa51d2d744c4882a6b936f7d9bb963980d752349c8e69656",
        "f49201d87bfe48dc012fd99f6bcca4e4e2b2bb8b801c8957b544b7e0ff6ba3dd",
    ),
    (
        "rect 4x8 n=4",
        lambda: _draw(build_rectangle(4, 8), 4),
        "d77088132db0d28e27175d7b0e8765e0ffdb766d090f7e9c82d1645f875e2770",
        "149a834cd763ef77e922e2bd3f493f3f91c5fe1c1a931202eeb2e65740f2199a",
    ),
    (
        "stair M=10,n=4",
        lambda: _draw(build_stair(10, 4), 4),
        "1a27a0be54e4e2a1c1d0621cdcfef2884f103af290143cf684d341a3f7cee229",
        "282b393104b13cc50e6f3040f8ecdc9194025a3f5259a19cc289018b1436f1f7",
    ),
    (
        "aztec N=5,n=3,k=1",
        lambda: _draw(build_aztec(5, 3, 1), 3),
        "8794ddfb4cfd2f907a30f8af08ab72d5a706e6208d50e7631dffa97b2da9bd8c",
        "55fa97930c2df2abaf115b0abf2bec38dcc486b9009e96742d3e67a48412f458",
    ),
    (
        "rect 10x10 n=2",
        lambda: _draw(build_rectangle(10, 10), 2),
        "fc5b64c9afe9f566e645c8e1a52d76992039bd03a7e7366a915397634c88fa27",
        "d0fde2d22505c8cf1b2d9c5847c1876a49f756b561d905fb5986d6d75dec5668",
    ),
    (
        "rect 2x300 n=2",
        lambda: _draw(build_rectangle(2, 300), 2),
        "c4d2a72b1dbb9a8e912ed3e2a7316c77b16776916965b24ad46d313066bfb2e6",
        "471c2895fdf921228b373d9e8e46bf01b19ebc4ab3c32edae58cade35c56c4c0",
    ),
    (
        "offset aztec N=3,n=3,k=1",
        lambda: _shifted_draw(6, 9),
        "43a7b756e00f6b3d047b68313ac88463f644b769a3ac0a06521d48126cb5e3e5",
        "c51b81a32456c28a87458fd6aaa354e6de06006a0da7cae1b86e0c0d5ca510e9",
    ),
    (
        "holed grid n=3",
        lambda: _draw(parse_region(HOLED_GRID), 3),
        "a5d97ec8a63b6533875924eb06f49ca86969c50efb78c110474e3628961ab23a",
        "cfb1e7edaf5c99e17405c29871c72139d38925a6d6bf234d1f6a7db1112e8ed8",
    ),
]


@pytest.mark.parametrize("fmt", ["svg", "text"])
@pytest.mark.parametrize(
    "draw,svg_digest,text_digest", [case[1:] for case in RENDER_GOLDENS], ids=[case[0] for case in RENDER_GOLDENS]
)
def test_render_golden(capsys, monkeypatch, fmt, draw, svg_digest, text_digest):
    monkeypatch.setattr("sys.stdin", io.StringIO(draw()))
    assert main(["render", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert sha256(out) == (svg_digest if fmt == "svg" else text_digest)
