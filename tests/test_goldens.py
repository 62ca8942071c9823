"""Outputs pinned as sha256 digests: seed -> sampled tiling, the sampler's
completion tables, enumeration order, CLI listings, isomorphism witnesses and
chromatic coefficients.

The tiling digests were recorded from the recursive frontier search, the
graph digests before isomorphism and the chromatic peel moved onto
incidence lists, and the CLI listing digests while `enumerate` still built
and serialised a `Tiling` per line; any engine change must reproduce them
byte for byte.
"""

import hashlib

import pytest

from closed_pipe import ClosedPipe
from ribbonry import (
    build_aztec,
    build_graph,
    build_rectangle,
    build_stair,
    chromatic_polynomial,
    enumerate_tilings,
    graphs_isomorphic,
    sample_tiling,
)
from ribbonry.cli import main
from ribbonry.enumeration import _Searcher
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
# `repr(sorted(table.items()))`, recorded from the two-pass table build (a
# forward sweep that kept its layers, then a back pass over them).
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


@pytest.mark.parametrize("region,n,seed,digest", SAMPLE_GOLDENS)
def test_sample_golden(region, n, seed, digest):
    assert sha256(sample_tiling(region, n, seed).to_json()) == digest


@pytest.mark.parametrize("region,n,size,digest", COMPLETION_TABLE_GOLDENS)
def test_completion_table_golden(region, n, size, digest):
    # The size is what the sampler's cache charges against its budget.
    table = _Searcher(region, [n]).completions()
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
