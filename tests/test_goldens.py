"""Outputs pinned as sha256 digests: seed -> sampled tiling, and enumeration order.

The digests were recorded from the recursive frontier search; any engine
change must reproduce them byte for byte.
"""

import hashlib

import pytest

from ribbonry import build_aztec, build_rectangle, build_stair, enumerate_tilings, sample_tiling


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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

ENUMERATION_GOLDENS = [
    (build_rectangle(3, 6), 3, 61, "7ecfbe8911ada3d9b9dbb790abd808b0278cd920c8d6057a6dce6ca45ab7dca2"),
    (build_rectangle(4, 8), 4, 1379, "d5c38e44ece5426f9ec553feb820c4b0a832b65363e3c0c5e6d257bc12ffd66c"),
]


@pytest.mark.parametrize("region,n,seed,digest", SAMPLE_GOLDENS)
def test_sample_golden(region, n, seed, digest):
    assert sha256(sample_tiling(region, n, seed).to_json()) == digest


@pytest.mark.parametrize("region,n,lines,digest", ENUMERATION_GOLDENS)
def test_enumeration_stream_golden(region, n, lines, digest):
    stream = [tiling.to_json() + "\n" for tiling in enumerate_tilings(region, n)]
    assert len(stream) == lines
    assert sha256("".join(stream)) == digest
