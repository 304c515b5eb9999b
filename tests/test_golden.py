"""Pinned result and report bytes: sha256 of the canonical JSON of fixed runs.

Criterion 9 compares two runs of the same code; the result hashes were
taken from the per-cell and per-pair implementations of the lattice cover
and the span distances, and the report hashes from the verifier before the
builder and verifier shared their stage-cover and subset-sigma code, so any
drift in output between versions shows here.
"""

import hashlib
import json

import pytest

from dimlab import nobeling_embed, result_to_json_bytes, verify_result
from conftest import grid_square_space, line_space

GOLDEN = [
    (
        "line8", 1, 4, 0,
        "1236c3baa7829efb4b4d12f3d5ee6dd8c9c456100c5c21841623ee632bcad8c2",
        "06c977e73002ec8cee3cea78df747c72d5e1d02b8a4c0164d9605f79b633227a",
    ),
    (
        "line8", 1, 16, 0,
        "a4f034caeddeac4a6c77287aa94257fec3924ee06efce25090a91dd1db3a784d",
        "a953320e938b4988131080ce044ea49c2c94c5b4002615194a25a4f5d3077068",
    ),
    (
        "line8", 1, 16, 3,
        "44c4c63f6205d61cb82682f64ad4b5780be6a106f0f47ab0b910bdb0f98bcf41",
        "33852c3376061123667bfa9b34a90322e1af38aef162582b6f48779241eb0a74",
    ),
    (
        "grid4x3", 2, 2, 0,
        "a3ecc45c4dd4569a9a295ff2ea882f286dbf310bc42d96b9783e6ad3c0bd1c89",
        "6a2d08c4080127cf132d608894f9e378e5ccf7988728456802ff321c5ba1dc43",
    ),
]

SPACES = {"line8": lambda: line_space(8), "grid4x3": lambda: grid_square_space(4, 3)}


@pytest.mark.parametrize(
    "name,n,T,seed,digest,report_digest",
    GOLDEN,
    ids=[f"{c[0]}-n{c[1]}-T{c[2]}-seed{c[3]}" for c in GOLDEN],
)
def test_result_bytes_pinned(name, n, T, seed, digest, report_digest):
    space = SPACES[name]()
    r = nobeling_embed(space, n=n, T=T, seed=seed)
    assert hashlib.sha256(result_to_json_bytes(r)).hexdigest() == digest
    report = verify_result(r, space, n)
    assert report.overall
    data = json.dumps(report.to_json_dict(), separators=(",", ":"), allow_nan=False)
    assert hashlib.sha256(data.encode("utf-8")).hexdigest() == report_digest
