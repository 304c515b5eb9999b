"""Pinned result, report, nerve and pair bytes: sha256 of fixed runs.

Criterion 9 compares two runs of the same code; the result hashes were
taken from the per-cell and per-pair implementations of the lattice cover
and the span distances, the report hashes from the verifier before the
builder and verifier shared their stage-cover and subset-sigma code, the
nerve hashes from the complex that stored every face and the pair hashes
from the ball-by-ball strict-inclusion loop, so any drift in output
between versions shows here.
"""

import hashlib
import json

import numpy as np
import pytest

from dimlab import (
    Ball,
    Cover,
    ball_cozero,
    complement_cozero,
    export_complex,
    meet,
    nerve_of,
    nobeling_embed,
    order_of,
    pair_schedule,
    reduce_order,
    result_to_json_bytes,
    separator_oracle,
    star_refinement,
    verify_result,
)
from conftest import (
    grid_square_space,
    line_space,
    random_ball_cover,
    random_value_cover,
    square_space,
)

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


def star_refined(seed):
    """Star refinement of the criterion-2 instance with this seed."""
    rng = np.random.default_rng(seed)
    space = square_space(rng, count=20)
    cover = random_value_cover(space, int(rng.integers(1, 6)), rng)
    return star_refinement(cover)[0]


def reduced(seed, meet_pair=False):
    """Order reduction of the criterion-3 instance with this seed, or its meet
    with the cover by the ball of radius 0.6 around point 0 and the complement
    of the closed ball of radius 0.3."""
    rng = np.random.default_rng(seed)
    space = square_space(rng, count=20)
    s = int(rng.integers(1, 7))
    n = int(rng.integers(0, 2))
    out = reduce_order(space, random_ball_cover(space, s, rng), n, separator_oracle)
    if not meet_pair:
        return out
    pair = Cover((ball_cozero(space, Ball(center=0, radius=0.6)),
                  complement_cozero(space, Ball(center=0, radius=0.3))))
    return meet(pair, out)


NERVES = [
    ("star-2015", lambda: star_refined(2015), 15,
     "eef5215288de4d1aa3cd1a087b0eeb9f1b97506e126938ec3a656f909a9a4aaa"),
    ("reduce-3005", lambda: reduced(3005), 1,
     "7219c273f09c9e1c718b14e9bf9898f5d4cadbf6cbfb2f4eb06b0f988edd4b30"),
    ("meet-3011", lambda: reduced(3011, meet_pair=True), 3,
     "9defdad552f9e0132fb7eeb854bc0e41e58909ddd5af3b1ed816c4b11c689b34"),
]


@pytest.mark.parametrize("make,order,digest", [c[1:] for c in NERVES], ids=[c[0] for c in NERVES])
def test_nerve_export_bytes_pinned(make, order, digest):
    cover = make()
    assert order_of(cover) == order
    assert hashlib.sha256(export_complex(nerve_of(cover))).hexdigest() == digest


def test_pair_schedule_pinned():
    """The 64-pair schedule of a seeded 256-point square sample, and every
    strict-inclusion pair of its 512 balls."""
    space = square_space(np.random.default_rng(256), count=256)
    schedule = pair_schedule(space, 64)
    assert schedule[2] == 1 and len(schedule[0]) == 512
    assert hashlib.sha256(repr(schedule).encode()).hexdigest() == (
        "39bab3c77f67127520affd0b42ec5de9d83d0298b1dea0094731cc676450097d"
    )
    pairs = pair_schedule(space, 45362)[1]
    assert len(pairs) == 45362 and pair_schedule(space, 45363)[2] == 2
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
        "39afcee10bf6629bab14f743c4b84daabfeee62e1522c03be39f6c3453df3a0c"
    )
