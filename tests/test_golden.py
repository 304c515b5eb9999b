"""Pinned result, report, nerve and pair bytes: sha256 of fixed runs.

The 8-point line at n=1, T=16 is pinned for all eight seeds that the
embed-line benchmark workload runs. Criterion 9 compares two runs of the
same code; the result hashes were
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
        "line8", 1, 16, 1,
        "38cfc5db3eb89186c74faf8ba0655ef0a6ecd501c3a1f604c907a8a3b90a8ca5",
        "06189819315fc5608ca8ead1bb5f2821bd7dccb88bbb6b1afaa0c89df94dd519",
    ),
    (
        "line8", 1, 16, 2,
        "c24e60a84718b0c06c31721d1b383322fb32492e89847b84932d840234629964",
        "7d5b3edbcf30767df54626c78d69c82c79147fc7a1d7e6c5178e0c27227d5151",
    ),
    (
        "line8", 1, 16, 3,
        "44c4c63f6205d61cb82682f64ad4b5780be6a106f0f47ab0b910bdb0f98bcf41",
        "33852c3376061123667bfa9b34a90322e1af38aef162582b6f48779241eb0a74",
    ),
    (
        "line8", 1, 16, 4,
        "0c2d1b82207c1636f6afefa1f0d7050fe6f353f128287009677ff3336714f3ea",
        "04e09bb6610c0675c1553b56c78275c5fe8634af1ec4a4a13682d3a0de09ebcb",
    ),
    (
        "line8", 1, 16, 5,
        "c9af6f09c7e7942bd8eda4ee7d84e5d2bb5492f998feb6794d3012de1cd851bc",
        "f3a8659cdb9864ccbd117f200f0effba8277f5ee043ccba19c6666d89c63a446",
    ),
    (
        "line8", 1, 16, 6,
        "3404658a66b197a838e1468b1203313715f6772b057ce40ae45e476435417ceb",
        "09937af3f744541b1de1b04a07283788d2fde43197143b88e78c691fead3269e",
    ),
    (
        "line8", 1, 16, 7,
        "5a5792c840d42006ec70fa17ba8db3ce083da1540d2951c8b6e25639aaef1889",
        "6719cb2992714e66334e93e38843b83afb118e5f95bf6d723ba58a220e5b5d8d",
    ),
    (
        "line6", 3, 3, 0,
        "6f4647b2973cfabba5f1497ca81c8e1f88e57db2cdca449ef353f9152c020302",
        "c097ee6c18a7c1bd77fb5346e600ed4c424231e249052d29f31d665cbf047735",
    ),
    (
        "grid4x3", 2, 2, 0,
        "a3ecc45c4dd4569a9a295ff2ea882f286dbf310bc42d96b9783e6ad3c0bd1c89",
        "6a2d08c4080127cf132d608894f9e378e5ccf7988728456802ff321c5ba1dc43",
    ),
]

SPACES = {
    "line8": lambda: line_space(8),
    "line6": lambda: line_space(6),
    "grid4x3": lambda: grid_square_space(4, 3),
}


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
