"""Shared generators for the test suite.

Random instances are built from seeded numpy generators so every test run
sees the same data. Covers built here are covering by construction: each
sample point is assigned an owner ball whose radius is padded past the
owner's farthest assigned point. The space writer, the face test and the
one-set sigma scan below are helpers that only the tests call.
"""

import numpy as np
import pytest

from dimlab import Ball, Cover, SampledSpace, ball_cozero
from dimlab.dimension import DisjointPairFamily
from dimlab.embedding import _least_sigmas
from dimlab.nerve import SimplicialComplex


def line_space(k: int, mesh: float | None = None) -> SampledSpace:
    """k evenly spaced points on [0, 1]."""
    pts = np.linspace(0.0, 1.0, k)[:, None]
    return SampledSpace.from_points(pts, mesh=mesh if mesh is not None else 1.0 / max(k - 1, 1))


def space_json_dict(space: SampledSpace) -> dict:
    """The space document that ``SampledSpace.from_json_dict`` reads back to ``space``."""
    if space.coords is not None:
        return {"points": space.coords.tolist(), "distance_matrix": None, "mesh": space.mesh}
    return {"points": None, "distance_matrix": space.dist.tolist(), "mesh": space.mesh}


def square_space(rng: np.random.Generator, count: int = 20) -> SampledSpace:
    pts = rng.uniform(0.0, 1.0, size=(count, 2))
    return SampledSpace.from_points(pts, mesh=0.5)


def grid_square_space(nx: int = 4, ny: int = 3) -> SampledSpace:
    gx, gy = np.meshgrid(np.linspace(0.0, 1.0, nx), np.linspace(0.0, 1.0, ny))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return SampledSpace.from_points(pts, mesh=1.0 / (min(nx, ny) - 1))


def random_ball_cover(space: SampledSpace, k: int, rng: np.random.Generator) -> Cover:
    """A covering family of k ball cozero members.

    Every point gets an owner in range(k); ball i is centered at one of its
    owned points with radius max distance to the rest plus padding, so the
    union covers. Owners cycle through range(k) first so no ball is empty.
    """
    p = space.size
    if p < k:
        raise ValueError("need at least k points")
    owners = np.concatenate([np.arange(k), rng.integers(0, k, size=p - k)])
    rng.shuffle(owners)
    # reshuffle until every owner index survives (cheap at these sizes)
    while len(set(owners.tolist())) < k:
        owners = np.concatenate([np.arange(k), rng.integers(0, k, size=p - k)])
        rng.shuffle(owners)
    members = []
    for i in range(k):
        owned = np.nonzero(owners == i)[0]
        center = int(rng.choice(owned))
        reach = float(space.dist[center, owned].max())
        radius = reach + float(rng.uniform(0.05, 0.3)) * (space.diameter + 1.0)
        members.append(ball_cozero(space, Ball(center=center, radius=radius)))
    return Cover(tuple(members))


def random_value_cover(space: SampledSpace, k: int, rng: np.random.Generator) -> Cover:
    """A covering family with arbitrary nonnegative values, not just balls."""
    g = rng.uniform(0.0, 1.0, size=(k, space.size))
    g[g < 0.35] = 0.0
    # force covering: give every uncovered point to a random member
    hole = ~(g > 0.0).any(axis=0)
    for x in np.nonzero(hole)[0]:
        g[rng.integers(0, k), x] = rng.uniform(0.5, 1.0)
    return Cover(g)


def pair_family(pairs, p: int) -> DisjointPairFamily:
    """The family of (A_i, B_i) point-id sets as masks over a p-point sample."""
    a = np.zeros((len(pairs), p), dtype=bool)
    b = np.zeros((len(pairs), p), dtype=bool)
    for i, (ai, bi) in enumerate(pairs):
        a[i, list(ai)] = True
        b[i, list(bi)] = True
    return DisjointPairFamily(a, b)


def brute_force_order(c: Cover) -> int:
    """Order recomputed from scratch: max point multiplicity minus one."""
    sup = c.supports()
    return int(sup.sum(axis=0).max()) - 1


def refines(v: Cover, u: Cover) -> bool:
    """Whether every member of v has its support inside some member of u."""
    vs, us = v.supports(), u.supports()
    return all(any(not (vs[j] & ~us[i]).any() for i in range(u.size)) for j in range(v.size))


def active_members(c: Cover, x: int) -> list[int]:
    """Indices of the members positive at sample point x, in increasing order."""
    return [i for i in range(c.size) if c.matrix[i, x] > 0.0]


def has_face(k: SimplicialComplex, indices) -> bool:
    """Whether the nonempty vertex set ``indices`` is a face of the complex k."""
    face = frozenset(indices)
    return bool(face) and any(face <= f for f in k.facets)


def least_sigma(points: np.ndarray, tol: float) -> tuple[float, tuple[int, ...] | None]:
    """The verifier's sigma scan (``_least_sigmas``) of one set of points: the least sigma
    over its maximal subsets and the first subset at or under ``tol``, or None."""
    return _least_sigmas([points], tol)[0]


def segment_distance(p1, p2, q1, q2) -> float:
    """Closed-form distance between segments [p1,p2] and [q1,q2].

    Textbook clamped-parameter computation, independent of the least-squares
    route used by the package.
    """
    p1, p2, q1, q2 = (np.asarray(v, dtype=float) for v in (p1, p2, q1, q2))
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    if a == 0.0 and e == 0.0:
        return float(np.linalg.norm(p1 - q1))
    if a == 0.0:
        t = np.clip(f / e, 0.0, 1.0)
        return float(np.linalg.norm(p1 - (q1 + t * d2)))
    c = float(d1 @ r)
    if e == 0.0:
        s = np.clip(-c / a, 0.0, 1.0)
        return float(np.linalg.norm(p1 + s * d1 - q1))
    b = float(d1 @ d2)
    denom = a * e - b * b
    s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 0.0 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = np.clip(-c / a, 0.0, 1.0)
    elif t > 1.0:
        t = 1.0
        s = np.clip((b - c) / a, 0.0, 1.0)
    return float(np.linalg.norm(p1 + s * d1 - (q1 + t * d2)))


def point_segment_distance(p, q1, q2) -> float:
    return segment_distance(p, p, q1, q2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)
