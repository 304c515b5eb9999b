"""Order reduction for covers via inessentiality witnesses.

The central fact used here: if every family of n+1 disjoint closed pairs
(A_i, B_i) admits disjoint open (U_i, V_i) with A_i in U_i, B_i in V_i and
the union of all U_i, V_i covering, then any covering family of n+2 cozero
sets can be shrunk to one with empty total intersection, and any covering
family at all can be shrunk to one of order at most n by shrinking, one at
a time, the least (n+2)-element index subset whose members share a point.
Pairs travel as boolean (pairs, p) masks and a witness is validated once,
by its consumer :func:`shrink_to_empty_intersection`.

Witness suppliers ("oracles") are callables (space, pairs) -> witness. Two
are provided: :func:`separator_oracle`, which splits each pair by nearest
distance and works on every finite sample, and
:func:`inessential_witness_from_map`, which reads a witness off a supplied
map into the boundary of the (n+1)-cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .covers import Cover, _cover_matrix, _first_rows, _require_covering, closed_shrinking
from .errors import CertificateError, InputError
from .metric import SampledSpace

BOUNDARY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DisjointPairFamily:
    """Indexed disjoint pairs (A_i, B_i) of closed point sets.

    ``a`` and ``b`` are read-only boolean (pairs, p) masks: row i of ``a``
    marks A_i and row i of ``b`` marks B_i. Construction checks that both
    have one 2-d shape and that A_i and B_i are disjoint for each i.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a, b = np.asarray(self.a), np.asarray(self.b)
        if a.dtype != bool or b.dtype != bool or a.ndim != 2 or a.shape != b.shape:
            raise InputError("pair masks must be two boolean arrays of one 2-d shape")
        _raise_first("pair {i} {what} point {x}", ("is not disjoint at", a & b))
        for name, mask in (("a", a), ("b", b)):
            mask = mask.copy()
            mask.setflags(write=False)
            object.__setattr__(self, name, mask)

    def __len__(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class InessentialWitness:
    """Disjoint open pairs (U_i, V_i) separating a DisjointPairFamily.

    ``u`` and ``v`` are read-only (pairs, p) cozero matrices, checked at
    construction as a cover's values are: row i of ``u`` codes U_i and row
    i of ``v`` codes V_i. Invariants (checked by :meth:`validate`): U_i and
    V_i are disjoint for each i, A_i lies in U_i, B_i in V_i, and the union
    of all the U_i and V_i is the whole sample.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", _cover_matrix(self.u))
        object.__setattr__(self, "v", _cover_matrix(self.v))

    def validate(self, pairs: DisjointPairFamily) -> None:
        if self.u.shape != pairs.a.shape or self.v.shape != pairs.a.shape:
            raise InputError(
                f"witness values have shapes {self.u.shape} and {self.v.shape}, "
                f"not {pairs.a.shape}"
            )
        u_sup, v_sup = self.u > 0.0, self.v > 0.0
        _raise_first(
            "witness pair {i} {what} point {x}",
            ("overlaps at", u_sup & v_sup),
            ("misses A", pairs.a & ~u_sup),
            ("misses B", pairs.b & ~v_sup),
        )
        union = (u_sup | v_sup).any(axis=0)
        if not union.all():
            x = int(np.nonzero(~union)[0][0])
            raise InputError(f"witness does not cover the sample: point {x}")


def _require_width(pairs: DisjointPairFamily, p: int) -> None:
    if pairs.a.shape[1] != p:
        raise InputError(f"pair masks have width {pairs.a.shape[1]}, sample has {p} points")


def _raise_first(message: str, *checks: tuple[str, np.ndarray]) -> None:
    """Raise for the least pair i failing a check, naming its first failed check.

    Each check is (what, bad) with ``bad`` a boolean (pairs, p) matrix of
    offending points; the message names the least offending point x.
    """
    bad = np.stack([mask for _, mask in checks])
    hit = bad.any(axis=2)
    if hit.any():
        i = int(hit.any(axis=0).argmax())
        c = int(hit[:, i].argmax())
        x = int(bad[c, i].argmax())
        raise InputError(message.format(i=i, what=checks[c][0], x=x))


Oracle = Callable[[SampledSpace, DisjointPairFamily], InessentialWitness]


def separator_oracle(space: SampledSpace, pairs: DisjointPairFamily) -> InessentialWitness:
    """Nearest-set separator: U_i = {d(x, A_i) < d(x, B_i)}, V_i the reverse.

    Ties go to U_i with value ``BOUNDARY_TOL``; the distance to an empty set is
    +infinity, so an empty A_i yields U_i empty and V_i the whole sample.
    Every finite metric sample admits this witness for any number of pairs.
    """
    p = space.size
    _require_width(pairs, p)
    u = np.zeros((len(pairs), p))
    v = np.zeros((len(pairs), p))
    for i, (a, b) in enumerate(zip(pairs.a, pairs.b)):
        da = space.dist[:, a].min(axis=1, initial=np.inf)
        db = space.dist[:, b].min(axis=1, initial=np.inf)
        less = da < db
        greater = da > db
        u[i, less] = np.minimum(1.0, db[less] - da[less])
        u[i, ~less & ~greater] = BOUNDARY_TOL
        v[i, greater] = np.minimum(1.0, da[greater] - db[greater])
    return InessentialWitness(u, v)


def inessential_witness_from_map(g: np.ndarray, pairs: DisjointPairFamily) -> InessentialWitness:
    """Witness read off a map g into the boundary of the (n+1)-cube.

    ``g`` is one row per sample point and one column per pair. Required,
    up to ``BOUNDARY_TOL``: every row touches {0, 1} in some coordinate, column i
    vanishes on A_i and equals 1 on B_i. The witness pairs are the ramps

        U_i = max(0, 1/2 - g_i),   V_i = max(0, g_i - 1/2),

    valid once g is: U_i > 0 exactly where g_i < 1/2 (so on A_i) and V_i > 0
    exactly where g_i > 1/2 (so on B_i), and every point lies in the U_i or
    V_i of a coordinate where it touches {0, 1}.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise InputError("boundary map must be a 2-d array")
    p, width = g.shape
    if width != len(pairs):
        raise InputError(f"boundary map has {width} coordinates, family has {len(pairs)}")
    _require_width(pairs, p)
    outside = (g < -BOUNDARY_TOL) | (g > 1.0 + BOUNDARY_TOL)
    if outside.any():
        x, i = np.argwhere(outside)[0]
        raise InputError(f"map value outside the cube at point {x}, coordinate {i}")
    on_boundary = (np.abs(g) <= BOUNDARY_TOL) | (np.abs(1.0 - g) <= BOUNDARY_TOL)
    if not on_boundary.any(axis=1).all():
        x = int(np.nonzero(~on_boundary.any(axis=1))[0][0])
        raise InputError(f"point {x} does not land on the cube boundary")
    _raise_first(
        "map is not {what} at point {x}, coordinate {i}",
        ("0 on A", pairs.a & (np.abs(g.T) > BOUNDARY_TOL)),
        ("1 on B", pairs.b & (np.abs(1.0 - g.T) > BOUNDARY_TOL)),
    )
    clipped = np.clip(g.T, 0.0, 1.0)
    return InessentialWitness(np.maximum(0.0, 0.5 - clipped), np.maximum(0.0, clipped - 0.5))


def map_oracle(g: np.ndarray) -> Oracle:
    """Wrap a fixed boundary map as an oracle; it validates per call."""

    def oracle(space: SampledSpace, pairs: DisjointPairFamily) -> InessentialWitness:
        return inessential_witness_from_map(g, pairs)

    return oracle


def shrink_to_empty_intersection(
    space: SampledSpace, cover: Cover, oracle: Oracle
) -> Cover:
    """Shrink an (n+2)-member covering family to empty total intersection.

    The closed shrinking supplies disjoint closed pairs (F_i, complement of
    U_i) for i < n+1; the oracle separates them with opens (U'_i, V'_i),
    and this is the one place a witness is validated. The output members are

        W_i = U'_i * U_i (i < n+1),
        W_last = U_last * (V_0 + ... + V_n),

    where V_i = V'_i * (complement of F_i). The result covers, refines the
    input member by member, and has empty total intersection.
    """
    k = cover.size
    if k < 2:
        raise InputError("need at least two members to shrink an intersection away")
    g = cover.matrix
    shrink = closed_shrinking(cover)
    comp_f = np.maximum(0.0, 0.5 - shrink.tilde)
    pairs = DisjointPairFamily(shrink.tilde[:-1] >= 0.5, ~cover.supports()[:-1])
    witness = oracle(space, pairs)
    witness.validate(pairs)

    last = np.minimum(g[k - 1], np.max(np.minimum(witness.v, comp_f[:-1]), axis=0))
    out = Cover(np.vstack([np.minimum(witness.u, g[:-1]), last]))

    bad = out.uncovered_point()
    if bad is not None:
        raise CertificateError(f"shrinking lost covering at point {bad}")
    common = out.supports().all(axis=0)
    if common.any():
        x = int(np.nonzero(common)[0][0])
        raise CertificateError(f"total intersection still contains point {x}")
    return out


def _require_order_bound(n) -> None:
    if type(n) is not int or n < 0:
        raise InputError(f"n must be an integer >= 0, got {n!r}")


def reduce_order(
    space: SampledSpace,
    cover: Cover,
    n: int,
    oracle: Oracle,
) -> Cover:
    """Shrink a covering family to order at most n.

    While some point lies in more than n+1 members, take the
    lexicographically least (n+2)-element index subset D of members that
    share a point: the first n+2 members of each crowded point, least over
    the points. The members indexed by D are shrunk to empty intersection
    (the remaining members are lumped into the last D member so that the
    auxiliary family covers, then the shrunk members are intersected back),
    and the whole cover is replaced by its open shrinking. Every step only
    shrinks members, so a subset without a common point never gains one
    and D never returns: the passes shrink exactly the subsets a
    lexicographic sweep of all (n+2)-subsets would, in the same order.
    """
    _require_order_bound(n)
    _require_covering(cover)
    g = cover.matrix.copy()
    while True:
        sup = g > 0.0
        crowded = sup[:, sup.sum(axis=0) > n + 1]
        if not crowded.size:
            break
        first = crowded & (np.cumsum(crowded, axis=0) <= n + 2)
        subsets = np.nonzero(first.T)[1].reshape(-1, n + 2)
        subset = subsets[_first_rows(subsets)[0]]
        aux, rest = g[subset], np.delete(g, subset, axis=0)
        if len(rest):
            aux[-1] = np.maximum(aux[-1], rest.max(axis=0))
        shrunk = shrink_to_empty_intersection(space, Cover(aux), oracle).matrix
        g[subset[:-1]] = shrunk[:-1]
        g[subset[-1]] = np.minimum(shrunk[-1], g[subset[-1]])
        # interleave: keep the open shrinking of the whole updated family
        g = closed_shrinking(Cover(g)).open_shrink.matrix.copy()
    out = Cover(g)
    bad = out.uncovered_point()
    if bad is not None:
        raise CertificateError(f"order reduction lost covering at point {bad}")
    return out
