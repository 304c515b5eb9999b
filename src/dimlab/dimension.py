"""Order reduction for covers via inessentiality witnesses.

The central fact used here: if every family of n+1 disjoint closed pairs
(A_i, B_i) admits disjoint open (U_i, V_i) with A_i in U_i, B_i in V_i and
the union of all U_i, V_i covering, then any covering family of n+2 cozero
sets can be shrunk to one with empty total intersection, and any covering
family at all can be shrunk to one of order at most n by sweeping all
(n+2)-element index subsets.

Witness suppliers ("oracles") are callables (space, pairs) -> witness. Two
are provided: :func:`separator_oracle`, which splits each pair by nearest
distance and works on every finite sample, and
:func:`inessential_witness_from_map`, which reads a witness off a supplied
map into the boundary of the (n+1)-cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable

import numpy as np

from .covers import Cover, _cover_matrix, _require_covering, closed_shrinking
from .errors import CertificateError, InputError
from .metric import SampledSpace

BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class DisjointPairFamily:
    """Indexed disjoint pairs (A_i, B_i) of closed point sets."""

    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __post_init__(self) -> None:
        pairs = tuple((frozenset(a), frozenset(b)) for a, b in self.pairs)
        for i, (a, b) in enumerate(pairs):
            if a & b:
                raise InputError(f"pair {i} is not disjoint: {sorted(a & b)} shared")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)


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

    def validate(self, pairs: DisjointPairFamily, sample_size: int) -> None:
        self._validate_masks(*_pair_masks(pairs, sample_size))

    def _validate_masks(self, a: np.ndarray, b: np.ndarray) -> None:
        """:meth:`validate` against the (pairs, p) masks of the A_i and of the B_i."""
        if self.u.shape != a.shape or self.v.shape != a.shape:
            raise InputError(
                f"witness values have shapes {self.u.shape} and {self.v.shape}, not {a.shape}"
            )
        u_sup, v_sup = self.u > 0.0, self.v > 0.0
        _raise_first(
            "witness pair {i} {what} point {x}",
            ("overlaps at", u_sup & v_sup), ("misses A", a & ~u_sup), ("misses B", b & ~v_sup),
        )
        union = (u_sup | v_sup).any(axis=0)
        if not union.all():
            x = int(np.nonzero(~union)[0][0])
            raise InputError(f"witness does not cover the sample: point {x}")


def _pair_masks(pairs: DisjointPairFamily, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (pairs, p) matrices of the A_i and of the B_i.

    Raises for the least pair naming a point id outside 0..p-1, with its
    least such id; indexing alone would wrap a negative id around.
    """
    a = np.zeros((len(pairs), p), dtype=bool)
    b = np.zeros((len(pairs), p), dtype=bool)
    for i, (ai, bi) in enumerate(pairs.pairs):
        try:
            ids = np.fromiter(chain(ai, bi), np.intp, len(ai) + len(bi))
            # read as unsigned, a negative id is at least p too
            stray = ids.size and ids.view(np.uintp).max() >= p
        except OverflowError:
            stray = True
        if stray:
            point = min(x for x in chain(ai, bi) if not 0 <= x < p)
            raise InputError(f"pair {i} names point {point} outside 0..{p - 1}")
        a[i, ids[: len(ai)]] = True
        b[i, ids[len(ai) :]] = True
    return a, b


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
    masks = _pair_masks(pairs, p)
    u = np.zeros((len(pairs), p))
    v = np.zeros((len(pairs), p))
    for i, (a, b) in enumerate(pairs.pairs):
        da = space.dist[:, sorted(a)].min(axis=1) if a else np.full(p, np.inf)
        db = space.dist[:, sorted(b)].min(axis=1) if b else np.full(p, np.inf)
        less = da < db
        greater = da > db
        u[i, less] = np.minimum(1.0, db[less] - da[less])
        u[i, ~less & ~greater] = BOUNDARY_TOL
        v[i, greater] = np.minimum(1.0, da[greater] - db[greater])
    witness = InessentialWitness(u, v)
    witness._validate_masks(*masks)
    return witness


def inessential_witness_from_map(g: np.ndarray, pairs: DisjointPairFamily) -> InessentialWitness:
    """Witness read off a map g into the boundary of the (n+1)-cube.

    ``g`` is one row per sample point and one column per pair. Required,
    up to ``BOUNDARY_TOL``: every row touches {0, 1} in some coordinate, column i
    vanishes on A_i and equals 1 on B_i. The witness pairs are the ramps

        U_i = max(0, 1/2 - g_i),   V_i = max(0, g_i - 1/2).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise InputError("boundary map must be a 2-d array")
    p, width = g.shape
    if width != len(pairs):
        raise InputError(f"boundary map has {width} coordinates, family has {len(pairs)}")
    outside = (g < -BOUNDARY_TOL) | (g > 1.0 + BOUNDARY_TOL)
    if outside.any():
        x, i = np.argwhere(outside)[0]
        raise InputError(f"map value outside the cube at point {x}, coordinate {i}")
    on_boundary = (np.abs(g) <= BOUNDARY_TOL) | (np.abs(1.0 - g) <= BOUNDARY_TOL)
    if not on_boundary.any(axis=1).all():
        x = int(np.nonzero(~on_boundary.any(axis=1))[0][0])
        raise InputError(f"point {x} does not land on the cube boundary")
    a, b = _pair_masks(pairs, p)
    _raise_first(
        "map is not {what} at point {x}, coordinate {i}",
        ("0 on A", a & (np.abs(g.T) > BOUNDARY_TOL)),
        ("1 on B", b & (np.abs(1.0 - g.T) > BOUNDARY_TOL)),
    )
    clipped = np.clip(g.T, 0.0, 1.0)
    witness = InessentialWitness(np.maximum(0.0, 0.5 - clipped), np.maximum(0.0, clipped - 0.5))
    witness._validate_masks(a, b)
    return witness


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
    U_i) for i < n+1; the oracle separates them with opens (U'_i, V'_i).
    The output members are

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
    closed = shrink.closed_shrink
    outside = ~cover.supports()
    pairs = DisjointPairFamily(
        tuple((closed[i], frozenset(np.flatnonzero(outside[i]).tolist())) for i in range(k - 1))
    )
    witness = oracle(space, pairs)
    witness.validate(pairs, cover.sample_size)

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


def reduce_order(
    space: SampledSpace,
    cover: Cover,
    n: int,
    oracle: Oracle,
) -> Cover:
    """Shrink a covering family to order at most n.

    Sweeps the (n+2)-element index subsets D_e in lexicographic order. For
    each, the members indexed by D_e are shrunk to empty intersection (the
    remaining members are lumped into the last D_e member so that the
    auxiliary family covers, then the shrunk members are intersected back),
    and the whole cover is replaced by its open shrinking. Subsets whose
    members already fail to intersect are skipped; every step only shrinks
    members, so earlier empty intersections persist and the final cover has
    order at most n.
    """
    if not (isinstance(n, int) and n >= 0):
        raise InputError("target order must be an integer >= 0")
    _require_covering(cover)
    s = cover.size
    if s < n + 2:
        return cover
    g = cover.matrix.copy()
    for subset in combinations(range(s), n + 2):
        live = (g[list(subset)] > 0.0).all(axis=0)
        if not live.any():
            continue
        rest = [j for j in range(s) if j not in subset]
        aux = g[list(subset)]
        if rest:
            aux[-1] = np.maximum(aux[-1], np.max(g[rest], axis=0))
        shrunk = shrink_to_empty_intersection(space, Cover(aux), oracle)
        for m, d in enumerate(subset[:-1]):
            g[d] = shrunk.matrix[m]
        g[subset[-1]] = np.minimum(shrunk.matrix[-1], g[subset[-1]])
        # interleave: keep the open shrinking of the whole updated family
        g = closed_shrinking(Cover(g)).open_shrink.matrix.copy()
    out = Cover(g)
    bad = out.uncovered_point()
    if bad is not None:
        raise CertificateError(f"order reduction lost covering at point {bad}")
    counts = out.supports().sum(axis=0)
    if counts.max() > n + 1:
        x = int(counts.argmax())
        raise CertificateError(f"order reduction left point {x} in {int(counts[x])} members")
    return out
