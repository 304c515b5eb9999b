"""Indexed open covers of a finite sample and their combinatorial calculus.

A cover is an indexed family of cozero functions (g_i)_{i<k} whose
positivity loci jointly cover the sample, stored as one (k, p) value
matrix whose row i is g_i on the p sample points. The operations here are
the standard desk-scale cover tools:

order
    order(U) = max over sample points x of |{i : g_i(x) > 0}| - 1.

closed shrinking
    Rescale each member against its neighbours,

        gt_i(x) = g_i(x) / (g_i(x) + max({gp_s(x) : s < i} | {g_t(x) : i < t < k})),
        gp_i(x) = max(0, gt_i(x) - 1/2),

    with the empty max read as 0. Writing W_i = {gt_i > 1/2} (the open
    shrinking, the cozero set of gp_i) and F_i = {gt_i >= 1/2} (the closed
    shrinking), one gets W_i inside F_i inside U_i pointwise, and both
    (W_i) and (F_i) cover whenever the input does. Comparisons against 1/2
    are exact on the computed float values; a tie goes to F_i.

star refinement
    From the shrinking, form the two-member covers

        V_i = { complement of F_i, U_i },

    where the complement of F_i is realized exactly as the cozero set of
    max(0, 1/2 - gt_i). The meet of the open shrinking (W_l) with all the
    V_i is a cover whose member W_l * ... has star contained in U_l. It is
    taken as k meet steps, (W_l) met with V_0, then V_1, ..., so its members
    come in order of (l, choice vector), the complement of F_i before U_i.

meet
    Pairwise pointwise minima of two covers, empty members dropped, in
    a-major order; the one pairwise-minimum step of ``meet`` and of the
    star refinement.

All operations are pure: inputs are immutable and outputs are fresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import CertificateError, InputError
from .metric import _as_readonly, _float, _float_array, _only_keys


@dataclass(frozen=True, eq=False)
class Cover:
    """An indexed family of cozero vectors over one sample.

    The family is stored as one read-only (k, p) matrix whose row i holds
    the values of member i; ``Cover(rows)`` takes that matrix or a sequence
    of k value vectors and checks it with :func:`_cover_matrix`. The
    covering property (every point has a positive member) is an invariant
    of covers-as-used; operations that rely on it check it and raise,
    naming an uncovered point, rather than assuming it.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _cover_matrix(self.matrix))

    @classmethod
    def from_matrix(cls, matrix) -> "Cover":
        """The same as ``Cover(matrix)``."""
        return cls(matrix)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def sample_size(self) -> int:
        return self.matrix.shape[1]

    def supports(self) -> np.ndarray:
        """Boolean (k, p) matrix of member positivity."""
        return self.matrix > 0.0

    def uncovered_point(self) -> int | None:
        covered = self.supports().any(axis=0)
        if covered.all():
            return None
        return int(np.nonzero(~covered)[0][0])

    def to_json_dict(self) -> dict:
        """Each member as the sparse object {point index: value} of its nonzero values."""
        return {
            "members": [
                {"values": {str(int(x)): float(row[x]) for x in np.flatnonzero(row)}}
                for row in self.matrix
            ]
        }

    @classmethod
    def from_json_dict(cls, obj: dict, sample_size: int) -> "Cover":
        if not isinstance(obj, dict) or not isinstance(obj.get("members"), list):
            raise InputError("cover document must be an object with a members list")
        _only_keys(obj, frozenset({"members"}), "not a cover document")
        g = np.zeros((len(obj["members"]), sample_size))
        for row, entry in zip(g, obj["members"]):
            if not isinstance(entry, dict) or "values" not in entry:
                raise InputError("each cover member must be an object with values")
            _only_keys(entry, frozenset({"values"}), "not a cover member")
            if not isinstance(entry["values"], dict):
                raise InputError("cover values must be an object of point index: value")
            for key, value in entry["values"].items():
                try:
                    i = int(key)
                except (TypeError, ValueError) as exc:
                    raise InputError(f"bad point index {key!r} in cover values") from exc
                # only the keys to_json_dict writes: int() reads "01", "1_0", " 2"
                # and "+3" as 1, 10, 2 and 3, so two keys could name one point
                if key != str(i):
                    raise InputError(f"bad point index {key!r} in cover values")
                if not 0 <= i < sample_size:
                    raise InputError(f"unknown point identifier: {i}")
                try:
                    row[i] = _float(value, "cover value")
                except ValueError as exc:
                    raise InputError(f"bad value {value!r} at point {i} in cover values") from exc
        return cls(g)


def _cover_matrix(rows) -> np.ndarray:
    """``rows`` as a read-only (k, p) float matrix of cozero values.

    The one check of a family of open sets, for covers and separation
    witnesses alike: rows of one length (ragged rows are an
    :class:`InputError`), at least one row over a nonempty sample, finite
    values in [0, 1].
    """
    g = _as_readonly(_float_array(rows, "cozero values"))
    if g.ndim != 2 or 0 in g.shape:
        raise InputError("a cover needs at least one member over a nonempty sample")
    if not np.isfinite(g).all():
        raise InputError("cozero values must be finite")
    outside = (g < 0.0) | (g > 1.0)
    if outside.any():
        i, x = np.argwhere(outside)[0]
        raise InputError(f"cozero value out of [0, 1] at member {i}, point {x}")
    return g


@dataclass(frozen=True, eq=False)
class ShrinkResult:
    """Output of :func:`closed_shrinking`.

    ``open_shrink`` carries the functions gp_i (cozero sets W_i) and
    ``tilde`` the read-only (k, p) matrix of the rescaled functions gt_i
    that define both shrinkings; ``closed_shrink`` reads the point sets
    F_i = {gt_i >= 1/2} off it.
    """

    open_shrink: Cover
    tilde: np.ndarray

    @property
    def closed_shrink(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(np.flatnonzero(row).tolist()) for row in self.tilde >= 0.5)


def _require_covering(c: Cover) -> None:
    bad = c.uncovered_point()
    if bad is not None:
        raise InputError(f"cover does not cover the sample: point {bad} uncovered")


def order_of(c: Cover) -> int:
    """Largest n such that some n+1 members share a point, i.e. max multiplicity - 1."""
    _require_covering(c)
    return int(c.supports().sum(axis=0).max()) - 1


def closed_shrinking(c: Cover) -> ShrinkResult:
    """Simultaneous open/closed shrinking of a covering family.

    See the module docstring for the formulas. Raises when the input does
    not cover, naming an uncovered point; on covering input the rescaled
    denominators are provably positive everywhere.
    """
    _require_covering(c)
    g = c.matrix
    k, p = g.shape
    # suffix_max[i] = max over t > i of g_t, with the empty max equal to 0
    suffix_max = np.zeros((k, p))
    for i in range(k - 2, -1, -1):
        suffix_max[i] = np.maximum(suffix_max[i + 1], g[i + 1])
    gt = np.zeros((k, p))
    gp = np.zeros((k, p))
    prefix_gp = np.zeros(p)
    for i in range(k):
        denom = g[i] + np.maximum(prefix_gp, suffix_max[i])
        if (denom <= 0.0).any():
            x = int(np.nonzero(denom <= 0.0)[0][0])
            raise InputError(f"cover does not cover the sample: point {x} uncovered")
        gt[i] = g[i] / denom
        gp[i] = np.maximum(0.0, gt[i] - 0.5)
        prefix_gp = np.maximum(prefix_gp, gp[i])
    return ShrinkResult(open_shrink=Cover(gp), tilde=_as_readonly(gt))


def star(s: Iterable[int] | frozenset[int], c: Cover) -> frozenset[int]:
    """Union of the members of ``c`` that meet the point set ``s``."""
    pts = sorted({int(i) for i in s})
    if pts and (min(pts) < 0 or max(pts) >= c.sample_size):
        raise InputError(f"unknown point identifier in star argument: {pts!r}")
    sup = c.supports()
    meets = sup[:, pts].any(axis=1)
    return frozenset(int(x) for x in np.nonzero(sup[meets].any(axis=0))[0])


def star_of_member(i: int, c: Cover) -> frozenset[int]:
    if not 0 <= i < c.size:
        raise InputError(f"cover has no member {i}")
    return star(np.flatnonzero(c.matrix[i] > 0.0).tolist(), c)


def meet(a: Cover, b: Cover) -> Cover:
    """Pairwise pointwise-minimum cover, nonempty members only, a-major order."""
    if a.sample_size != b.sample_size:
        raise InputError("covers live over different samples")
    rows, _ = _meet_rows(a.matrix, b.matrix)
    if not len(rows):
        raise InputError("meet produced no nonempty member; inputs do not overlap")
    return Cover(rows)


def _meet_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonempty pairwise row minima of ``a`` and ``b``, a-major, and the row of ``a`` of each."""
    low = np.minimum(a[:, None, :], b[None, :, :]).reshape(-1, a.shape[1])
    nonempty = np.flatnonzero((low > 0.0).any(axis=1))
    return low[nonempty], nonempty // len(b)


def star_refinement(c: Cover) -> tuple[Cover, tuple[int, ...]]:
    """A cover refining ``c`` whose member stars land in single members of ``c``.

    The construction is the meet described in the module docstring, taken
    in k steps: the open shrinking (W_l) met with V_0, then with V_1, and so
    on, each step keeping only nonempty members. Members are ordered by
    (l, choice vector) with the complement of F_i before U_i. The witness
    maps each output member to its l; the star of that member is contained
    in U_l.
    """
    shrink = closed_shrinking(c)
    rows = shrink.open_shrink.matrix
    witness = np.arange(c.size)
    comp = np.maximum(0.0, 0.5 - shrink.tilde)  # exact complement of F_i on the sample
    for i in range(c.size):
        rows, a_index = _meet_rows(rows, np.stack([comp[i], c.matrix[i]]))
        witness = witness[a_index]
    return Cover(rows), tuple(witness.tolist())


def is_point_star_refinement(v: Cover, u: Cover) -> bool:
    """Whether the star of every point of ``v`` lies in one member of ``u``."""
    if v.sample_size != u.sample_size:
        raise InputError("covers live over different samples")
    return _stars_within(_point_stars(v), u.supports())


def _point_stars(c: Cover) -> np.ndarray:
    """The distinct nonempty point stars of ``c``, as boolean (stars, p) rows.

    Row x of sup^T sup is positive on the star of x, the union of the members
    containing x; a point in no member has an empty, vacuous star.
    """
    sup = c.supports().astype(float)
    stars = sup.T @ sup > 0.0
    stars = stars[stars.any(axis=1)]
    return stars[_first_rows(np.packbits(stars, axis=1))]


def _stars_within(stars: np.ndarray, members: np.ndarray) -> bool:
    """Whether every boolean row of ``stars`` lies inside some boolean row of ``members``."""
    outside = stars.astype(float) @ (~members).T.astype(float)
    return bool((outside == 0.0).any(axis=1).all())


def drop_empty_members(c: Cover) -> Cover:
    """The subfamily of nonempty members, in the original order."""
    nonempty = c.supports().any(axis=1)
    if not nonempty.any():
        raise InputError("cover has no nonempty member")
    return Cover(c.matrix[nonempty])


def dedupe_by_support(c: Cover) -> Cover:
    """Keep the first member for each distinct support, preserving order.

    A subfamily with the same supports covers the same points, refines the
    same covers and star-refines whatever the full family star-refines, so
    this is a safe normalization between pipeline steps. Supports are
    compared as packed bytes.
    """
    first = np.sort(_first_rows(np.packbits(c.supports(), axis=1)))
    return Cover(c.matrix[first])


def _first_rows(a: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row of a 2-d array.

    The indices come in lexicographic order of their rows. (A stable
    lexsort; ``np.unique(axis=0)`` would do the same but pulls in
    ``numpy.ma``, about 1.7 MB of resident memory.)
    """
    order = np.lexsort(a.T[::-1])
    runs = a[order]
    start = np.ones(len(a), dtype=bool)
    start[1:] = (runs[1:] != runs[:-1]).any(axis=1)
    return order[start]


def _grid_steps(d: int, radius: float) -> int:
    """Steps per axis m = max(1, ceil(sqrt(d) / radius)) of the grid {0..m}^d / m.

    Cells are int64 arrays, so a grid finer than 2^62 steps per axis (or a
    NaN radius) is a :class:`CertificateError`.
    """
    steps = math.sqrt(d) / radius
    if not steps <= 2**62:
        raise CertificateError(f"grid of {steps:.3g} steps per axis is too fine to index")
    return max(1, math.ceil(steps))


def _grid_boxes(f: np.ndarray, radius: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Int64 corners (lo, hi) of each row's box floor((f - radius) m) .. ceil((f + radius) m).

    Clamped to 0..m, the box holds every grid cell c with |f - c / m| <= radius;
    it is empty where lo > hi on some axis.
    """
    # clipped into int64 range first: a bound beyond it is beyond 0..m anyway
    edge = 2.0**63 - 1024.0
    lo = np.clip(np.floor((f - radius) * m), -1.0, edge).astype(np.int64)
    hi = np.clip(np.ceil((f + radius) * m), -1.0, edge).astype(np.int64)
    return np.maximum(lo, 0), np.minimum(hi, m)


def _box_cells(lo: np.ndarray, hi: np.ndarray, cap: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(box index, cell) rows of every cell of the boxes lo..hi; empty boxes have none.

    Box b gives lo[b] + offset for each offset < hi[b] - lo[b] + 1, in
    lexicographic order, boxes in turn. Offsets come from one grid as large
    as the widest box, and a block holds at most ``cap`` (box, offset) pairs:
    whole boxes against the whole grid, or one box against part of a larger grid.
    """
    ext = hi - lo + 1
    grid = np.indices(ext.max(axis=0, initial=0)).reshape(lo.shape[1], -1).T
    boxes, part = max(1, cap // max(1, len(grid))), max(1, min(len(grid), cap))
    for b in range(0, len(lo), boxes):
        for g in range(0, len(grid), part):
            inside = (grid[g : g + part] < ext[b : b + boxes, None]).all(axis=2)
            yield np.nonzero(inside)[0] + b, (lo[b : b + boxes, None] + grid[g : g + part])[inside]
