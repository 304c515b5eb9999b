"""Stagewise construction of sample maps into the cube I^(2n+1).

Each stage t consumes a map f_t and a scale delta_t and produces f_{t+1}
within 3*delta_t of f_t, so the maps form a Cauchy sequence with explicit
tail bound sum_{s>t} 3*delta_s <= (9/2)*delta_{t+1}. A stage:

  1. takes the t-th pair of enumerated balls (inner strictly inside outer)
     and forms the two-member cover {outer, complement of closed inner};
  2. meets it with the cover of delta_t-ball preimages under f_t taken
     over a uniform grid of the cube;
  3. reduces the meet to order <= n, star-refines, reduces again;
  4. picks one sample point per member, perturbs the image points (plus
     n+1 anchor points kept exactly on the stage's rational hyperplane)
     into general position inside the cube;
  5. maps each sample point to the weight-averaged vertex combination
     (the kappa map) and measures the separation quantities eta (between
     disjoint vertex spans) and eta' (vertex spans to the hyperplane).

delta_{t+1} = min(delta_t, eta/8, eta'/4)/3 makes all later wobble small
against both separations, which is what the final certificates cash in:
images stay farther than eta'/2 from each handled hyperplane, and small
image balls have preimages inside single members of the stage-1 covers.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence

import numpy as np

from .covers import (
    Cover,
    _box_cells,
    _first_rows,
    _grid_boxes,
    _grid_steps,
    _require_covering,
    dedupe_by_support,
    drop_empty_members,
    is_point_star_refinement,
    meet,
    order_of,
    star_refinement,
)
from .dimension import Oracle, reduce_order, separator_oracle
from .errors import CertificateError, GeneralPositionError, InputError
from .metric import (
    _CHUNK_FLOATS,
    Ball,
    SampledSpace,
    _as_readonly,
    _ball_radii,
    _float_array,
    _reject_json_constant,
    ball_cozero,
    complement_cozero,
    enumerate_balls,
)

RANK_TOL = 1e-9
HULL_TOL = 1e-9
# 25x the cancellation error of |r|^2 - r^T M M^+ r (about 4e-8 at d <= 7);
# see _widest_first
SCAN_GUARD = 1e-6
CUBE_TOL = 1e-12
DELTA0 = 0.25


# ---------------------------------------------------------------------------
# rational hyperplanes


def stern_brocot_rationals(max_denominator: int) -> list[Fraction]:
    """All fractions in [0,1] with denominator <= max_denominator.

    Ordered by height: 0, 1 first, then breadth-first down the mediant
    tree between them (1/2; 1/3, 2/3; 1/4, 2/5, 3/5, 3/4; ...). Children
    have strictly larger denominators than their parents, so pruning at
    max_denominator is exact and the relative order matches the untruncated
    enumeration.
    """
    if max_denominator < 1:
        raise InputError("denominator bound must be at least 1")
    out = [Fraction(0), Fraction(1)]
    level = [(Fraction(0), Fraction(1))]
    while level:
        next_level = []
        for lo, hi in level:
            med = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
            if med.denominator <= max_denominator:
                out.append(med)
                next_level.append((lo, med))
                next_level.append((med, hi))
        level = next_level
    return out


@dataclass(frozen=True)
class Hyperplane:
    """Affine subspace of I^(2n+1) fixing n+1 coordinates at rationals.

    ``coords`` are the fixed coordinate indices (distinct, sorted, drawn
    from 0..2n) and ``values`` the corresponding rational values in [0,1].
    The ambient dimension is implied: 2*len(coords) - 1. The point tests
    (``contains``, ``distance_to_point``, ``equation_violation``) take one
    point, giving a scalar, or a (p, d) array, giving one value per row.
    """

    coords: tuple[int, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = tuple(int(c) for c in self.coords)
        values = tuple(Fraction(v) for v in self.values)
        if len(coords) != len(set(coords)) or list(coords) != sorted(coords):
            raise InputError("fixed coordinates must be distinct and sorted")
        if len(values) != len(coords) or not coords:
            raise InputError("need one value per fixed coordinate")
        d = 2 * len(coords) - 1
        if min(coords) < 0 or max(coords) >= d:
            raise InputError(f"coordinate indices must lie in 0..{d - 1}")
        if any(v < 0 or v > 1 for v in values):
            raise InputError("hyperplane values must lie in [0,1]")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "values", values)

    @property
    def ambient_dim(self) -> int:
        return 2 * len(self.coords) - 1

    @property
    def free_coords(self) -> tuple[int, ...]:
        fixed = set(self.coords)
        return tuple(i for i in range(self.ambient_dim) if i not in fixed)

    def base_point(self) -> np.ndarray:
        x = np.full(self.ambient_dim, 0.5)
        for c, v in zip(self.coords, self.values):
            x[c] = float(v)
        return x

    def basis(self) -> np.ndarray:
        """Orthonormal direction basis: the unit vectors of the free axes."""
        b = np.zeros((len(self.free_coords), self.ambient_dim))
        for row, c in enumerate(self.free_coords):
            b[row, c] = 1.0
        return b

    def _offsets(self, x: np.ndarray) -> np.ndarray:
        """x_{c_i} - r_i over the fixed coordinates, along the last axis of x."""
        x = np.asarray(x, dtype=float)
        return x[..., list(self.coords)] - np.array([float(v) for v in self.values])

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        return self.equation_violation(x) <= 0.0

    def distance_to_point(self, x: np.ndarray) -> float | np.ndarray:
        """Euclidean distance; only the fixed coordinates contribute."""
        off = self._offsets(x)
        dist = np.sqrt((off * off).sum(axis=-1))
        return float(dist) if dist.ndim == 0 else dist

    def equation_violation(self, x: np.ndarray) -> float | np.ndarray:
        """Largest single-equation violation max_i |x_{c_i} - r_i|."""
        worst = np.abs(self._offsets(x)).max(axis=-1)
        return float(worst) if worst.ndim == 0 else worst

    def to_json_dict(self) -> dict:
        return {
            "coords": list(self.coords),
            "values": [[v.numerator, v.denominator] for v in self.values],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Hyperplane":
        try:
            coords = tuple(int(c) for c in obj["coords"])
            values = tuple(Fraction(int(p), int(q)) for p, q in obj["values"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a hyperplane document: {exc}") from exc
        return cls(coords, values)


def enumerate_hyperplanes(n: int, T: int) -> list[Hyperplane]:
    """First T hyperplanes of I^(2n+1) that fix n+1 coordinates at rationals.

    Ordering: primarily by the largest denominator appearing in the value
    tuple, then by the fixed coordinate set (lexicographic), then by the
    value tuple compared rank-wise in the height order of
    :func:`stern_brocot_rationals`. Deterministic and duplicate-free.
    """
    if T < 1:
        raise InputError("need at least one hyperplane")
    if n < 0:
        raise InputError("n must be nonnegative")
    coord_sets = list(combinations(range(2 * n + 1), n + 1))
    out: list[Hyperplane] = []
    max_den = 1
    while len(out) < T:
        ranked = stern_brocot_rationals(max_den)
        fresh = [v for v in ranked if v.denominator == max_den]
        if fresh:
            for coords in coord_sets:
                width = len(coords)
                for tup in _value_tuples(ranked, fresh, width):
                    out.append(Hyperplane(coords, tup))
                    if len(out) == T:
                        return out
        max_den += 1
    return out


def _value_tuples(
    ranked: list[Fraction], fresh: list[Fraction], width: int
) -> Iterator[tuple[Fraction, ...]]:
    """Width-tuples over ``ranked`` containing a ``fresh`` value, rank-lex order."""
    fresh_set = set(fresh)
    for tup in product(ranked, repeat=width):
        if any(v in fresh_set for v in tup):
            yield tup


# ---------------------------------------------------------------------------
# general position


def _subset_sigmas(points: np.ndarray, max_size: int) -> Iterator[tuple[list, np.ndarray]]:
    """Each size 2..max_size in turn: its subsets, lexicographic, and their least sigmas.

    A subset's sigma is the least singular value of its differences from its
    first point; one batched SVD per size, computed only when reached.
    """
    k = len(points)
    for s in range(2, min(k, max_size) + 1):
        subs = list(combinations(range(k), s))
        base = points[[c[0] for c in subs]]
        rest = points[np.array(subs)[:, 1:]]
        yield subs, np.linalg.svd(rest - base[:, None, :], compute_uv=False).min(axis=1)


def general_position(
    targets: Sequence[np.ndarray] | np.ndarray,
    eps: float,
    constraints: Sequence[Hyperplane | None] | None = None,
    box: tuple[np.ndarray, np.ndarray] | None = None,
    seed: int | tuple = 0,
    rounds: int = 64,
    tol: float = RANK_TOL,
) -> np.ndarray:
    """Move each target at most eps so no m+2 outputs sit in an m-flat.

    Affine independence is required of every subset of size up to d+1
    (singular values above ``tol``, which must be finite and nonnegative).
    A target with a constraint hyperplane must lie within eps of it; its
    fixed coordinates are set to the plane's values and never perturbed,
    so the output stays exactly on the hyperplane. If ``box`` is given,
    unconstrained points are clipped into it (constrained points must land
    inside on their own). Round 0 tries the projected targets unperturbed;
    later rounds redraw uniform perturbations of Euclidean size <= eps/2
    (on the free coordinates only, for a constrained point) from a
    generator seeded by ``seed``, so results are reproducible. Exhausting
    the round budget raises and names the last violating subset.
    """
    pts = _float_array(targets, "targets")
    if pts.ndim != 2:
        raise InputError("targets must be points of a common dimension")
    k, d = pts.shape
    if not (eps > 0):
        raise InputError("perturbation budget must be positive")
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"rank tolerance must be finite and nonnegative, got {tol!r}")
    planes: list[Hyperplane | None] = list(constraints) if constraints else [None] * k
    if len(planes) != k:
        raise InputError("need one constraint entry (possibly None) per target")
    projected = pts.copy()
    for i, plane in enumerate(planes):
        if plane is None:
            continue
        if plane.ambient_dim != d:
            raise InputError("constraint hyperplane and targets disagree on dimension")
        gap = plane.distance_to_point(pts[i])
        if gap > eps:
            raise InputError(
                f"target {i} lies {gap:.3g} from its constraint hyperplane, beyond eps"
            )
        projected[i, list(plane.coords)] = [float(v) for v in plane.values]
    if box is not None:
        lo, hi = (np.asarray(b, dtype=float) for b in box)
    rng = np.random.default_rng(seed)
    violation: tuple[int, ...] | None = None
    for round_no in range(rounds):
        candidate = projected.copy()
        if round_no > 0:
            for i, plane in enumerate(planes):
                free = list(range(d)) if plane is None else list(plane.free_coords)
                if free:
                    noise = rng.uniform(-1.0, 1.0, len(free))
                    candidate[i, free] += noise * (eps / (2.0 * math.sqrt(len(free))))
        if box is not None:
            # clipping a constrained point could move it off its hyperplane,
            # so a constrained point outside the box invalidates the round
            escaped = False
            for i, plane in enumerate(planes):
                if plane is None:
                    candidate[i] = np.clip(candidate[i], lo, hi)
                elif ((candidate[i] < lo) | (candidate[i] > hi)).any():
                    escaped = True
                    break
            if escaped:
                continue
        shift = np.linalg.norm(candidate - pts, axis=1)
        if round_no > 0 and (shift >= eps).any():
            continue
        for subs, sigma in _subset_sigmas(candidate, d + 1):
            if (sigma <= tol).any():
                violation = subs[int(np.argmax(sigma <= tol))]
                break
        else:
            return candidate
    raise GeneralPositionError(
        f"no general-position perturbation found in {rounds} rounds; "
        f"last violating subset: {violation}"
    )


# ---------------------------------------------------------------------------
# kappa maps and separation quantities


@dataclass(frozen=True, eq=False)
class KappaMap:
    """Values and barycentric weights of a kappa map, one row per point."""

    values: np.ndarray
    weights: np.ndarray


def kappa_map(cozeros: Cover, vertices: np.ndarray | Sequence[np.ndarray]) -> KappaMap:
    """Weighted vertex average kappa(x) = sum_i u_i(x) z_i / sum_j u_j(x).

    Returns the images together with the weight rows lambda(x); each row
    sums to 1 and is supported exactly on the active members at x.
    """
    z = np.array([np.asarray(v, dtype=float) for v in vertices], dtype=float)
    if z.ndim != 2 or z.shape[0] != cozeros.size:
        raise InputError("need one vertex per cover member")
    _require_covering(cozeros)
    u = cozeros.matrix
    weights = (u / u.sum(axis=0)).T
    return KappaMap(values=weights @ z, weights=weights)


@functools.lru_cache(maxsize=32)
def _subsets(s: int, k: int) -> np.ndarray:
    """The k-subsets of range(s) as rows of a read-only index array, in lexicographic order."""
    out = np.array(list(combinations(range(s), k)), dtype=np.intp).reshape(-1, k)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _disjoint_pairs(s: int, n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Index-disjoint subset pairs (A, B), 1 <= |A| <= |B| <= n+1, grouped by sizes.

    One (A rows, B rows) group per size pair that has pairs, groups in
    order of |A| then |B|, pairs inside a group with A in lexicographic
    order and then B in lexicographic order. When |A| = |B| only B > A is
    kept, so every unordered pair appears once. Built once per (s, n); the
    arrays are read-only.
    """
    top = min(n + 1, s)
    subsets = {k: _subsets(s, k) for k in range(1, top + 1)}
    member = {k: (rows[:, :, None] == np.arange(s)).any(axis=1) for k, rows in subsets.items()}
    groups = []
    for a in range(1, top + 1):
        for b in range(a, top + 1):
            ok = member[a].astype(float) @ member[b].T.astype(float) == 0.0
            if a == b:
                ok = np.triu(ok, k=1)
            ia, ib = np.nonzero(ok)
            if len(ia):
                pair = subsets[a][ia], subsets[b][ib]
                for rows in pair:
                    rows.setflags(write=False)
                groups.append(pair)
    return tuple(groups)


def _group_row(groups: Sequence[tuple[np.ndarray, np.ndarray]], i: int) -> tuple:
    """The i-th (A, B) pair, counting through the groups, as index tuples."""
    for ia, ib in groups:
        if i < len(ia):
            return tuple(int(v) for v in ia[i]), tuple(int(v) for v in ib[i])
        i -= len(ia)
    raise IndexError(i)


def _span_distances(
    vertices: np.ndarray, groups: Sequence[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Batched hull-to-hull distances.

    ``groups`` holds nonempty index arrays (A rows, B rows) of equal
    subset sizes (``eta_prime`` makes the B rows a hyperplane's spanning
    points, see :func:`_plane_groups`). Every (A, B) pair is reduced to
    one least-squares system; systems are padded with zero columns to a
    common width and solved through batched pseudo-inverses:
    dist^2 = |r|^2 - r^T M (M^T M)^+ M^T r with M the stacked edge
    directions (those of A, then those of B) and r the base-point
    difference.

    The padded arrays are filled one group at a time by fancy indexing, so
    the cost in Python is per size pair, not per subset pair. Pair order,
    column order, zero padding and the single batched pseudo-inverse are
    those of building each system on its own, so the distances are the
    same bytes. The pseudo-inverse is taken matrix by matrix, so a pair's
    distance depends only on its own system and the padded width: passing
    only the widest groups (see :func:`_widest_first`) gives their
    distances the bytes they have in the call with every group.
    """
    d = vertices.shape[1]
    widths = [ia.shape[1] + ib.shape[1] - 2 for ia, ib in groups]
    total = sum(len(ia) for ia, _ in groups)
    m = np.zeros((total, d, max(widths)))
    r = np.empty((total, d))
    at = 0
    for (ia, ib), width in zip(groups, widths):
        rows = slice(at, at + len(ia))
        pa = vertices[ia]
        pb = vertices[ib]
        ka = ia.shape[1] - 1
        m[rows, :, :ka] = (pa[:, 1:] - pa[:, :1]).transpose(0, 2, 1)
        m[rows, :, ka:width] = (pb[:, 1:] - pb[:, :1]).transpose(0, 2, 1)
        r[rows] = pb[:, 0] - pa[:, 0]
        at += len(ia)
    proj = np.einsum("nij,nj->ni", m @ np.linalg.pinv(m), r)
    sq = np.einsum("ni,ni->n", r, r) - np.einsum("ni,ni->n", proj, r)
    return np.sqrt(np.maximum(sq, 0.0))


def _plane_groups(
    vertices: np.ndarray, plane: Hyperplane, n: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The vertices with the plane appended, and the groups measuring spans against it.

    The plane's spanning points, its base point and the base point plus
    each basis row, follow the s vertices, and each group pairs the
    k-subsets of the vertices (k <= n+1) with those points. The basis rows
    are unit vectors and the base point is 1/2 on the free axes, so the
    appended edges are the basis rows exactly.
    """
    s = vertices.shape[0]
    base = plane.base_point()
    span = np.vstack([base, base + plane.basis()])
    ib = np.arange(s, s + len(span))
    groups = []
    for k in range(1, min(n + 1, s) + 1):
        ia = _subsets(s, k)
        groups.append((ia, np.broadcast_to(ib, (len(ia), len(ib)))))
    return np.vstack([vertices, span]), groups


def _widest_first(
    vertices: np.ndarray, groups: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, Sequence[tuple[np.ndarray, np.ndarray]]]:
    """Span distances of the widest groups if their least clears SCAN_GUARD, else of all.

    Returns the distances with the groups they were measured over. A span
    only grows with its subset, so every pair lies inside a no farther pair
    of a widest group (|A| + |B| largest). The float form cancels, though:
    near zero a smaller pair can come out lower than its widest superset,
    even under HULL_TOL, so at or below ``SCAN_GUARD`` every group is
    measured and the values, verdicts and messages are the full scan's.
    Above it the verdict is the full scan's, and so is the value unless a
    smaller pair exactly ties its widest superset: the superset's rounding
    is returned, which can differ from the full scan's minimum by the
    cancellation error (up to about 1e-4 relative just above the guard).
    """
    width = max(ia.shape[1] + ib.shape[1] for ia, ib in groups)
    widest = [g for g in groups if g[0].shape[1] + g[1].shape[1] == width]
    if len(widest) < len(groups):
        dists = _span_distances(vertices, widest)
        if dists.min() > SCAN_GUARD:
            return dists, widest
    return _span_distances(vertices, groups), groups


def eta(vertices: np.ndarray | Sequence[np.ndarray], n: int) -> float:
    """Least distance between affine spans of disjoint vertex subsets.

    Subsets range over sizes 1..n+1. In general position every pair of
    index-disjoint spans is disjoint; a pair closer than the degeneracy
    threshold therefore reports a violation. Returns +inf when no disjoint
    pair exists (fewer than two vertices). The maximal pairs are measured
    first and decide the value when it clears ``SCAN_GUARD``; otherwise
    every pair is (see :func:`_widest_first`).
    """
    z = np.array([np.asarray(v, dtype=float) for v in vertices], dtype=float)
    groups = _disjoint_pairs(z.shape[0], n)
    if not groups:
        return math.inf
    dists, groups = _widest_first(z, groups)
    worst = int(dists.argmin())
    if dists[worst] <= HULL_TOL:
        sa, sb = _group_row(groups, worst)
        raise GeneralPositionError(
            f"spans of {sa} and {sb} meet (distance {dists[worst]:.3g})"
        )
    return float(dists.min())


def eta_prime(
    vertices: np.ndarray | Sequence[np.ndarray], plane: Hyperplane, n: int
) -> float:
    """Least distance from spans of <= n+1 vertices to the hyperplane.

    The spans of min(n+1, s) vertices are measured first and decide the
    value when it clears ``SCAN_GUARD``; otherwise every subset's is (see
    :func:`_widest_first`).
    """
    z = np.array([np.asarray(v, dtype=float) for v in vertices], dtype=float)
    if z.shape[1] != plane.ambient_dim:
        raise InputError("vertices and hyperplane disagree on ambient dimension")
    z, groups = _plane_groups(z, plane, n)
    dists, groups = _widest_first(z, groups)
    worst = int(dists.argmin())
    if dists[worst] <= HULL_TOL:
        subset, _ = _group_row(groups, worst)
        raise GeneralPositionError(
            f"span of {subset} touches the hyperplane "
            f"(distance {dists[worst]:.3g})"
        )
    return float(dists.min())


# ---------------------------------------------------------------------------
# stage machinery


def _depth_pairs(space: SampledSpace, radii: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """(inner, outer) ball indices of the pairs whose inner ball has the last radius."""
    k, p = len(radii) - 1, space.size
    gaps = np.subtract(radii[:k], radii[k])[:, None]
    i, outer_depth, j = np.nonzero(space.dist[:, None, :] < gaps)
    return k * p + i, outer_depth * p + j


def pair_schedule(space: SampledSpace, T: int) -> tuple[list[Ball], list[tuple[int, int]], int]:
    """Balls, first T strict-inclusion pairs, and the depth that sufficed.

    Ball q lies strictly inside ball m when d(c_q, c_m) < r_m - r_q, the
    float comparison :func:`strictly_included` makes. Ball k*p + i (centre
    i, radius R_k halving with k) can only lie inside a ball k'*p + j with
    k' < k, so one boolean mask per depth k, indexed (i, k', j), holds the
    pairs of its inner balls, and ``nonzero`` reads them out by inner, then
    outer index. A deeper list extends a shallower one, so the t-th pair
    does not depend on the depth. Equal ball indices in the list are one
    int object.

    The depth is the least whose list holds T pairs (1 when T <= 0), the
    balls are its :func:`enumerate_balls` list and the pairs the first T of
    that list, sliced as a list is for negative T.
    """
    depths, count = [], 0
    while not depths or count < T:
        depths.append(_depth_pairs(space, _ball_radii(space, len(depths) + 1)))
        count += len(depths[-1][0])
    balls = enumerate_balls(space, len(depths))
    # one int object per ball index, where tolist() would make one per entry
    ids = np.arange(len(balls), dtype=object)
    inner, outer = (np.concatenate(a)[:T] for a in zip(*depths))
    return balls, list(zip(ids[inner], ids[outer])), len(depths)


def _lattice_cells(f: np.ndarray, radius: float, m: int) -> np.ndarray:
    """Integer cells of the grid {0..m}^d near the rows of f, sorted.

    The union of the rows' boxes from :func:`~dimlab.covers._grid_boxes`, as
    a (cells, d) integer array in lexicographic row order; grid point c sits
    at c / m. Boxes are listed in blocks of ``_CHUNK_FLOATS`` cell coordinates.
    """
    f = np.asarray(f, dtype=float)
    d = f.shape[1]
    boxes = _box_cells(*_grid_boxes(f, radius, m), max(1, _CHUNK_FLOATS // d))
    cells = np.concatenate([np.zeros((0, d), dtype=np.int64)] + [c for _, c in boxes])
    return cells[_first_rows(cells)]


def ball_preimage_cover(space: SampledSpace, f: np.ndarray, delta: float) -> Cover:
    """Cover of the sample by preimages of delta-balls around grid points.

    The grid is the uniform lattice with m+1 points per axis where
    m = ceil(sqrt(d)/delta), so its spacing is at most delta/sqrt(d) and
    every image point has a lattice point within delta/2. Only lattice
    points within delta of some image are enumerated (there are at most
    (2 sqrt(d) + 3)^d per image point); members are the cozero ramps
    max(0, (delta - |f(x) - g|)/delta), taken in lexicographic cell order
    and deduplicated by support (the first cell of each support is kept).

    The cells are measured in blocks: one broadcast norm gives the
    distances from every image point to a block of grid points, with the
    block capped at about 2^20 floats so memory does not grow with the
    cell count. Supports are packed into bytes to find each block's first
    cell of each support; a member is built only for those, and
    :func:`dedupe_by_support` keeps the first across blocks. Order and
    values are exactly those of walking the cells one by one.
    """
    f = np.asarray(f, dtype=float)
    p, d = f.shape
    m = _grid_steps(d, delta)
    cells = _lattice_cells(f, delta, m)
    block = max(1, _CHUNK_FLOATS // (p * d))
    members = []
    for start in range(0, len(cells), block):
        dist = np.linalg.norm(f[None] - (cells[start : start + block] / m)[:, None], axis=2)
        vals = np.maximum(0.0, (delta - dist) / delta)
        packed = np.packbits(vals > 0.0, axis=1)
        first = np.sort(_first_rows(packed))
        members.append(np.minimum(1.0, vals[first[packed[first].any(axis=1)]]))
    if not sum(map(len, members)):
        raise CertificateError("no grid ball meets the image; grid construction failed")
    cover = dedupe_by_support(Cover(np.concatenate(members)))
    bad = cover.uncovered_point()
    if bad is not None:
        raise CertificateError(f"grid-ball preimages miss sample point {bad}")
    return cover


@dataclass(frozen=True, eq=False)
class StageState:
    """Complete record of one stage; every field is required.

    The inputs (t, f, delta), the ball pair and hyperplane, what the stage
    built, and the successor data f_next, delta_next.
    """

    t: int
    f: np.ndarray
    delta: float
    pair_code: tuple[int, int]
    hyperplane: Hyperplane
    cover_u: Cover
    vertices: np.ndarray
    anchors: np.ndarray
    eta: float
    eta_prime: float
    f_next: np.ndarray
    delta_next: float
    contraction: float

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise InputError("stage scale must be positive")
        for name in ("f", "vertices", "anchors", "f_next"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class AvoidedHyperplane:
    """A handled hyperplane with the final map's clearances from it."""

    hyperplane: Hyperplane
    eta_prime: float
    distance_margin: float
    equation_margin: float


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """Final map with all per-stage data needed for re-verification."""

    n: int
    seed: int
    delta0: float
    radii_depth: int
    f: np.ndarray
    stages: tuple[StageState, ...]
    avoided: tuple[AvoidedHyperplane, ...]
    injectivity_margin: float | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", _as_readonly(np.asarray(self.f, dtype=float)))

    @property
    def stage_count(self) -> int:
        return len(self.stages)


def _require_in_cube(points: np.ndarray, what: str) -> None:
    points = np.asarray(points, dtype=float)
    if (points < -CUBE_TOL).any() or (points > 1.0 + CUBE_TOL).any():
        idx = np.argwhere((points < -CUBE_TOL) | (points > 1.0 + CUBE_TOL))[0]
        raise CertificateError(f"{what} leaves the cube at index {tuple(int(v) for v in idx)}")


def _anchor_targets(plane: Hyperplane, n: int) -> np.ndarray:
    """n+1 spread-out points exactly on the hyperplane."""
    base = plane.base_point()
    free = plane.free_coords
    anchors = [base.copy()]
    for j in range(n):
        q = base.copy()
        q[free[j]] = 0.75
        anchors.append(q)
    return np.asarray(anchors)


def _stage_vertices(cover: Cover) -> np.ndarray:
    """Least-index sample point of each member; every member must be nonempty."""
    return cover.supports().argmax(axis=1)


def _stage_covers(
    space: SampledSpace, balls: Sequence[Ball], pair: tuple[int, int], f: np.ndarray, delta: float
) -> tuple[Cover, Cover]:
    """The stage's ball-pair cover V and its meet with the delta-ball preimage cover.

    V = {outer ball, complement of the closed inner ball} covers the sample only
    if the inner ball is strictly inside the outer one; :func:`embedding_stage` checks.
    """
    inner, outer = pair
    cover_v = Cover(
        (ball_cozero(space, balls[outer]), complement_cozero(space, balls[inner]))
    )
    cover_w = ball_preimage_cover(space, f, delta)
    return cover_v, dedupe_by_support(meet(cover_v, cover_w))


def embedding_stage(
    t: int,
    f: np.ndarray,
    delta: float,
    space: SampledSpace,
    balls: Sequence[Ball],
    n: int,
    pair: tuple[int, int],
    plane: Hyperplane,
    oracle: Oracle = separator_oracle,
    seed: int = 0,
) -> StageState:
    """Run stage t on the map f at scale delta, returning the stage record.

    ``pair`` (inner, outer indices into ``balls``) and ``plane`` are the t-th
    entries of :func:`pair_schedule` and :func:`enumerate_hyperplanes`.
    Raises a certificate error naming the failing claim if any stage
    inequality fails.
    """
    f_t = np.asarray(f, dtype=float)
    d = 2 * n + 1
    if f_t.shape[1] != d:
        raise InputError(f"map must land in dimension {d}")
    _require_in_cube(f_t, f"stage {t} map")
    cover_v, met = _stage_covers(space, balls, pair, f_t, delta)
    bad = cover_v.uncovered_point()
    if bad is not None:
        raise CertificateError(f"stage {t}: ball pair cover misses point {bad}")

    reduced = drop_empty_members(reduce_order(space, met, n, oracle))
    starred = dedupe_by_support(star_refinement(reduced)[0])
    cover_u = drop_empty_members(reduce_order(space, starred, n, oracle))
    if order_of(cover_u) > n:
        raise CertificateError(f"stage {t}: cover order exceeds {n}")
    if not is_point_star_refinement(cover_u, met):
        raise CertificateError(f"stage {t}: output stars do not fit the met cover")

    picks = _stage_vertices(cover_u)
    s = cover_u.size
    targets = np.vstack([f_t[picks], _anchor_targets(plane, n)])
    placed = general_position(
        targets,
        eps=delta,
        constraints=[None] * s + [plane] * (n + 1),
        box=(np.zeros(d), np.ones(d)),
        seed=(seed, t),
    )
    z, anchors = placed[:s], placed[s:]
    _require_in_cube(placed, f"stage {t} vertices")
    prox = np.linalg.norm(z - f_t[picks], axis=1)
    if (prox >= delta).any():
        raise CertificateError(f"stage {t}: a vertex strayed a full delta from its image")
    if not plane.contains(anchors).all():
        raise CertificateError(f"stage {t}: an anchor left its hyperplane")

    kappa = kappa_map(cover_u, z)
    f_next = kappa.values
    _require_in_cube(f_next, f"stage {t} kappa image")
    contraction = float(np.linalg.norm(f_next - f_t, axis=1).max())
    if not contraction < 3.0 * delta:
        raise CertificateError(
            f"stage {t}: map moved {contraction:.3g}, not under {3 * delta:.3g}"
        )
    eta_t = eta(z, n)
    etap_t = eta_prime(z, plane, n)
    clearance = float(plane.distance_to_point(f_next).min())
    if clearance < etap_t - HULL_TOL:
        raise CertificateError(
            f"stage {t}: image clearance {clearance:.3g} under eta' {etap_t:.3g}"
        )
    delta_next = min(delta, eta_t / 8.0, etap_t / 4.0) / 3.0
    return StageState(
        t=t,
        f=f_t,
        delta=delta,
        pair_code=tuple(pair),
        hyperplane=plane,
        cover_u=cover_u,
        vertices=z,
        anchors=anchors,
        eta=eta_t,
        eta_prime=etap_t,
        f_next=f_next,
        delta_next=delta_next,
        contraction=contraction,
    )


def initial_map(space: SampledSpace, n: int) -> np.ndarray:
    """Starting map into I^(2n+1).

    Coordinate inputs are normalized per axis into [0,1] and padded with
    constant 1/2 axes. Distance-only inputs get classical double-centering
    coordinates (eigencoordinates of -J D^2 J / 2) before the same
    normalization; eigenvector signs are fixed by making each coordinate's
    largest-magnitude entry positive.
    """
    d = 2 * n + 1
    p = space.size
    if space.coords is not None and space.coords.shape[1] <= d:
        raw = np.asarray(space.coords, dtype=float)
    else:
        dist2 = space.dist**2
        j = np.eye(p) - np.full((p, p), 1.0 / p)
        gram = -0.5 * j @ dist2 @ j
        vals, vecs = np.linalg.eigh(gram)
        order = np.argsort(vals)[::-1][: min(d, p)]
        vals = np.maximum(vals[order], 0.0)
        raw = vecs[:, order] * np.sqrt(vals)
        for c in range(raw.shape[1]):
            col = raw[:, c]
            if col[np.abs(col).argmax()] < 0:
                raw[:, c] = -col
    out = np.full((p, d), 0.5)
    for c in range(min(raw.shape[1], d)):
        col = raw[:, c]
        span = col.max() - col.min()
        if span > 0:
            out[:, c] = (col - col.min()) / span
    return out


def nobeling_embed(
    space: SampledSpace,
    n: int,
    T: int,
    oracle: Oracle = separator_oracle,
    seed: int = 0,
) -> EmbeddingResult:
    """Run T stages and assemble the certified result.

    Starting from :func:`initial_map` at scale delta_0 = 1/4, each stage
    handles one hyperplane and one ball pair. The result records, per
    handled hyperplane, the final map's worst Euclidean clearance (required
    above eta'_t/2) and worst single-equation clearance, plus the least
    pairwise image distance (required positive; None for one sample point).
    """
    for name, value in (("n", n), ("T", T), ("seed", seed)):
        # a bool or numpy integer would reach the result and fail to round-trip
        if type(value) is not int:
            raise InputError(f"{name} must be an integer, got {value!r}")
    if T < 1:
        raise InputError("need at least one stage")
    if space.size < 1:
        raise InputError("sample must be nonempty")
    if n < 0:
        raise InputError("n must be nonnegative")
    balls, pairs, depth = pair_schedule(space, T)
    planes = enumerate_hyperplanes(n, T)
    f, delta = initial_map(space, n), DELTA0
    stages: list[StageState] = []
    for t in range(T):
        done = embedding_stage(t, f, delta, space, balls, n, pairs[t], planes[t], oracle, seed)
        stages.append(done)
        f, delta = done.f_next, done.delta_next
    f_final = stages[-1].f_next
    avoided = []
    for st in stages:
        dist_margin = float(st.hyperplane.distance_to_point(f_final).min())
        eq_margin = float(st.hyperplane.equation_violation(f_final).min())
        if not dist_margin > st.eta_prime / 2.0:
            raise CertificateError(
                f"final map within eta'/2 of the stage-{st.t} hyperplane "
                f"({dist_margin:.3g} vs {st.eta_prime / 2.0:.3g})"
            )
        avoided.append(
            AvoidedHyperplane(st.hyperplane, st.eta_prime, dist_margin, eq_margin)
        )
    if space.size > 1:
        diffs = f_final[:, None, :] - f_final[None, :, :]
        gaps = np.linalg.norm(diffs, axis=2)
        iu = np.triu_indices(space.size, k=1)
        margin = float(gaps[iu].min())
        if not margin > 0.0:
            flat = int(gaps[iu].argmin())
            x, y = iu[0][flat], iu[1][flat]
            raise CertificateError(f"final map merges sample points {x} and {y}")
        injectivity: float | None = margin
    else:
        injectivity = None
    return EmbeddingResult(
        n=n,
        seed=seed,
        delta0=DELTA0,
        radii_depth=depth,
        f=f_final,
        stages=tuple(stages),
        avoided=tuple(avoided),
        injectivity_margin=injectivity,
    )


# ---------------------------------------------------------------------------
# serialization

# +inf has no standard JSON form; optional-infinite fields travel as null.


def _num(x: float | None) -> float | None:
    if x is None or math.isinf(x):
        return None
    return float(x)


def _denum(x) -> float | None:
    return math.inf if x is None else float(x)


def stage_to_json_dict(st: StageState) -> dict:
    return {
        "t": st.t,
        "delta": st.delta,
        "f": [[float(v) for v in row] for row in st.f],
        "pair_code": list(st.pair_code),
        "hyperplane": st.hyperplane.to_json_dict(),
        "cover_u": st.cover_u.to_json_dict(),
        "vertices": [[float(v) for v in row] for row in st.vertices],
        "anchors": [[float(v) for v in row] for row in st.anchors],
        "eta": _num(st.eta),
        "eta_prime": _num(st.eta_prime),
        "f_next": [[float(v) for v in row] for row in st.f_next],
        "delta_next": st.delta_next,
        "contraction": st.contraction,
    }


def _int(value, name: str) -> int:
    # int() would take 1.5 or true as 1; booleans are not integers here
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _pair_code(value) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2 or any(type(v) is not int for v in value):
        raise ValueError(f"pair_code must be two integers, got {value!r}")
    return value[0], value[1]


def stage_from_json_dict(doc: dict, sample_size: int) -> StageState:
    try:
        return StageState(
            t=_int(doc["t"], "t"),
            delta=float(doc["delta"]),
            f=np.array(doc["f"], dtype=float),
            pair_code=_pair_code(doc["pair_code"]),
            hyperplane=Hyperplane.from_json_dict(doc["hyperplane"]),
            cover_u=Cover.from_json_dict(doc["cover_u"], sample_size),
            vertices=np.array(doc["vertices"], dtype=float),
            anchors=np.array(doc["anchors"], dtype=float),
            eta=_denum(doc["eta"]),
            eta_prime=_denum(doc["eta_prime"]),
            f_next=np.array(doc["f_next"], dtype=float),
            delta_next=float(doc["delta_next"]),
            contraction=float(doc["contraction"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"not a stage document: {exc}") from exc


def result_to_json_dict(r: EmbeddingResult) -> dict:
    return {
        "n": r.n,
        "seed": r.seed,
        "delta0": r.delta0,
        "radii_depth": r.radii_depth,
        "f": [[float(v) for v in row] for row in r.f],
        "stages": [stage_to_json_dict(st) for st in r.stages],
        "avoided": [
            {
                "hyperplane": av.hyperplane.to_json_dict(),
                "eta_prime": _num(av.eta_prime),
                "distance_margin": av.distance_margin,
                "equation_margin": av.equation_margin,
            }
            for av in r.avoided
        ],
        "injectivity_margin": _num(r.injectivity_margin),
    }


def result_from_json_dict(doc: dict) -> EmbeddingResult:
    try:
        f = np.array(doc["f"], dtype=float)
        stages = tuple(stage_from_json_dict(sd, f.shape[0]) for sd in doc["stages"])
        avoided = tuple(
            AvoidedHyperplane(
                Hyperplane.from_json_dict(av["hyperplane"]),
                _denum(av["eta_prime"]),
                float(av["distance_margin"]),
                float(av["equation_margin"]),
            )
            for av in doc["avoided"]
        )
        return EmbeddingResult(
            n=_int(doc["n"], "n"),
            seed=_int(doc["seed"], "seed"),
            delta0=float(doc["delta0"]),
            radii_depth=_int(doc["radii_depth"], "radii_depth"),
            f=f,
            stages=stages,
            avoided=avoided,
            injectivity_margin=(
                None
                if doc["injectivity_margin"] is None
                else float(doc["injectivity_margin"])
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"not a result document: {exc}") from exc


def result_to_json_bytes(r: EmbeddingResult) -> bytes:
    return json.dumps(result_to_json_dict(r), separators=(",", ":"), allow_nan=False).encode(
        "utf-8"
    )


def result_from_json_bytes(data: bytes) -> EmbeddingResult:
    try:
        doc = json.loads(data.decode("utf-8"), parse_constant=_reject_json_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"not a result document: {exc}") from exc
    return result_from_json_dict(doc)
