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
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice, product
from typing import Iterable, Iterator, Sequence

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
    _float,
    _float_array,
    _float_or_null,
    _int,
    _json_array,
    _null_if_inf,
    _only_keys,
    _read_json,
    _write_json,
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
# K u: the unit roundoff u = 2^-53 times a safety factor K = 1e4 on the
# backward-error constants of Gram-Schmidt and the SVD; the error unit of
# the filters that decide which systems the exact code decomposes
_FILTER_EPS = 1e4 * 2.0**-53
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

    @functools.cached_property
    def _levels(self) -> np.ndarray:
        """The values as floats; built once per plane, read-only."""
        return _as_readonly([float(v) for v in self.values])

    def base_point(self) -> np.ndarray:
        x = np.full(self.ambient_dim, 0.5)
        x[list(self.coords)] = self._levels
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
        if x.shape[-1] != self.ambient_dim:
            raise InputError(f"points have dimension {x.shape[-1]}, but the hyperplane has "
                             f"ambient dimension {self.ambient_dim}")
        return x[..., list(self.coords)] - self._levels

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

    @functools.cached_property
    def _span_points(self) -> np.ndarray:
        """The base point, then the base point plus each basis row; built once per plane, read-only."""
        base = self.base_point()
        return _as_readonly(np.vstack([base, base + self.basis()]))

    def to_json_dict(self) -> dict:
        return {
            "coords": list(self.coords),
            "values": [[v.numerator, v.denominator] for v in self.values],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Hyperplane":
        _only_keys(obj, frozenset({"coords", "values"}), "not a hyperplane document")
        try:
            coords = tuple(_int(c, "hyperplane coord") for c in obj["coords"])
            values = tuple(
                Fraction(_int(p, "hyperplane numerator"), _int(q, "hyperplane denominator"))
                for p, q in obj["values"]
            )
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
    out: list[Hyperplane] = []
    max_den = 1
    while len(out) < T:
        ranked = stern_brocot_rationals(max_den)
        fresh = [v for v in ranked if v.denominator == max_den]
        if fresh:
            for coords in combinations(range(2 * n + 1), n + 1):
                for tup in _value_tuples(ranked, fresh, n + 1):
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


def _gram_schmidt(q: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt, in place, on N stacks of w vectors: the (w, N) squared R_ii.

    ``q`` is (w, d, N), with vector i of stack j in ``q[i, :, j]``, so every
    step works on contiguous rows of N values. Entry (i, j) is the squared
    length of vector i after the earlier vectors' directions are projected
    out of it. A zero length gives NaN in the later entries, so callers
    treat non-finite values as undecided.
    """
    # np.add.reduce is what ndarray.sum runs, without its Python wrapper; one
    # product and one reduction give vector i's squared length and its dot
    # products with the later vectors
    sq = np.empty((q.shape[0], q.shape[2]))
    for i, qi in enumerate(q):
        dots = np.add.reduce(q[i:] * qi, axis=1)
        sq[i] = dots[0]
        if i + 1 < len(q):
            q[i + 1 :] -= dots[1:, None] / dots[0] * qi
    return sq


def _filtered_least(
    blocks: Iterable[tuple], tol: float, jobs: int
) -> tuple[list[float], list[np.ndarray | None]]:
    """Per job, the least computed value over blocks of systems, and the first label at or under ``tol``.

    A block is (rows, labels, low, high, solve): the block's job ids, one
    label row per system column, (jobs, systems) arrays of the ends
    low <= v <= high of each system's computed value v (NaN where unknown,
    and a NaN or -inf low end where v can be NaN), and ``solve``, which
    computes the values of the systems that a mask in row-major (job,
    system) order picks, with the bytes a full solve gives them. A job's
    systems arrive in its label order. Each job has its own bound, the
    least high end or solved value of its systems so far, and a system is
    solved unless its low end exceeds both ``tol`` and its job's bound. The
    bound is never below the job's least value v*, whose system has
    low <= v*, and a value <= ``tol`` has its low end there too: each job's
    least and first label are the full scan's, to the byte. A NaN value
    counts as at or under ``tol`` and makes its job's least NaN, so it
    never reads as a pass.
    """
    least, bound = np.full((2, jobs), math.inf)
    first: list[np.ndarray | None] = [None] * jobs
    for rows, labels, low, high, solve in blocks:
        # a NaN high end leaves the bound, which is never NaN
        top = np.fmin(bound[rows], np.fmin.reduce(high, axis=1))
        keep = ~(low > np.maximum(top, tol)[:, None])
        if keep.any():
            values = np.full(keep.shape, math.inf)
            values[keep] = solve(keep.ravel())
            least[rows] = own = np.minimum(least[rows], values.min(axis=1))
            top = np.fmin(top, own)
            # a job's least first turns NaN or <= tol in the block of its first
            # hit; a system left out has low > tol, so its inf entry is no hit
            for i in np.flatnonzero(~(own > tol)):
                if first[rows[i]] is None:
                    first[rows[i]] = labels[int(np.argmax(~(values[i] > tol)))]
        bound[rows] = top
    return least.tolist(), first


def _grids(points: Sequence[np.ndarray], keys: Iterable) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The jobs grouped by key, in job order: per grid, its job ids and its jobs' points
    stacked as one (jobs, k, d) array. A job keyed None joins no grid."""
    grids: dict = {}
    for j, key in enumerate(keys):
        if key is not None:
            grids.setdefault(key, []).append(j)
    for members in grids.values():
        yield np.array(members), np.array([points[j] for j in members])


def _grid_block(jobs: int, systems: int, floats: int) -> tuple[int, int]:
    """Jobs and systems per block of a (jobs x systems) grid of ``floats`` floats per system:
    at most ``_CHUNK_FLOATS`` floats, or one system."""
    across = min(jobs, max(1, _CHUNK_FLOATS // floats))
    return across, min(systems, max(1, _CHUNK_FLOATS // (floats * across)))


def _sigma_blocks(jobs: Sequence[np.ndarray]) -> Iterator[tuple]:
    """The filter blocks of the maximal subsets of each job's rows, in label order per job.

    A subset S = {s_0 < ... < s_m} has the m x d difference matrix D_S with
    rows p_j - p_{s_0}, and its sigma is D_S's least singular value. Only
    subsets of size min(k, d+1) are measured, in lexicographic order; a job
    of fewer than two rows has no difference to measure and no block.

    Every smaller subset S of size >= 2 lies in a maximal S', and its sigma
    is at least that of S': for least elements b >= b' of S and S',
    D_S = E D_{S'}, where E's row for j is e_j - e_b (with e_{b'} := 0), so
    E E^T is I (b = b') or I + 11^T (b > b'). For unit x, |E^T x| >= 1 and
    D_{S'} has at most d rows, so |D_S^T x| = |D_{S'}^T E^T x| >= sigma(S').
    The least sigma over all subsets is thus reached at a maximal one, and
    a set has a subset at or under a tolerance exactly when a maximal one
    does (a set is affinely independent exactly when its maximal subsets
    are). In floats each maximal subset's sigma has the bytes a scan of
    every size computes for it, and a smaller subset's computed sigma can
    fall below its superset's only within the SVD's backward error, far
    below ``RANK_TOL``.

    A block's ends (see :func:`_filtered_least`) come from the Gram-Schmidt
    lengths l_ii of D's rows: prod l_ii = prod sigma_i, so sigma lies
    between prod l_ii / |D|_F^(m-1) and min l_ii, widened by K u kappa
    relative (kappa = |D|_F^m / prod l_ii >= cond(D)) and K u |D|_F
    absolute (Weyl); K u is ``_FILTER_EPS``. Jobs of one point shape (k, d)
    share the subsets of ``combinations(range(k), size)`` and form one grid
    (:func:`_grids`). Each (job slice x subset slice) block holds at most
    ``_CHUNK_FLOATS`` difference floats, or one subset, and gathers its
    subsets' points once, along the point axis of the grid's stacked
    points. When one slice holds every subset in at most 2^16 indices (the
    builder's 210 subsets of 10 points) it is the cached :func:`_subsets`
    table; otherwise the slices are streamed from ``combinations``, so no
    cached table grows with the input. Every decomposed D is the matrix
    that a scan of its job alone decomposes, so each job's result has that
    scan's bytes.
    """
    keys = [p.shape if min(p.shape[0], p.shape[1] + 1) >= 2 else None for p in jobs]
    for members, points in _grids(jobs, keys):
        _, k, d = points.shape
        size = min(k, d + 1)
        count = math.comb(k, size)
        across, down = _grid_block(len(members), count, (size - 1) * d)
        if down == count and count * size <= 1 << 16:
            slices: Iterable[np.ndarray] = [_subsets(k, size)]
        else:
            subsets = combinations(range(k), size)
            slices = (np.fromiter(chain.from_iterable(islice(subsets, down)), dtype=np.intp)
                      .reshape(-1, size) for _ in range(0, count, down))
        for sub in slices:
            for at in range(0, len(members), across):
                # the gathered points are dropped once differenced
                diffs = points[at : at + across].take(sub, axis=1).reshape(-1, size, d)
                with np.errstate(all="ignore"):
                    diffs = diffs[:, 1:] - diffs[:, :1]
                    norm = np.sqrt(np.einsum("nij,nij->n", diffs, diffs))
                    lengths = np.sqrt(_gram_schmidt(diffs.transpose(1, 2, 0).copy()))
                    det = lengths.prod(axis=0)
                    rel = _FILTER_EPS * norm ** (size - 1) / det
                    slack = _FILTER_EPS * norm
                    low = det / norm ** (size - 2) * (1.0 - rel) - slack
                    high = np.fmin.reduce(lengths, axis=0) * (1.0 + rel) + slack
                grid = (-1, len(sub))
                yield (members[at : at + across], sub, low.reshape(grid), high.reshape(grid),
                       lambda keep: np.linalg.svd(diffs[keep], compute_uv=False).min(axis=1))


def _least_sigmas(
    jobs: Sequence[np.ndarray], tol: float
) -> list[tuple[float, tuple[int, ...] | None]]:
    """Least sigma over the maximal subsets of each job's rows (:func:`_sigma_blocks`), and the
    first at or under ``tol`` (or NaN) as a tuple of ints, or None; (inf, None) for a job of
    fewer than two rows. The verifier reports the least sigma as its margin, so the filter
    (:func:`_filtered_least`) solves every subset that can set it."""
    least, first = _filtered_least(_sigma_blocks(jobs), tol, len(jobs))
    return [(v, None if f is None else tuple(f.tolist())) for v, f in zip(least, first)]


def _violating_subset(points: np.ndarray, tol: float) -> tuple[int, ...] | None:
    """The maximal subset of ``points`` that :func:`_least_sigmas` names, without the least sigma.

    Blocks are walked in label order. A subset whose high end is at or
    under ``tol`` is a sure hit: its computed sigma is at most that end, as
    the filter's running bound assumes. Before a block's first sure hit,
    the subsets whose low end is not above ``tol`` (NaN included) are
    solved, and the first solved value at or under ``tol`` (or NaN) names
    its subset; otherwise the sure hit does. Every subset before the named
    one has a low end or a computed sigma above ``tol``, so it is the full
    scan's first. The walk stops there, and later blocks are never built.
    """
    for _, labels, low, high, solve in _sigma_blocks([points]):
        sure = np.flatnonzero(high[0] <= tol)
        end = sure[0] if len(sure) else len(labels)
        keep = ~(low[0] > tol)
        keep[end:] = False
        if keep.any():
            hits = np.flatnonzero(keep)[~(solve(keep) > tol)]
            if len(hits):
                end = hits[0]
        if end < len(labels):
            return tuple(labels[end].tolist())
    return None


def _check_seed(seed) -> None:
    """A seed is a non-negative integer or a tuple (or list) of them, as numpy's generators take."""
    for part in seed if isinstance(seed, (tuple, list)) else (seed,):
        if not (isinstance(part, (int, np.integer)) and not isinstance(part, bool) and part >= 0):
            raise InputError(f"seed must be a non-negative integer or a tuple of them, got {seed!r}")


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

    Affine independence is required of every maximal subset, of size
    min(k, d+1): the least singular value of its differences from its
    first point must exceed ``tol``, which must be finite and nonnegative.
    That covers every smaller subset too, because deleting points never
    lowers the least singular value (:func:`_sigma_blocks` gives the
    argument). A round needs only the verdict (:func:`_violating_subset`).
    A target with a constraint hyperplane must lie within eps of it; its
    fixed coordinates are set to the plane's values and never perturbed,
    so the output stays exactly on the hyperplane. If ``box`` is given,
    unconstrained points are clipped into it (constrained points must land
    inside on their own). Round 0 tries the projected targets unperturbed;
    later rounds redraw uniform perturbations of Euclidean size <= eps/2
    (on the free coordinates only, for a constrained point) from a
    generator seeded by ``seed``, a non-negative integer or a tuple of
    them, so results are reproducible; the generator is made on the first
    perturbed round. ``eps`` must be positive and finite and ``rounds`` at
    least 1. Exhausting the round budget raises: the message names the
    lexicographically first violating maximal subset of the last round that
    reached the subset test, or says that no round reached it because each
    left a constrained target outside the box or moved a point eps or more.
    """
    pts = _float_array(targets, "targets")
    if pts.ndim != 2:
        raise InputError("targets must be points of a common dimension")
    k, d = pts.shape
    if not (eps > 0 and math.isfinite(eps)):
        raise InputError(f"perturbation budget must be positive and finite, got {eps!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"rank tolerance must be finite and nonnegative, got {tol!r}")
    if not (type(rounds) is int and rounds >= 1):
        raise InputError(f"round budget must be an integer >= 1, got {rounds!r}")
    _check_seed(seed)
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
        projected[i, list(plane.coords)] = plane._levels
    free = np.array([plane is None for plane in planes], dtype=bool)
    if box is not None:
        lo, hi = (np.asarray(b, dtype=float) for b in box)
    rng = None
    violation: tuple[int, ...] | None = None
    for round_no in range(rounds):
        candidate = projected.copy()
        if round_no > 0:
            # made on the first perturbed round: round 0 draws nothing
            rng = np.random.default_rng(seed) if rng is None else rng
            for i, plane in enumerate(planes):
                axes = list(range(d)) if plane is None else list(plane.free_coords)
                if axes:
                    noise = rng.uniform(-1.0, 1.0, len(axes))
                    candidate[i, axes] += noise * (eps / (2.0 * math.sqrt(len(axes))))
        if box is not None:
            # clipping a constrained point could move it off its hyperplane,
            # so a constrained point outside the box invalidates the round
            candidate[free] = np.clip(candidate[free], lo, hi)
            fixed = candidate[~free]
            if ((fixed < lo) | (fixed > hi)).any():
                continue
        if round_no > 0 and (np.linalg.norm(candidate - pts, axis=1) >= eps).any():
            continue
        violation = _violating_subset(candidate, tol)
        if violation is None:
            return candidate
    raise GeneralPositionError(
        f"no general-position perturbation found in {rounds} rounds; "
        + (f"last violating subset: {violation}" if violation is not None else
           "no round reached the subset test: each left a constrained target outside the box "
           "or moved a point eps or more")
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


@functools.lru_cache(maxsize=32)
def _span_selectors(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Column selectors (tails, heads) of the [M | r] columns of an (A, B) pair, |A| = a, |B| = b.

    On the pair's points p = [A | B], column i is p[tails[i]] - p[heads[i]]:
    the edges of A from A_0, then those of B from B_0, then r = B_0 - A_0.
    They depend only on the sizes; the arrays are read-only.
    """
    tails = np.r_[1:a, a + 1 : a + b, a]
    heads = np.repeat([0, a, 0], [a - 1, b - 1, 1])
    for sel in (tails, heads):
        sel.setflags(write=False)
    return tails, heads


def _span_columns(points: np.ndarray, rows: np.ndarray, a: int) -> np.ndarray:
    """The [M | r] columns of the span systems whose [A | B] point indices are ``rows``, |A| = a,
    in each job of the stacked (jobs, k, d) ``points``.

    One gather of the rows' points and one subtraction with the
    :func:`_span_selectors` give a (jobs x systems, w + 1, d) array,
    job-major: M's w = |A| + |B| - 2 edge columns, then r.
    """
    tails, heads = _span_selectors(a, rows.shape[1] - a)
    p = points.take(rows, axis=1).reshape(-1, rows.shape[1], points.shape[2])
    cols = p.take(tails, axis=1)
    with np.errstate(all="ignore"):  # points near +-1e308: the scans read inf and NaN
        cols -= p.take(heads, axis=1)
    return cols


def _solve_spans(m: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sqrt(|r|^2 - r^T M M^+ r) per stacked system (M, r); pinv runs matrix by matrix,
    so a row's bytes depend only on its own system and the padded width; a
    non-finite system gives a NaN or inf row."""
    with np.errstate(all="ignore"):
        proj = np.einsum("nij,nj->ni", m @ np.linalg.pinv(m), r)
        sq = np.einsum("ni,ni->n", r, r) - np.einsum("ni,ni->n", proj, r)
        return np.sqrt(np.maximum(sq, 0.0))


def _span_distances(
    vertices: np.ndarray, groups: Sequence[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Batched hull-to-hull distances, one per (A, B) pair of ``groups``.

    ``groups`` holds nonempty index arrays (A rows, B rows) of equal subset
    sizes (for ``eta_prime`` the B rows are a hyperplane's spanning points,
    see :func:`_plane_groups`). Each pair is one least-squares system: M the
    edge directions of A then of B, r the base-point difference
    (:func:`_span_columns`), M padded with zero columns to a common width;
    dist^2 = |r|^2 - r^T M M^+ r. The distances have the bytes of solving
    each system on its own.
    """
    cols = [_span_columns(vertices[None], np.concatenate((ia, ib), axis=1), ia.shape[1])
            for ia, ib in groups]
    width = max(c.shape[1] for c in cols) - 1
    m = np.zeros((sum(len(c) for c in cols), vertices.shape[1], width))
    at = 0
    for c in cols:
        m[at : at + len(c), :, : c.shape[1] - 1] = c[:, :-1].transpose(0, 2, 1)
        at += len(c)
    return _solve_spans(m, np.concatenate([c[:, -1] for c in cols]))


def _plane_groups(
    vertices: np.ndarray, plane: Hyperplane, n: int
) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The vertices with the plane appended, and the groups measuring spans against it.

    The plane's spanning points, its base point and the base point plus
    each basis row, follow the s vertices, and each group pairs the
    k-subsets of the vertices (k <= n+1) with those points. The basis rows
    are unit vectors and the base point is 1/2 on the free axes, so the
    appended edges are the basis rows exactly.
    """
    span = plane._span_points
    return np.vstack([vertices, span]), _plane_pairs(vertices.shape[0], n, len(span))


@functools.lru_cache(maxsize=32)
def _plane_pairs(s: int, n: int, span: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The groups of :func:`_plane_groups` for s vertices and ``span`` plane points; read-only."""
    ib = np.arange(s, s + span)
    return tuple((ia, np.broadcast_to(ib, (len(ia), span)))
                 for ia in (_subsets(s, k) for k in range(1, min(n + 1, s) + 1)))


def _widest_first(
    jobs: Sequence[tuple[np.ndarray, Sequence[tuple[np.ndarray, np.ndarray]]]]
) -> list[tuple[float, tuple | None]]:
    """Per (vertices, groups) job: the least span distance, and the pair that sets it when it is
    at or under HULL_TOL; (inf, None) for a job with no groups.

    A span only grows with its subset, so every pair lies inside a no
    farther pair of a widest group (|A| + |B| largest). The float form
    cancels, though: near zero a smaller pair can come out lower than its
    widest superset, even under HULL_TOL. So when the widest groups' least
    clears ``SCAN_GUARD`` it is returned, and otherwise every group of that
    job is measured and the value and the pair (as index tuples, or None
    above HULL_TOL) are the full scan's. Above the guard the verdict is the
    full scan's, and so is the value unless a smaller pair exactly ties its
    widest superset: the superset's rounding is returned, which can differ
    from the full scan's minimum by the cancellation error (up to about
    1e-4 relative just above the guard). A NaN distance counts as under
    HULL_TOL.

    Jobs that hold one groups tuple (and vertices of one shape) form one
    grid (:func:`_grids`). Each (job slice x pair slice) block holds at
    most ``_CHUNK_FLOATS`` floats, or one system, and builds its systems'
    [M | r] columns with one gather along the point axis of the grid's
    stacked vertices (:func:`_span_columns`). Each system is built once,
    and is the matrix, at the same width, that a scan of its job alone
    builds, so each job's result has that scan's bytes. :func:`_filtered_least` solves the
    systems its bounds leave open from the same arrays. Modified
    Gram-Schmidt on [M r] gives M's column lengths R_ii and the residual a.
    With kappa = |M|_F^w / prod R_ii >= cond(M) (w columns), a^2 and the
    pinv form each lie within a small multiple of u kappa |r|^2 of the
    exact value (Higham, ch. 19-20), so the distance lies between
    sqrt(max(a^2 - e, 0)) and sqrt(a^2 + e), e = K u kappa |r|^2 (K u is
    ``_FILTER_EPS``). The full scan below the guard is not filtered, so
    every message comes from it.
    """
    keys = [(id(groups), vertices.shape) if groups else None for vertices, groups in jobs]

    def blocks() -> Iterator[tuple]:
        for members, points in _grids([vertices for vertices, _ in jobs], keys):
            groups, d = jobs[members[0]][1], points.shape[2]
            width = max(ia.shape[1] + ib.shape[1] for ia, ib in groups)
            w = width - 2  # M's columns; a system holds d (w + 1) floats
            for ia, ib in groups:
                if ia.shape[1] + ib.shape[1] < width:
                    continue
                joined = np.concatenate((ia, ib), axis=1)
                across, down = _grid_block(len(members), len(ia), d * (w + 1))
                for start, at in product(range(0, len(ia), down), range(0, len(members), across)):
                    pairs = joined[start : start + down]
                    cols = _span_columns(points[at : at + across], pairs, ia.shape[1])
                    # M as contiguous (d, w) matrices: the layout |M|_F and the solve read
                    m, r = cols[:, :w].transpose(0, 2, 1).copy(), cols[:, w]
                    with np.errstate(all="ignore"):
                        sq = _gram_schmidt(cols.transpose(1, 2, 0).copy())
                        kappa = np.sqrt(np.einsum("nij,nij->n", m, m) ** w / sq[:w].prod(axis=0))
                        err = _FILTER_EPS * kappa * np.einsum("ni,ni->n", r, r)
                        low = np.sqrt(np.maximum(sq[w] - err, 0.0)).reshape(-1, len(pairs))
                        high = np.sqrt(sq[w] + err).reshape(low.shape)
                    yield (members[at : at + across], ia[start : start + down], low, high,
                           lambda keep: _solve_spans(m[keep], r[keep]))

    # no tolerance: the guard below decides, so only the least is needed
    least, _ = _filtered_least(blocks(), -math.inf, len(jobs))
    out: list[tuple[float, tuple | None]] = []
    for (vertices, groups), value in zip(jobs, least):
        if value > SCAN_GUARD:
            out.append((value, None))
            continue
        dists = _span_distances(vertices, groups)
        worst = int(dists.argmin())
        out.append((float(dists[worst]),
                    None if dists[worst] > HULL_TOL else _group_row(groups, worst)))
    return out


def _span_job(
    vertices: np.ndarray | Sequence[np.ndarray], n: int, plane: Hyperplane | None = None
) -> tuple[np.ndarray, Sequence[tuple[np.ndarray, np.ndarray]]]:
    """The (vertices, groups) job of :func:`_widest_first` that ``eta`` (no plane) or
    ``eta_prime`` (the plane) measures."""
    z = np.asarray(vertices, dtype=float)
    if plane is None:
        return z, _disjoint_pairs(z.shape[0], n)
    if z.shape[1] != plane.ambient_dim:
        raise InputError("vertices and hyperplane disagree on ambient dimension")
    return _plane_groups(z, plane, n)


def _separation(least: float, pair: tuple | None, plane: Hyperplane | None) -> float:
    """A span job's least distance, or the error that names its meeting or touching pair."""
    if pair is None:
        return least
    if plane is None:
        raise GeneralPositionError(f"spans of {pair[0]} and {pair[1]} meet (distance {least:.3g})")
    raise GeneralPositionError(f"span of {pair[0]} touches the hyperplane (distance {least:.3g})")


def eta(vertices: np.ndarray | Sequence[np.ndarray], n: int) -> float:
    """Least distance between affine spans of disjoint vertex subsets.

    Subsets range over sizes 1..n+1. In general position every pair of
    index-disjoint spans is disjoint; a pair closer than the degeneracy
    threshold therefore reports a violation. Returns +inf when no disjoint
    pair exists (fewer than two vertices). The maximal pairs are measured
    first and decide the value when it clears ``SCAN_GUARD``; otherwise
    every pair is (see :func:`_widest_first`).
    """
    return _separation(*_widest_first([_span_job(vertices, n)])[0], None)


def eta_prime(
    vertices: np.ndarray | Sequence[np.ndarray], plane: Hyperplane, n: int
) -> float:
    """Least distance from spans of <= n+1 vertices to the hyperplane.

    The spans of min(n+1, s) vertices are measured first and decide the
    value when it clears ``SCAN_GUARD``; otherwise every subset's is (see
    :func:`_widest_first`).
    """
    return _separation(*_widest_first([_span_job(vertices, n, plane)])[0], plane)


# ---------------------------------------------------------------------------
# stage machinery


def _depth_pairs(space: SampledSpace, radii: list[float]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(inner, outer) ball indices of the pairs whose inner ball has the last radius,
    one tuple per block of inner points.

    The (inner, outer depth, outer) mask is built for blocks of inner points,
    each of at most ``_CHUNK_FLOATS`` entries or one inner point, and read
    out in that order.
    """
    k, p = len(radii) - 1, space.size
    gaps = np.subtract(radii[:k], radii[k])[:, None]
    step = max(1, _CHUNK_FLOATS // (k * p))
    parts = []
    for start in range(0, p, step):
        i, outer_depth, j = np.nonzero(space.dist[start : start + step, None, :] < gaps)
        parts.append((k * p + start + i, outer_depth * p + j))
    return parts


def pair_schedule(space: SampledSpace, T: int) -> tuple[list[Ball], list[tuple[int, int]], int]:
    """Balls, first T strict-inclusion pairs, and the depth that sufficed.

    Ball q lies strictly inside ball m when d(c_q, c_m) < r_m - r_q, the
    float comparison :func:`strictly_included` makes. Ball k*p + i (centre
    i, radius R_k halving with k) can only lie inside a ball k'*p + j with
    k' < k, so a boolean mask per depth k, indexed (i, k', j) and built in
    blocks of i (:func:`_depth_pairs`), holds the pairs of its inner balls,
    and ``nonzero`` reads them out by inner, then outer index; the blocks of
    every depth are concatenated once. A deeper list extends a shallower
    one, so the t-th pair does not depend on the depth. Equal ball indices
    in the list are one int object.

    The depth is the least whose list holds T pairs (1 when T <= 0), the
    balls are its :func:`enumerate_balls` list and the pairs the first T of
    that list, sliced as a list is for negative T.
    """
    blocks, depth, count = [], 0, 0
    while not depth or count < T:
        depth += 1
        parts = _depth_pairs(space, _ball_radii(space, depth))
        blocks += parts
        count += sum(len(inner) for inner, _ in parts)
    balls = enumerate_balls(space, depth)
    # one int object per ball index, where tolist() would make one per entry
    ids = np.arange(len(balls), dtype=object)
    inner, outer = (np.concatenate(a)[:T] for a in zip(*blocks))
    return balls, list(zip(ids[inner], ids[outer])), depth


def _lattice_cells(f: np.ndarray, radius: float, m: int) -> np.ndarray:
    """Integer cells of the grid {0..m}^d near the rows of f, sorted.

    The union of the rows' boxes from :func:`~dimlab.covers._grid_boxes`, as
    a (cells, d) integer array in lexicographic row order; grid point c sits
    at c / m. Boxes are listed in blocks of ``_CHUNK_FLOATS`` cell coordinates.

    When (m+1)^d < 2^62 a cell is the one int64 key sum c_i (m+1)^(d-1-i),
    whose order is the cells' row order: the keys are sorted, equal
    neighbours dropped and the rest decoded. Larger grids take the stable
    lexsort of the rows, :func:`~dimlab.covers._first_rows`.
    """
    f = np.asarray(f, dtype=float)
    d = f.shape[1]
    blocks = (c for _, c in _box_cells(*_grid_boxes(f, radius, m), max(1, _CHUNK_FLOATS // d)))
    base = m + 1
    if base**d >= 2**62:
        cells = np.concatenate([np.zeros((0, d), dtype=np.int64), *blocks])
        return cells[_first_rows(cells)]
    weights = base ** np.arange(d - 1, -1, -1, dtype=np.int64)
    keys = np.sort(np.concatenate([np.zeros(0, dtype=np.int64)] + [c @ weights for c in blocks]))
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0
    cells = np.empty((len(keys), d), dtype=np.int64)
    for axis in range(d - 1, -1, -1):
        keys, cells[:, axis] = np.divmod(keys, base)
    return cells


def _grid_values(f: np.ndarray, cells: np.ndarray, m: int, delta: float) -> np.ndarray:
    """max(0, (delta - |f - c / m|) / delta) of image rows f at grid cells c.

    The lattice cover's one float expression: f and cells broadcast against
    each other and the norm runs over the last axis, whatever the other axes.
    """
    return np.maximum(0.0, (delta - np.linalg.norm(f - cells / m, axis=-1)) / delta)


def _walked_members(f: np.ndarray, delta: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(cell, member) pairs of the walk of every lattice cell near the rows of f.

    The cells are measured in blocks of about 2^20 floats; within a block only
    the first cell of each nonempty support is kept, so a support may repeat
    across blocks. Cells come in lexicographic order.
    """
    p, d = f.shape
    cells = _lattice_cells(f, delta, m)
    block = max(1, _CHUNK_FLOATS // (p * d))
    kept, members = [np.zeros((0, d), dtype=np.int64)], [np.zeros((0, p))]
    for start in range(0, len(cells), block):
        part = cells[start : start + block]
        vals = _grid_values(f[None], part[:, None], m, delta)
        packed = np.packbits(vals > 0.0, axis=1)
        first = np.sort(_first_rows(packed))
        first = first[packed[first].any(axis=1)]
        kept.append(part[first])
        members.append(np.minimum(1.0, vals[first]))
    return np.concatenate(kept), np.concatenate(members)


def _first_cells(f: np.ndarray, delta: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's lexicographically first box cell with a positive grid value.

    One axis at a time: the least c_i whose prefix passes when the later
    axes take their float-nearest box cells. Returns the mask of rows that
    have such a cell, their cells and their member values.
    """
    lo, hi = _grid_boxes(f, delta, m)
    rows = np.arange(len(f))
    # choices[r, i] lists the cells of row r's box on axis i, padded past hi
    choices = lo[:, :, None] + np.arange(int((hi - lo).max(initial=0)) + 1)
    inside = choices <= hi[:, :, None]
    diff = f[:, :, None] - choices / m
    cell = lo + np.where(inside, diff * diff, np.inf).argmin(axis=2)
    found = (lo <= hi).all(axis=1)
    for axis in range(f.shape[1]):
        trial = np.repeat(cell[:, None], choices.shape[2], axis=1)
        trial[:, :, axis] = choices[:, axis]
        vals = _grid_values(f[:, None], trial, m, delta)
        passes = (vals > 0.0) & inside[:, axis]
        found &= passes.any(axis=1)
        pick = passes.argmax(axis=1)
        cell[:, axis] = choices[rows, axis, pick]
    return found, cell[found], np.minimum(1.0, vals[rows, pick][found])


def _isolated(f: np.ndarray, delta: float, m: int) -> np.ndarray:
    """Rows whose float distance to every other row exceeds 2 delta + d s 2^-40.

    s = 1 + delta + max |f|. No row is isolated unless m d s <= 2^48, the
    premise of :func:`ball_preimage_cover`'s argument. Distances are taken
    in blocks of about 2^20 floats.
    """
    p, d = f.shape
    scale = 1.0 + delta + np.abs(f).max(initial=0.0)
    alone = np.zeros(p, dtype=bool)
    if not m * d * scale <= 2.0**48:
        return alone
    rows = max(1, _CHUNK_FLOATS // (p * d))
    for start in range(0, p, rows):
        gap = np.linalg.norm(f[start : start + rows, None] - f[None], axis=2)
        np.fill_diagonal(gap[:, start:], np.inf)
        alone[start : start + rows] = gap.min(axis=1) > 2.0 * delta + d * scale * 2.0**-40
    return alone


def ball_preimage_cover(space: SampledSpace, f: np.ndarray, delta: float) -> Cover:
    """Cover of the sample by preimages of delta-balls around grid points.

    The grid is the uniform lattice with m+1 points per axis where
    m = ceil(sqrt(d)/delta), so its spacing is at most delta/sqrt(d) and
    every image point has a lattice point within delta/2. Each image row's
    box (:func:`~dimlab.covers._grid_boxes`, at most (2 sqrt(d) + 3)^d cells)
    holds its lattice points within delta. The members are the cozero ramps
    max(0, (delta - |f(x) - g|)/delta) of the box cells, taken in
    lexicographic cell order and deduplicated by support (the first cell of
    each support is kept): the walk of every cell, one by one.

    The images come in two groups, and each gives the walk's members:

    - Crowded rows, those within 2 delta + margin of another row, are walked
      (:func:`_walked_members`): one broadcast norm per block of cells, one
      packed-support pass per block for its first cell of each support.
    - An isolated row x has the single support {x}; its member comes from
      the first cell of its box that passes the float test
      |f(x) - c/m| < delta, found by :func:`_first_cells` one axis at a time
      for all isolated rows at once, with no cell list.

    Members of both groups are merged in cell order. Why this gives the
    walk's bytes, with s = 1 + delta + max |f| and u = 2^-53, when
    m d s <= 2^48 (otherwise every row is walked, non-finite images too):

    (a) Same float test. Every test runs :func:`_grid_values`, the walk's
        expression, reduced over the last axis as in the walk. Each rounded
        operation in it is monotone in each per-axis square, so some
        completion of a prefix passes exactly when the completion by the
        least square on every later axis of the box does; the greedy search
        therefore finds the lexicographically first passing cell of the box.
    (b) The box holds every candidate. A cell outside an image's box is, on
        some axis, farther than delta + (1 - 3 u s m)/m from it (the box
        edges carry the rounding of (f -+ delta) m). Every float distance
        here is within 16 d u s <= 1/(2m) of the real one: no such cell
        passes for that image.
    (c) No shared cells. The margin d s 2^-40 exceeds three such errors, so
        a cell that passes for an isolated image is more than delta from
        every other image, in floats too. Each cell's support is thus one
        isolated image or a set of crowded ones, and by (b) the crowded
        rows' boxes hold every cell of the latter: the walk over the crowded
        rows alone finds the same supports at the same first cells.

    A sample point that no member covers, or a cover with no member at all,
    raises the walk's :class:`CertificateError`; on a miss with delta below
    the spacing of floats at max |f|, the message names that float floor.
    """
    f = np.asarray(f, dtype=float)
    p, d = f.shape
    m = _grid_steps(d, delta)
    alone = _isolated(f, delta, m)
    crowded, lone = np.flatnonzero(~alone), np.flatnonzero(alone)
    cells, members = np.zeros((0, d), dtype=np.int64), np.zeros((0, p))
    if len(crowded):
        cells, vals = _walked_members(f[crowded], delta, m)
        members = np.zeros((len(cells), p))
        members[:, crowded] = vals
    if len(lone):
        found, lone_cells, vals = _first_cells(f[lone], delta, m)
        rows = np.zeros((len(lone_cells), p))
        rows[np.arange(len(lone_cells)), lone[found]] = vals
        cells, members = np.concatenate([cells, lone_cells]), np.concatenate([members, rows])
    if not len(members):
        raise CertificateError("no grid ball meets the image; grid construction failed")
    cover = dedupe_by_support(Cover(members[np.lexsort(cells.T[::-1])]))
    bad = cover.uncovered_point()
    if bad is not None:
        msg = f"grid-ball preimages miss sample point {bad}"
        ulp = float(np.spacing(np.abs(f).max()))
        if delta < ulp:
            msg += f": delta {delta:.2g} is below the float resolution of the map (ulp {ulp:.2g})"
        raise CertificateError(msg)
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
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
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


def stage_to_json_dict(st: StageState) -> dict:
    return {
        "t": st.t,
        "delta": st.delta,
        "f": st.f.tolist(),
        "pair_code": list(st.pair_code),
        "hyperplane": st.hyperplane.to_json_dict(),
        "cover_u": st.cover_u.to_json_dict(),
        "vertices": st.vertices.tolist(),
        "anchors": st.anchors.tolist(),
        "eta": _null_if_inf(st.eta),
        "eta_prime": st.eta_prime,
        "f_next": st.f_next.tolist(),
        "delta_next": st.delta_next,
        "contraction": st.contraction,
    }


def _pair_code(value) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2 or any(type(v) is not int for v in value):
        raise ValueError(f"pair_code must be two integers, got {value!r}")
    return value[0], value[1]


_STAGE_KEYS = frozenset({"t", "delta", "f", "pair_code", "hyperplane", "cover_u", "vertices",
                         "anchors", "eta", "eta_prime", "f_next", "delta_next", "contraction"})
_AVOIDED_KEYS = frozenset({"hyperplane", "eta_prime", "distance_margin", "equation_margin"})
_RESULT_KEYS = frozenset({"n", "seed", "delta0", "radii_depth", "f", "stages", "avoided",
                          "injectivity_margin"})


def stage_from_json_dict(doc: dict, sample_size: int) -> StageState:
    _only_keys(doc, _STAGE_KEYS, "not a stage document")
    try:
        return StageState(
            t=_int(doc["t"], "t"),
            delta=_float(doc["delta"], "delta"),
            f=_json_array(doc["f"], "f"),
            pair_code=_pair_code(doc["pair_code"]),
            hyperplane=Hyperplane.from_json_dict(doc["hyperplane"]),
            cover_u=Cover.from_json_dict(doc["cover_u"], sample_size),
            vertices=_json_array(doc["vertices"], "vertices"),
            anchors=_json_array(doc["anchors"], "anchors"),
            eta=_float_or_null(doc["eta"], "eta", math.inf),
            eta_prime=_float(doc["eta_prime"], "eta_prime"),
            f_next=_json_array(doc["f_next"], "f_next"),
            delta_next=_float(doc["delta_next"], "delta_next"),
            contraction=_float(doc["contraction"], "contraction"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"not a stage document: {exc}") from exc


def result_to_json_dict(r: EmbeddingResult) -> dict:
    return {
        "n": r.n,
        "seed": r.seed,
        "delta0": r.delta0,
        "radii_depth": r.radii_depth,
        "f": r.f.tolist(),
        "stages": [stage_to_json_dict(st) for st in r.stages],
        "avoided": [
            {
                "hyperplane": av.hyperplane.to_json_dict(),
                "eta_prime": av.eta_prime,
                "distance_margin": av.distance_margin,
                "equation_margin": av.equation_margin,
            }
            for av in r.avoided
        ],
        "injectivity_margin": _null_if_inf(r.injectivity_margin),
    }


def _avoided_from_json_dict(doc: dict) -> AvoidedHyperplane:
    _only_keys(doc, _AVOIDED_KEYS, "not an avoided-plane document")
    try:
        return AvoidedHyperplane(
            Hyperplane.from_json_dict(doc["hyperplane"]),
            _float(doc["eta_prime"], "eta_prime"),
            _float(doc["distance_margin"], "distance_margin"),
            _float(doc["equation_margin"], "equation_margin"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"not an avoided-plane document: {exc}") from exc


def _read_entries(docs: list, what: str, read, *args) -> tuple:
    """``read(doc, *args)`` for each entry, an InputError named "{what} {i}: ..."."""
    out = []
    for i, doc in enumerate(docs):
        try:
            out.append(read(doc, *args))
        except InputError as exc:
            raise InputError(f"{what} {i}: {exc}") from exc
    return tuple(out)


def result_from_json_dict(doc: dict) -> EmbeddingResult:
    _only_keys(doc, _RESULT_KEYS, "not a result document")
    try:
        f = _json_array(doc["f"], "f")
        stages = _read_entries(doc["stages"], "stage", stage_from_json_dict, f.shape[0])
        avoided = _read_entries(doc["avoided"], "avoided", _avoided_from_json_dict)
        return EmbeddingResult(
            n=_int(doc["n"], "n"),
            seed=_int(doc["seed"], "seed"),
            delta0=_float(doc["delta0"], "delta0"),
            radii_depth=_int(doc["radii_depth"], "radii_depth"),
            f=f,
            stages=stages,
            avoided=avoided,
            injectivity_margin=_float_or_null(doc["injectivity_margin"], "injectivity_margin", None),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"not a result document: {exc}") from exc


def result_to_json_bytes(r: EmbeddingResult) -> bytes:
    return _write_json(result_to_json_dict(r))


def result_from_json_bytes(data: bytes) -> EmbeddingResult:
    return result_from_json_dict(_read_json(data, "not a result document"))
