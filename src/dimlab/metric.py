"""Finite samples of metric spaces and ball-shaped cozero vectors.

A :class:`SampledSpace` holds a finite point set together with its pairwise
distances, either computed from ambient coordinates or supplied directly as a
matrix. An open set over the sample is coded extensionally by a cozero
vector: a read-only float vector of values in [0, 1], one per sample point,
whose strict-positivity locus is the open set. Families of open sets are
(k, p) matrices of such vectors, checked by ``covers._cover_matrix``. Balls
come with two canonical cozero vectors, one for the ball itself and one for
the complement of its formal closure.

Points are identified by their index in the sample, and a ball is centred
at a sample point. JSON bytes are decoded only by ``_read_json`` and encoded
by ``_write_json`` (``nerve.export_complex`` spells the same canonical bytes
itself); a document's float fields and array leaves obey ``_is_number``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import InputError

# Metric validation tolerance for the triangle inequality. Distance
# comparisons elsewhere are exact on the computed float values.
DISTANCE_TOL = 1e-9

# Floats per broadcast block in the lattice cover, general position and the
# verifier's star check (8 MiB).
_CHUNK_FLOATS = 1 << 20
# Sums per block of the triangle check (512 KiB), a size that stays in a
# 2 MiB L2 cache: the check streams each block through add and min once.
_TRIANGLE_FLOATS = 1 << 16


def _float_array(value, what: str) -> np.ndarray:
    # ragged rows, non-numbers and ints past the float range make numpy raise
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be a rectangular array of numbers") from exc


def _reject_json_constant(name: str):
    # json.loads reads NaN and +-Infinity; no document written here holds them
    raise InputError(f"non-finite number {name} in JSON input")


def _read_json(data: bytes, what: str):
    """The JSON document in ``data``; bad UTF-8 or JSON is an InputError "{what}: ..."."""
    try:
        return json.loads(data.decode("utf-8"), parse_constant=_reject_json_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{what}: {exc}") from exc


def _write_json(doc) -> bytes:
    """The canonical bytes of a document: compact separators, finite numbers only."""
    return json.dumps(doc, separators=(",", ":"), allow_nan=False).encode("utf-8")


def _only_keys(doc, keys: frozenset[str], what: str) -> None:
    """Refuse a document that is no object or holds a key its reader does not
    read; a misspelt key would otherwise read as absent."""
    if not isinstance(doc, dict):
        raise InputError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    extra = sorted(set(doc) - keys)
    if extra:
        raise InputError(f"{what}: unknown keys {extra}")


def _int(value, name: str) -> int:
    # int() would take 1.5 or true as 1; booleans are not integers here
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _is_number(value) -> bool:
    return type(value) is int or isinstance(value, float)


def _float(value, name: str) -> float:
    # float() would take "1.0" or true; a number is an int or a float, not a bool,
    # and json reads a float past the float range, such as 1e309, as +-inf
    try:
        if _is_number(value) and not math.isinf(out := float(value)):
            return out
    except OverflowError:  # an int past the float range
        pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _json_array(value, what: str) -> np.ndarray:
    """A document array as floats; numpy would also read "0.5", true and null,
    and json reads a float past the float range, such as 1e309, as +-inf."""
    out = _float_array(value, what)
    # the array is rectangular, so its leaves lie out.ndim lists deep; their
    # types are gathered at C level, and each kind meets _is_number's rule once
    leaves = [value]
    for _ in range(out.ndim):
        leaves = chain.from_iterable(leaves)
    numbers = all(kind is int or issubclass(kind, float) for kind in set(map(type, leaves)))
    if not numbers or not np.isfinite(out).all():
        raise InputError(f"{what} must be a rectangular array of numbers")
    return out


def _null_if_inf(x: float | None) -> float | None:
    # +-inf has no JSON number; a field that can hold it, or None, travels as null
    return None if x is None or math.isinf(x) else x


def _float_or_null(value, name: str, null: float | None) -> float | None:
    """A field written by ``_null_if_inf``, with null read as ``null``."""
    return null if value is None else _float(value, name)


def _check_triangles(d: np.ndarray) -> None:
    """Raise on the first (i, k), row-major, with min_j d(i,j) + d(j,k) < d(i,k) - tol.

    ``d`` must already be known symmetric; see :class:`SampledSpace`.
    """
    p = d.shape[0]
    buf = np.empty(max(p * p, min(_TRIANGLE_FLOATS, p**3)))
    start = 0
    while start < p:
        cols = p - start
        rows = max(1, min(cols, _TRIANGLE_FLOATS // (p * cols)))
        block = d[start : start + rows]
        if rows == p:
            # the whole matrix in one block: sums[i, j, k] = d(i, j) + d(j, k),
            # reduced across the j rows, which is quicker for short rows
            sums = buf[: p**3].reshape(p, p, p)
            np.add(block[:, :, None], d[None, :, :], out=sums)
            mins = sums.min(axis=1)
        else:
            # sums[b, k, j] = d(start+b, j) + d(start+k, j), where d(start+k, j)
            # == d(j, start+k); j runs along the contiguous axis, so each min
            # stays one long reduction however few columns are left
            sums = buf[: rows * cols * p].reshape(rows, cols, p)
            np.add(block[:, None, :], d[None, start:, :], out=sums)
            mins = sums.min(axis=2)
        slack = mins - block[:, start:]
        if (slack < -DISTANCE_TOL).any():
            i, k = np.argwhere(slack < -DISTANCE_TOL)[0]
            raise InputError(f"triangle inequality violated at points {start + i}, {start + k}")
        start += rows


def _euclidean(c: np.ndarray) -> np.ndarray:
    """Distances between the rows of ``c``: ``diff*diff`` summed column by column
    into one (p, p) array, ``sqrt``, zero diagonal.

    For m <= 7 columns the sums have the bytes of numpy's ``sum(axis=-1)``
    over the (p, p, m) squares, which adds a short axis in column order.
    """
    acc = np.zeros((len(c), len(c)))
    diff = np.empty_like(acc)
    for col in c.T:
        np.subtract(col[:, None], col[None, :], out=diff)
        diff *= diff
        acc += diff
    np.sqrt(acc, out=acc)
    np.fill_diagonal(acc, 0.0)
    return acc


def _witness_bound(m: int, top: float, rho: float) -> float:
    """The rounding bound of :class:`SampledSpace` for m columns, largest distance
    ``top`` and residual ``rho``; the check is certified when it is below ``DISTANCE_TOL``."""
    return (m + 4) * 2.0**-50 * (top + rho) + 4.0 * rho + 1e-100


def _gram_witness(d: np.ndarray) -> np.ndarray | None:
    """Coordinates whose distances are meant to be ``d``, or None where no witness can help.

    A pivoted partial Cholesky of the anchor-0 Gram matrix G_ij = (d_0i^2 +
    d_0j^2 - d_ij^2) / 2 of ``d`` / D, D the largest distance: rows[k] is
    the k-th column of L, G ~ L L^T, and point i sits at row i of L times D
    (point 0 at the origin). Each step computes one column of G from one
    row of ``d`` and subtracts the earlier columns' part, O(p k). It stops
    when the largest residual diagonal entry is at most p u (rounding noise
    on entries of at most 1), and gives up when an entry falls below
    minus that: G, and so ``d``, is then not Euclidean. No entry can leave
    the float range, since a kept row has residual diagonal at least -p u,
    so its L entries are bounded by about 1. Nothing here decides a
    verdict: :func:`_rounding_certified` measures how far these coordinates'
    distances are from ``d``.
    """
    p, top = len(d), float(d.max())
    if p < 2 or not _witness_bound(1, top, 0.0) < DISTANCE_TOL:
        return None  # one point has no triangle; a wider witness only has a larger bound
    noise = p * 2.0**-53
    a = (d[0] / top) ** 2
    diag = a.copy()
    rows = np.empty((p - 1, p))
    k = 0
    while k < p - 1:
        pivot = int(diag.argmax())
        if diag[pivot] <= noise:
            break
        col = (a + a[pivot] - (d[pivot] / top) ** 2) / 2.0 - rows[:k, pivot] @ rows[:k]
        col /= math.sqrt(diag[pivot])
        diag -= col * col
        if diag.min() < -noise:
            return None
        rows[k] = col
        k += 1
    return rows[:k].T * top


def _rounding_certified(d: np.ndarray, c) -> bool:
    """Whether the triangle check on ``d`` cannot fail, by the residual of ``d``
    against the distances of the witness coordinates ``c`` (a (p, m) float
    array, or anything else, which certifies nothing); the bound is proved in
    :class:`SampledSpace`."""
    if not (isinstance(c, np.ndarray) and c.dtype == float and c.ndim == 2 and len(c) == len(d)):
        return False
    m, top = c.shape[1], float(d.max())
    if not _witness_bound(m, top, 0.0) < DISTANCE_TOL:
        return False
    with np.errstate(all="ignore"):  # any coordinates: an overflow makes rho inf or NaN
        res = _euclidean(c)
        np.subtract(d, res, out=res)
        np.abs(res, out=res)
        rho = float(np.nextafter(res.max(), math.inf))
    return _witness_bound(m, top, rho) < DISTANCE_TOL


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SampledSpace:
    """A finite metric sample with an explicit mesh (sampling fineness).

    Invariants, checked at construction: the distance matrix is symmetric,
    exactly zero on the diagonal, strictly positive off it, and satisfies the
    triangle inequality up to ``DISTANCE_TOL``; the sample is nonempty and
    ``mesh`` is a positive real (an ``int`` or a ``float``, not a ``bool``).

    The triangle check runs in row blocks of at most ``_TRIANGLE_FLOATS``
    (2^16) float sums, held in one reused 512 KiB buffer (one row of p^2
    sums when p^2 exceeds it), so a block stays in cache between its add
    and its min. Symmetry makes the slack of (i, k) equal that of (k, i)
    bit for bit, so a block starting at row s sums only the columns k >= s:
    about p^3/2 sums for p points once p^3 is well above
    ``_TRIANGLE_FLOATS``, and p^3 in the single block below it (p <= 40).
    The first violation in row-major order has k > i, so the pair it names
    is the one a full check names.

    Those sums run unless ``_rounding_certified`` shows that they cannot
    fail, from witness coordinates c: ``coords`` when given, and otherwise
    the Gram-matrix coordinates of ``_gram_witness``. How c was found does
    not matter. With m the columns of c, e = ``_euclidean(c)``, D the
    largest distance and ρ the computed max |d - e| raised to the next
    float, the test is (m + 4) 2^-50 (D + ρ) + 4ρ + 1e-100 <
    ``DISTANCE_TOL``. Proof, with u = 2^-53 and γ_n = nu / (1 - nu)
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3). A
    rounded difference lies within half an ulp of the exact one, so ρ >=
    |d - e| exactly; ρ is finite (or the test fails), and so is every e,
    so no step overflowed. The real distances δ of the rows of c satisfy
    the triangle inequality exactly. A difference has relative error at
    most u (one that underflows is exact), a square u plus 2^-1075, a sum
    of m non-negative terms in any order γ_{m-1}, the root u; so
    |e - δ| <= γ_{m+3} δ + τ, τ <= √m 2^-537, and |d - δ| <= γ_{m+3} δ +
    τ + ρ. The slack of (i, j, k) rounds x = fl(d_ij + d_jk) - d_ik >=
    (1 - u)(d_ij + d_jk) - d_ik >= -(2γ_{m+3} + u) δ_ik - 3τ - 3ρ, and
    δ_ik <= (e_ik + τ) / (1 - γ_{m+3}) <= (D + ρ + τ) / (1 - γ_{m+3}). An
    array in memory has m < 2^50, so (m + 3) u <= 1/4 and x >= -(4m + 14)
    u (D + ρ) - 3ρ - 4τ, where 4τ < 2^-509. The test's terms, 8 (m + 4) u
    (D + ρ), 4ρ and 1e-100, exceed those by more than its own four
    roundings, so x > -``DISTANCE_TOL``. Rounding is monotone and
    -``DISTANCE_TOL`` is a float, so no slack falls below it. So a
    certified matrix is one the sums pass, and every other one meets the
    sums, with the same first pair and message.
    """

    dist: np.ndarray
    coords: np.ndarray | None
    mesh: float

    def __post_init__(self) -> None:
        d = _float_array(self.dist, "distance matrix")
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] == 0:
            raise InputError("distance matrix must be square and nonempty")
        if not np.isfinite(d).all():
            raise InputError("distances must be finite")
        if (d.diagonal() != 0.0).any():
            i = int(np.nonzero(d.diagonal())[0][0])
            raise InputError(f"distance matrix diagonal must be exactly zero (point {i})")
        if not (d == d.T).all():
            i, j = np.argwhere(d != d.T)[0]
            raise InputError(f"distance matrix must be symmetric (points {i}, {j})")
        off = d + np.eye(d.shape[0])
        if (off <= 0.0).any():
            i, j = np.argwhere(off <= 0.0)[0]
            raise InputError(f"distinct points must have positive distance (points {i}, {j})")
        if not _rounding_certified(d, _gram_witness(d) if self.coords is None else self.coords):
            _check_triangles(d)
        mesh = self.mesh
        if not (_is_number(mesh) and math.isfinite(mesh) and mesh > 0):
            raise InputError("mesh must be a positive real")
        object.__setattr__(self, "dist", _as_readonly(d))
        if self.coords is not None:
            c = _float_array(self.coords, "coordinates")
            if c.ndim != 2 or c.shape[0] != d.shape[0]:
                raise InputError("coordinates must be one row per sample point")
            object.__setattr__(self, "coords", _as_readonly(c))
        object.__setattr__(self, "mesh", float(self.mesh))

    @classmethod
    def from_points(cls, points: Sequence[Sequence[float]], mesh: float) -> "SampledSpace":
        c = _float_array(points, "points")
        if c.ndim != 2 or c.shape[0] == 0:
            raise InputError("points must be a nonempty list of coordinate rows")
        return cls(dist=_euclidean(c), coords=c, mesh=mesh)

    @classmethod
    def from_distance_matrix(cls, dist: Sequence[Sequence[float]], mesh: float) -> "SampledSpace":
        return cls(dist=_float_array(dist, "distance matrix"), coords=None, mesh=mesh)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SampledSpace":
        _only_keys(obj, frozenset({"points", "distance_matrix", "mesh"}), "not a space document")
        points = obj.get("points")
        matrix = obj.get("distance_matrix")
        if (points is None) == (matrix is None):
            raise InputError("exactly one of points/distance_matrix must be present")
        if "mesh" not in obj:
            raise InputError("space document must carry a mesh")
        mesh = obj["mesh"]
        if points is not None:
            return cls.from_points(_json_array(points, "points"), mesh)
        return cls.from_distance_matrix(_json_array(matrix, "distance matrix"), mesh)

    @property
    def size(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def check_point(self, i: int) -> int:
        # bool subclasses int, but is no point index (nor a Ball centre)
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < self.size:
            raise InputError(f"unknown point identifier: {i!r}")
        return int(i)

    def distances_from(self, center: int) -> np.ndarray:
        """Distances from every sample point to the point ``center``."""
        return self.dist[self.check_point(center)]


@dataclass(frozen=True, eq=False)
class Ball:
    """An open metric ball, given by a center point index and a positive radius."""

    center: int
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InputError(f"ball radius must be positive, got {self.radius!r}")
        if isinstance(self.center, bool) or not isinstance(self.center, (int, np.integer)):
            raise InputError(f"ball center must be a point index, got {self.center!r}")
        object.__setattr__(self, "center", int(self.center))


def ball_cozero(space: SampledSpace, ball: Ball) -> np.ndarray:
    """Normalized linear ramp vanishing exactly where the ball does.

    u(x) = min(1, max(0, (r - d(x, c)) / r)); u(x) > 0 iff d(x, c) < r.
    """
    d = space.distances_from(ball.center)
    return _as_readonly(np.minimum(1.0, np.maximum(0.0, (ball.radius - d) / ball.radius)))


def complement_cozero(space: SampledSpace, ball: Ball) -> np.ndarray:
    """Cozero vector of the complement of the ball's formal closure.

    u(x) = min(1, max(0, d(x, c) - r)); u(x) > 0 iff d(x, c) > r.
    """
    d = space.distances_from(ball.center)
    return _as_readonly(np.minimum(1.0, np.maximum(0.0, d - ball.radius)))


def strictly_included(b1: Ball, b2: Ball, space: SampledSpace) -> bool:
    """Strict center-distance test d(c1, c2) < r2 - r1.

    Strict inclusion puts the formal closure of ``b1`` inside the open ball
    ``b2``, which is what the two-member separating covers need.
    """
    d = space.dist[space.check_point(b1.center), space.check_point(b2.center)]
    return float(d) < b2.radius - b1.radius


def _ball_radii(space: SampledSpace, radii_depth: int) -> list[float]:
    """Radius of each depth 0..radii_depth of :func:`enumerate_balls`."""
    if not (type(radii_depth) is int and radii_depth >= 1):
        raise InputError("radii_depth must be an integer >= 1")
    base = space.diameter if space.diameter > 0 else space.mesh
    return [base * 2.0 ** (-k) for k in range(radii_depth + 1)]


def enumerate_balls(space: SampledSpace, radii_depth: int) -> list[Ball]:
    """Deterministic ball enumeration: dyadic radii, then point index.

    Radii are diameter * 2**(-k) for 0 <= k <= radii_depth, so the list has
    size (radii_depth + 1) * size and the ball with index k * size + i is
    centered at point i. A one-point sample has diameter zero; its radii fall
    back to the mesh so that every ball stays a genuine ball.
    """
    radii = _ball_radii(space, radii_depth)
    return [Ball(center=i, radius=r) for r in radii for i in range(space.size)]
