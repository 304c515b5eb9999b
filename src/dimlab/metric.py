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
    todo = [value]
    while todo:
        leaf = todo.pop()
        if type(leaf) is list:
            todo.extend(leaf)
        elif not _is_number(leaf):
            raise InputError(f"{what} must be a rectangular array of numbers")
    out = _float_array(value, what)
    if not np.isfinite(out).all():
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
        diff = c[:, None, :] - c[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1))
        np.fill_diagonal(d, 0.0)
        return cls(dist=d, coords=c, mesh=mesh)

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
