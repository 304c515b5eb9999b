"""Nerve complexes of covers.

The nerve has a vertex per cover member and a face per index set whose
members share a sample point, so its dimension is the order of the cover.
A complex is kept as its facets (maximal faces), so it is downward closed
by construction; the full face list is enumerated only for export and import.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .covers import Cover
from .errors import InputError
from .metric import _reject_json_constant


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Abstract simplicial complex on vertices 0..vertex_count-1.

    ``facets`` generates the complex: the constructor takes any nonempty
    faces and keeps the maximal ones.
    """

    vertex_count: int
    facets: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise InputError("vertex count must be nonnegative")
        faces = {frozenset(s) for s in self.facets}
        for s in faces:
            if not s:
                raise InputError("the empty face is not stored")
            if min(s) < 0 or max(s) >= self.vertex_count:
                raise InputError(f"face {sorted(s)} uses vertices outside range")
        # sizes descend: a face is maximal unless a larger facet contains it
        facets: list[frozenset[int]] = []
        for size in sorted({len(s) for s in faces}, reverse=True):
            larger = tuple(facets)
            facets += [s for s in faces if len(s) == size and not any(s < f for f in larger)]
        object.__setattr__(self, "facets", frozenset(facets))

    @property
    def dim(self) -> int:
        """Dimension: largest facet size minus one; -1 when empty."""
        return max((len(f) for f in self.facets), default=0) - 1

    def has_face(self, indices) -> bool:
        face = frozenset(indices)
        return bool(face) and any(face <= f for f in self.facets)

    def sorted_faces(self) -> list[list[int]]:
        """Every nonempty face, sorted by (size, lexicographic)."""
        facets = [sorted(f) for f in self.facets]
        faces: list[list[int]] = []
        for r in range(1, self.dim + 2):  # per size, the union of the facets' r-subsets
            faces += map(list, sorted(set().union(*(combinations(f, r) for f in facets))))
        return faces

    @property
    def simplices(self) -> frozenset[frozenset[int]]:
        """Every nonempty face, as enumerated by :meth:`sorted_faces`."""
        return frozenset(frozenset(s) for s in self.sorted_faces())


def nerve_of(cover: Cover) -> SimplicialComplex:
    """Nerve of a cover: a face per index set with a common sample point.

    A set of indices shares a point iff it sits inside some point's set of
    active members, so those active sets generate the nerve.
    """
    if cover.size == 0:
        raise InputError("nerve of an empty family is not defined")
    active = {frozenset(np.flatnonzero(col).tolist()) for col in cover.supports().T}
    return SimplicialComplex(cover.size, frozenset(active - {frozenset()}))


def export_complex(complex: SimplicialComplex) -> bytes:
    """Serialize to canonical JSON bytes; identical input, identical bytes.

    Faces are sorted by (size, lexicographic).
    """
    doc = {"vertices": complex.vertex_count, "simplices": complex.sorted_faces()}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def import_complex(data: bytes) -> SimplicialComplex:
    """Parse a complex document; its faces may repeat but must be downward closed.

    The document holds exactly the keys ``vertices`` and ``simplices``; any
    other key, such as coordinates, is an :class:`InputError`.
    """
    try:
        doc = json.loads(data.decode("utf-8"), parse_constant=_reject_json_constant)
        extra = sorted(set(doc) - {"vertices", "simplices"}) if isinstance(doc, dict) else []
        if extra:
            raise ValueError(f"unknown keys {extra}; a complex holds vertices and simplices")
        count, faces = doc["vertices"], frozenset(map(frozenset, doc["simplices"]))
        if type(count) is not int or any(type(v) is not int for s in faces for v in s):
            raise TypeError("the vertex count and every face vertex must be integers")
    except (UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"not a complex document: {exc}") from exc
    out = SimplicialComplex(count, faces)
    if faces != out.simplices:
        raise InputError("complex document's faces are not downward closed")
    return out
