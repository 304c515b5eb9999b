"""Nerve complexes of covers.

The nerve has a vertex per cover member and a face per index set whose
members share a sample point, so its dimension is the order of the cover.
A complex is kept as its facets (maximal faces), so it is downward closed
by construction; the full face list is enumerated only for export.

A face is enumerated as text: each vertex spelled once as a mark for its
digit count followed by its digits, and a face the join of its vertices'
spellings. Per size, every facet's subsets of that size come out of
``itertools.combinations`` as one sorted run of texts; one sort merges the
runs and ``dict.fromkeys`` drops repeats, so no Python code runs per face.
The export joins the texts and turns each mark into a comma, which spells
the canonical JSON without building a list per face.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .covers import Cover, _first_rows
from .errors import InputError


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Abstract simplicial complex on vertices 0..vertex_count-1.

    ``facets`` generates the complex: the constructor takes any nonempty
    faces and keeps the maximal ones.
    """

    vertex_count: int
    facets: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        # the export prints the count as it is, so it must be an int (not a bool)
        if type(self.vertex_count) is not int or self.vertex_count < 0:
            count = self.vertex_count
            raise InputError(f"vertex count must be a nonnegative integer, got {count!r}")
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

    def _faces_text(self, sep: str) -> str:
        """Every nonempty face, sorted by (size, lexicographic), joined by ``sep``;
        a face reads ",v0,v1,..."."""
        spelled = {v: _marked(v) for f in self.facets for v in f}
        facets = [[spelled[v] for v in sorted(f)] for f in self.facets]
        texts: list[str] = []
        for r in range(1, self.dim + 2):
            faces: list[str] = []
            for pieces in facets:  # each facet gives one sorted run
                faces += map("".join, combinations(pieces, r))
            faces.sort()
            texts += dict.fromkeys(faces)
        text = sep.join(texts)
        for mark in {piece[0] for piece in spelled.values()}:
            text = text.replace(mark, ",")
        return text

    def sorted_faces(self) -> list[list[int]]:
        """Every nonempty face, sorted by (size, lexicographic)."""
        text = self._faces_text("]")
        return [list(map(int, face[1:].split(","))) for face in text.split("]")] if text else []

    @property
    def simplices(self) -> frozenset[frozenset[int]]:
        """Every nonempty face, as enumerated by :meth:`sorted_faces`."""
        return frozenset(frozenset(s) for s in self.sorted_faces())


def _marked(v: int) -> str:
    """Vertex v as a mark for its digit count, then its digits.

    Marks ascend with the count, so among faces of one size the string order
    of the joined texts is the lexicographic order of the vertex lists. A
    mark is a control character, or past 31 digits a private-use one, so it
    is none of the digits, brackets and commas it is replaced among.
    """
    digits = str(v)
    width = len(digits)
    return chr(width if width < 32 else 0xE000 + width) + digits


def nerve_of(cover: Cover) -> SimplicialComplex:
    """Nerve of a cover: a face per index set with a common sample point.

    A set of indices shares a point iff it sits inside some point's set of
    active members, so those active sets generate the nerve. Points with
    the same active set are read once.
    """
    if cover.size == 0:
        raise InputError("nerve of an empty family is not defined")
    sup = cover.supports()
    distinct = sup[:, _first_rows(np.packbits(sup, axis=0).T)]
    columns, members = np.nonzero(distinct.T)
    active: list[list[int]] = [[] for _ in range(distinct.shape[1])]
    for column, member in zip(columns.tolist(), members.tolist()):
        active[column].append(member)
    return SimplicialComplex(cover.size, frozenset(frozenset(a) for a in active if a))


def export_complex(complex: SimplicialComplex) -> bytes:
    """Serialize to canonical JSON bytes; identical input, identical bytes.

    Faces are sorted by (size, lexicographic). The bytes are those of
    ``json.dumps`` with separators ``(",", ":")``.
    """
    # a face is ",v0,v1,...", so "[," occurs only where a face starts
    faces = ("[" + complex._faces_text("],[") + "]").replace("[,", "[") if complex.facets else ""
    return f'{{"vertices":{complex.vertex_count},"simplices":[{faces}]}}'.encode()
