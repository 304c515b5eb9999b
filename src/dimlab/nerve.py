"""Nerve complexes of covers.

The nerve has a vertex per cover member and a face per index set whose
members share a sample point, so its dimension is the order of the cover.
A complex is kept as its facets (maximal faces), so it is downward closed
by construction; the full face list is enumerated only for export.

A face is enumerated as an integer bit mask with vertex v at bit V-1-v of a
V-vertex complex, so that among faces of one size the lexicographic order
of the vertex lists is descending mask order. Every nonempty submask of
every facet goes into one set, and the set is bucketed by bit count and
each bucket sorted descending. The export writes the canonical JSON itself,
each face's text joined from the texts of its 16-vertex blocks, spelled
once per block value and call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covers import Cover, _first_rows
from .errors import InputError

_BLOCK = 16  # vertices per block of a face mask; a block's text is spelled once per call


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

    def _face_masks(self) -> list[list[int]]:
        """Every nonempty face as a mask; list r-1 holds size r in lexicographic order."""
        top = self.vertex_count - 1
        faces: set[int] = set()
        for f in self.facets:
            full = sum(1 << (top - int(v)) for v in f)
            sub = full
            while sub:
                faces.add(sub)
                sub = (sub - 1) & full
        sizes: list[list[int]] = [[] for _ in range(self.dim + 1)]
        for face in faces:
            sizes[face.bit_count() - 1].append(face)
        for faces_of_size in sizes:
            faces_of_size.sort(reverse=True)
        return sizes

    def _spelled(self, spell, empty):
        """Each face, sorted by (size, lexicographic), as ``empty`` plus the
        ``spell(first, chunk)`` of each nonempty block in vertex order.

        The block of vertices first..first+15 is the 16-bit ``chunk`` whose
        bit 15-i is vertex first+i; each distinct block is spelled once.
        """
        pad = -self.vertex_count % _BLOCK
        width = self.vertex_count + pad
        blocks = [(width - _BLOCK - first, first, {}) for first in range(0, width, _BLOCK)]
        low = (1 << _BLOCK) - 1
        out = []
        for faces in self._face_masks():
            for face in faces:
                face <<= pad
                spelled = empty
                for shift, first, cache in blocks:
                    chunk = face >> shift & low
                    if chunk:
                        piece = cache.get(chunk)
                        if piece is None:
                            piece = cache[chunk] = spell(first, chunk)
                        spelled += piece
                out.append(spelled)
        return out

    def sorted_faces(self) -> list[list[int]]:
        """Every nonempty face, sorted by (size, lexicographic)."""
        return list(map(list, self._spelled(_block_vertices, ())))

    @property
    def simplices(self) -> frozenset[frozenset[int]]:
        """Every nonempty face, as enumerated by :meth:`sorted_faces`."""
        return frozenset(frozenset(s) for s in self.sorted_faces())


def _block_vertices(first: int, chunk: int) -> tuple[int, ...]:
    vertices = []
    while chunk:  # highest bit first: vertices ascend
        top = chunk.bit_length()
        vertices.append(first + _BLOCK - top)
        chunk ^= 1 << (top - 1)
    return tuple(vertices)


def _block_text(first: int, chunk: int) -> str:
    # every vertex with its leading comma; the face's first comma is dropped
    vertices = _block_vertices(first, chunk)
    return ",%d" * len(vertices) % vertices


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
    texts = complex._spelled(_block_text, "")
    # a text is ",v0,v1,...", so "[," occurs only where a face starts
    faces = ("[" + "],[".join(texts) + "]").replace("[,", "[") if texts else ""
    return f'{{"vertices":{complex.vertex_count},"simplices":[{faces}]}}'.encode()
