"""Nerve complexes: construction, dimension, canonical JSON export."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlab import Cover, InputError, export_complex, nerve_of, order_of
from dimlab.nerve import SimplicialComplex
from conftest import has_face, import_complex, random_value_cover, square_space

UNKNOWN_COORDS = ("not a complex document: unknown keys ['coords']; "
                  "a complex holds vertices and simplices")


def cover_of(matrix) -> Cover:
    return Cover.from_matrix(np.asarray(matrix, dtype=float))


class TestSimplicialComplex:
    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(InputError):
            SimplicialComplex(
                vertex_count=1,
                facets=frozenset({frozenset({0}), frozenset({1})}),
            )

    @pytest.mark.parametrize("count", [True, 2.0, np.int64(2), -1],
                             ids=["bool", "float", "int64", "negative"])
    def test_rejects_vertex_count_other_than_a_nonnegative_int(self, count):
        # json.dumps wrote a bool count as true and refused an int64 one
        message = f"^vertex count must be a nonnegative integer, got {re.escape(repr(count))}$"
        with pytest.raises(InputError, match=message):
            SimplicialComplex(vertex_count=count, facets=frozenset({frozenset({0})}))

    def test_rejects_empty_face(self):
        with pytest.raises(InputError):
            SimplicialComplex(vertex_count=1, facets=frozenset({frozenset()}))

    def test_dim_and_faces(self):
        k = SimplicialComplex(
            vertex_count=3,
            facets=frozenset(
                {
                    frozenset({0}),
                    frozenset({1}),
                    frozenset({2}),
                    frozenset({0, 1}),
                }
            ),
        )
        assert k.facets == {frozenset({0, 1}), frozenset({2})}
        assert k.dim == 1
        assert has_face(k, [0, 1])
        assert has_face(k, [1])
        assert not has_face(k, [1, 2])
        assert not has_face(k, [])
        assert k.sorted_faces() == [[0], [1], [2], [0, 1]]

    def test_generating_faces_close_downward(self):
        k = SimplicialComplex(vertex_count=4, facets=[[0, 1, 2], [2, 3], [1, 2]])
        assert k.facets == {frozenset({0, 1, 2}), frozenset({2, 3})}
        assert k.dim == 2
        assert k.sorted_faces() == [
            [0], [1], [2], [3], [0, 1], [0, 2], [1, 2], [2, 3], [0, 1, 2]
        ]
        assert k.simplices == {frozenset(f) for f in k.sorted_faces()}


class TestNerveOf:
    def test_two_overlapping_members(self):
        c = cover_of([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        k = nerve_of(c)
        assert k.vertex_count == 2
        assert k.sorted_faces() == [[0], [1], [0, 1]]
        assert k.dim == 1

    def test_disjoint_members_give_zero_dim(self):
        c = cover_of([[1.0, 0.0], [0.0, 1.0]])
        k = nerve_of(c)
        assert k.sorted_faces() == [[0], [1]]
        assert k.dim == 0

    def test_triple_overlap(self):
        c = cover_of([[1.0, 1.0], [1.0, 0.5], [0.5, 1.0]])
        k = nerve_of(c)
        # point 0 and point 1 both meet all three members
        assert has_face(k, [0, 1, 2])
        assert k.dim == 2

    def test_empty_member_is_isolated(self):
        c = cover_of([[1.0, 1.0], [0.0, 0.0]])
        k = nerve_of(c)
        # an empty member contributes no simplex at all, including its vertex
        assert k.vertex_count == 2
        assert k.sorted_faces() == [[0]]

    def test_facets_are_the_maximal_active_sets(self):
        # points 0 and 1 meet {0, 1}, point 2 meets {0, 1, 2}, point 3 only {2}
        c = cover_of([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        assert nerve_of(c).facets == {frozenset({0, 1, 2})}


class TestExportImport:
    def test_edge_complex_bytes(self):
        c = cover_of([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        data = export_complex(nerve_of(c))
        assert data == b'{"vertices":2,"simplices":[[0],[1],[0,1]]}'

    def test_empty_complex_bytes(self):
        k = SimplicialComplex(vertex_count=0, facets=frozenset())
        assert k.dim == -1
        assert export_complex(k) == b'{"vertices":0,"simplices":[]}'

    def test_round_trip(self):
        c = cover_of([[1.0, 1.0], [1.0, 0.5], [0.5, 1.0]])
        k = nerve_of(c)
        back = import_complex(export_complex(k))
        assert back.vertex_count == k.vertex_count
        assert back.facets == k.facets
        assert back.simplices == k.simplices

    def test_import_rejects_coords_key(self):
        # a complex carries no coordinates, so a document that has some is
        # refused rather than read without them
        doc = b'{"vertices":2,"simplices":[[0],[1]],"coords":[["0.0"],["1.0"]]}'
        with pytest.raises(InputError, match=f"^{re.escape(UNKNOWN_COORDS)}$"):
            import_complex(doc)

    def test_import_rejects_garbage(self):
        with pytest.raises(InputError):
            import_complex(b"not json")
        with pytest.raises(InputError):
            import_complex(b'{"vertices":1}')

    @pytest.mark.parametrize(
        "data",
        [
            b"5",
            b"[]",
            b'{"vertices":"x","simplices":[]}',
            b'{"vertices":true,"simplices":[]}',
            b'{"vertices":2,"simplices":5}',
            b'{"vertices":2,"simplices":[5]}',
            b'{"vertices":2,"simplices":[["a"]]}',
            b'{"vertices":2,"simplices":[[0.0]]}',
            b'{"vertices":2,"simplices":[[0]],"coords":[["x"]]}',
            b'{"vertices":2,"simplices":[[0],[1]],"coords":[[0.0],[1.0,2.0]]}',
            b'{"vertices":2,"simplices":[[]]}',
            b'{"vertices":1,"simplices":[[0],[1]]}',
        ],
        ids=[
            "number", "list", "vertices-str", "vertices-bool", "simplices-number",
            "face-number", "vertex-str", "vertex-float", "coord-str", "coords-ragged",
            "empty-face", "vertex-out-of-range",
        ],
    )
    def test_import_rejects_malformed(self, data):
        with pytest.raises(InputError):
            import_complex(data)

    @pytest.mark.parametrize(
        "coords, message",
        [(b'[[NaN, 0.5]]', "non-finite number NaN in JSON input"),
         (b'[[0.5, -Infinity]]', "non-finite number -Infinity in JSON input"),
         (b'[["nan", 0.5]]', UNKNOWN_COORDS),
         (b'[[0.5, "inf"]]', UNKNOWN_COORDS)],
        ids=["nan-literal", "infinity-literal", "nan-string", "inf-string"],
    )
    def test_import_rejects_non_finite_coordinates(self, coords, message):
        # the JSON constants are refused while parsing, before the key check
        data = b'{"vertices":1,"simplices":[[0]],"coords":' + coords + b"}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            import_complex(data)

    @pytest.mark.parametrize(
        "faces",
        [[[0, 1]], [[0], [0, 1]], [[0], [1], [2], [0, 1, 2]]],
        ids=["edge-without-vertices", "edge-missing-a-vertex", "triangle-without-edges"],
    )
    def test_import_rejects_faces_not_downward_closed(self, faces):
        data = json.dumps({"vertices": 3, "simplices": faces}).encode()
        with pytest.raises(InputError, match="not downward closed"):
            import_complex(data)

    def test_import_accepts_repeated_and_unsorted_faces(self):
        data = b'{"vertices":2,"simplices":[[1],[0],[1,0],[0],[0,1]]}'
        k = import_complex(data)
        assert k.facets == {frozenset({0, 1})}
        assert export_complex(k) == b'{"vertices":2,"simplices":[[0],[1],[0,1]]}'


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_nerve_dim_equals_cover_order(seed):
    rng = np.random.default_rng(seed)
    s = square_space(rng, 10)
    c = random_value_cover(s, int(rng.integers(1, 6)), rng)
    assert nerve_of(c).dim == order_of(c)
