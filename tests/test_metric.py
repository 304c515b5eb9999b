"""Metric layer: spaces, balls, cozero vectors, ball enumeration."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlab import Ball, Cover, InputError, SampledSpace, ball_cozero, complement_cozero, pair_schedule
from dimlab.metric import enumerate_balls, strictly_included
from dimlab import metric
from conftest import line_space, space_json_dict, square_space


class TestSampledSpace:
    def test_from_points_distances(self):
        s = SampledSpace.from_points([[0.0], [3.0], [7.0]], mesh=4.0)
        assert s.size == 3
        assert s.dist[0, 1] == 3.0
        assert s.dist[1, 2] == 4.0
        assert s.dist[0, 2] == 7.0
        assert s.diameter == 7.0

    def test_rejects_duplicate_points(self):
        with pytest.raises(InputError):
            SampledSpace.from_points([[0.0], [0.0]], mesh=1.0)

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(InputError):
            SampledSpace.from_distance_matrix([[0.0, 1.0], [2.0, 0.0]], mesh=1.0)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0], ids=["zero", "negative-zero", "negative"])
    def test_nonpositive_distance_names_first_pair(self, bad):
        # two bad pairs, (1, 3) and (2, 3); row-major order names (1, 3)
        d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
        for i, j in ((1, 3), (2, 3)):
            d[i, j] = d[j, i] = bad
        message = r"distinct points must have positive distance \(points 1, 3\)"
        with pytest.raises(InputError, match=message):
            SampledSpace.from_distance_matrix(d, mesh=1.0)

    def test_positivity_check_skips_the_diagonal(self):
        # a -0.0 diagonal is exactly zero, so no diagonal entry is a bad pair
        d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
        np.fill_diagonal(d, -0.0)
        assert SampledSpace.from_distance_matrix(d, mesh=1.0).size == 4
        d[2, 3] = d[3, 2] = 0.0
        with pytest.raises(InputError, match=r"\(points 2, 3\)"):
            SampledSpace.from_distance_matrix(d, mesh=1.0)

    def test_rejects_triangle_violation(self):
        bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        with pytest.raises(InputError):
            SampledSpace.from_distance_matrix(bad, mesh=1.0)

    def test_triangle_violation_past_first_block(self, monkeypatch):
        # five points on a line, except d(2, 4) = 5 > d(2, 3) + d(3, 4) = 2;
        # two rows per block, so the violation sits in the second block
        d = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
        d[2, 4] = d[4, 2] = 5.0
        message = "triangle inequality violated at points 2, 4"
        with pytest.raises(InputError, match=message):
            SampledSpace.from_distance_matrix(d, mesh=1.0)
        monkeypatch.setattr(metric, "_TRIANGLE_FLOATS", 2 * d.size)
        with pytest.raises(InputError, match=message):
            SampledSpace.from_distance_matrix(d, mesh=1.0)

    def test_rejects_nonpositive_mesh(self):
        with pytest.raises(InputError):
            SampledSpace.from_points([[0.0], [1.0]], mesh=0.0)

    @pytest.mark.parametrize(
        "points",
        [[[0.0], [1.0, 2.0]], [["a"], ["b"]], [[{"x": 1.0}], [[2.0]]]],
        ids=["ragged", "strings", "objects"],
    )
    def test_malformed_points_are_input_errors(self, points):
        with pytest.raises(InputError, match="points must be a rectangular array of numbers"):
            SampledSpace.from_points(points, mesh=1.0)

    @pytest.mark.parametrize(
        "matrix",
        [[[0, 1], [1]], [[0, "x"], ["x", 0]], [[0, None], [{}, 0]]],
        ids=["ragged", "strings", "objects"],
    )
    def test_malformed_matrix_is_input_error(self, matrix):
        message = "distance matrix must be a rectangular array of numbers"
        with pytest.raises(InputError, match=message):
            SampledSpace.from_distance_matrix(matrix, mesh=1.0)
        with pytest.raises(InputError, match=message):
            SampledSpace.from_json_dict({"points": None, "distance_matrix": matrix, "mesh": 0.5})
        with pytest.raises(InputError, match=message):
            SampledSpace(dist=matrix, coords=None, mesh=1.0)

    def test_malformed_coordinates_are_input_error(self):
        with pytest.raises(InputError, match="coordinates must be a rectangular array"):
            SampledSpace(dist=[[0.0, 1.0], [1.0, 0.0]], coords=[[0.0], [1.0, 0.0]], mesh=1.0)

    @pytest.mark.parametrize("mesh", [True, "0.5", None, [0.5], float("inf"), -1])
    def test_rejects_mesh_that_is_not_a_positive_real(self, mesh):
        with pytest.raises(InputError, match="mesh must be a positive real"):
            SampledSpace.from_points([[0.0], [1.0]], mesh=mesh)

    @pytest.mark.parametrize("mesh", [1, 0.5, np.float64(0.5)])
    def test_accepts_int_and_float_mesh(self, mesh):
        s = SampledSpace.from_points([[0.0], [1.0]], mesh=mesh)
        assert type(s.mesh) is float and s.mesh == mesh

    def test_json_round_trip_points(self):
        s = line_space(4)
        doc = space_json_dict(s)
        back = SampledSpace.from_json_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(back.dist, s.dist)
        assert np.array_equal(back.coords, s.coords)
        assert back.mesh == s.mesh

    def test_json_round_trip_matrix(self):
        s = SampledSpace.from_distance_matrix([[0.0, 2.0], [2.0, 0.0]], mesh=2.0)
        back = SampledSpace.from_json_dict(space_json_dict(s))
        assert np.array_equal(back.dist, s.dist)
        assert back.coords is None

    def test_json_requires_exactly_one_source(self):
        with pytest.raises(InputError):
            SampledSpace.from_json_dict({"mesh": 1.0})
        with pytest.raises(InputError):
            SampledSpace.from_json_dict(
                {"points": [[0.0]], "distance_matrix": [[0.0]], "mesh": 1.0}
            )

    @pytest.mark.parametrize("doc, message", [
        ({"points": [[0.0]], "distance_matrix": None, "mesh": 1.0, "mesh_typo": 1},
         "not a space document: unknown keys ['mesh_typo']"),
        ([[0.0]], "not a space document: expected a JSON object, got list"),
    ], ids=["unknown-key", "not-an-object"])
    def test_json_refuses_unknown_keys(self, doc, message):
        with pytest.raises(InputError) as info:
            SampledSpace.from_json_dict(doc)
        assert str(info.value) == message

    def test_distances_from_vector_center(self):
        # a center is a point index; an ambient vector is not one
        s = line_space(3)  # points 0, 0.5, 1
        assert s.distances_from(1).tolist() == [0.5, 0.0, 0.5]
        with pytest.raises(InputError, match="unknown point identifier"):
            s.distances_from(np.array([0.25]))

    def test_readonly_arrays(self):
        s = line_space(3)
        with pytest.raises(ValueError):
            s.dist[0, 1] = 9.0


class TestBalls:
    def test_ball_requires_positive_radius(self):
        with pytest.raises(InputError):
            Ball(center=0, radius=0.0)

    @pytest.mark.parametrize("radius", [True, False, "1.0", None, 1.0 + 0.0j, np.array([1.0]), 10**400],
                             ids=["True", "False", "str", "none", "complex", "array", "huge-int"])
    def test_ball_rejects_bool_radius(self, radius):
        # bool subclasses int, but is no radius, as it is no centre; nor is
        # anything that is not a real number of float range
        with pytest.raises(InputError, match="ball radius must be positive, got "):
            Ball(center=0, radius=radius)

    @pytest.mark.parametrize("radius", [np.float32(0.5), np.float64(0.5), np.int64(2), 3])
    def test_ball_accepts_real_radius(self, radius):
        assert Ball(center=0, radius=radius).radius is radius

    def test_ball_cozero_values(self):
        s = line_space(3)  # points 0, 0.5, 1
        u = ball_cozero(s, Ball(center=0, radius=0.6))
        # normalized ramp (r - d) / r, capped at 1 and floored at 0
        assert u == pytest.approx([1.0, 1.0 / 6.0, 0.0])
        assert np.flatnonzero(u > 0.0).tolist() == [0, 1]
        assert not u.flags.writeable

    def test_complement_cozero_values(self):
        s = line_space(3)
        v = complement_cozero(s, Ball(center=0, radius=0.4))
        # value is d(x, center) - radius on the strict outside
        assert v == pytest.approx([0.0, 0.1, 0.6])
        assert np.flatnonzero(v > 0.0).tolist() == [1, 2]
        assert not v.flags.writeable

    def test_cozero_rejects_negative_values(self):
        # a family of one open set is checked as a cover's values are
        with pytest.raises(InputError, match=r"out of \[0, 1\] at member 0, point 1"):
            Cover((np.array([0.5, -0.1]),))

    def test_sparse_dict_round_trip(self):
        # an open set's vector, zeros included, survives the sparse JSON form
        s = line_space(4)
        for u in (np.array([0.0, 0.25, 0.0, 1.0]), ball_cozero(s, Ball(center=0, radius=0.5))):
            back = Cover.from_json_dict(Cover((u,)).to_json_dict(), 4)
            assert np.array_equal(back.matrix[0], u)

    @pytest.mark.parametrize("center", [0.25, np.array([0.25]), np.array([0.0, 1.0]), True],
                             ids=["float", "array", "vector", "bool"])
    def test_ball_rejects_non_index_center(self, center):
        with pytest.raises(InputError, match="ball center must be a point index"):
            Ball(center=center, radius=1.0)

    @pytest.mark.parametrize("point", [True, False, 1.0, np.float64(1.0)],
                             ids=["true", "false", "float", "numpy-float"])
    def test_point_id_must_be_an_integer(self, point):
        s = line_space(3)
        with pytest.raises(InputError, match="unknown point identifier"):
            s.check_point(point)
        with pytest.raises(InputError, match="unknown point identifier"):
            s.distances_from(point)
        assert s.check_point(np.int64(1)) == 1

    def test_ball_accepts_numpy_index_center(self):
        b = Ball(center=np.int64(2), radius=1.0)
        assert b.center == 2 and type(b.center) is int

    def test_formal_inclusion_is_syntactic(self):
        s = line_space(3)
        # d(centers) = 0.5 < 1.0 - 0.4, read from the distance matrix
        assert strictly_included(Ball(1, 0.4), Ball(0, 1.0), s)
        # equality boundary: d = r_out - r_in exactly is not strict
        assert not strictly_included(Ball(1, 0.5), Ball(0, 1.0), s)
        with pytest.raises(InputError, match="unknown point identifier"):
            strictly_included(Ball(5, 0.4), Ball(0, 1.0), s)

    def test_formal_inclusion_implies_pointwise(self):
        s = line_space(9)
        balls = enumerate_balls(s, 3)
        for b_in in balls[::5]:
            for b_out in balls[::7]:
                if strictly_included(b_in, b_out, s):
                    inner = ball_cozero(s, b_in) > 0.0
                    outer = ball_cozero(s, b_out) > 0.0
                    assert not (inner & ~outer).any()


class TestEnumerateBalls:
    def test_dyadic_layout(self):
        s = line_space(4)  # diameter 1
        balls = enumerate_balls(s, 2)
        assert len(balls) == 3 * 4
        # index k * size + i is centered at i with radius diam / 2**k
        assert balls[0] == Ball(center=0, radius=1.0) or (
            balls[0].center == 0 and balls[0].radius == 1.0
        )
        assert balls[5].center == 1 and balls[5].radius == 0.5
        assert balls[11].center == 3 and balls[11].radius == 0.25

    def test_prefix_stability_under_depth(self):
        s = line_space(5)
        shallow = enumerate_balls(s, 2)
        deep = enumerate_balls(s, 4)
        assert len(deep) == 5 * 5
        for b1, b2 in zip(shallow, deep):
            assert b1.center == b2.center and b1.radius == b2.radius

    def test_one_point_space_uses_mesh(self):
        s = SampledSpace.from_points([[0.0, 0.0]], mesh=0.125)
        balls = enumerate_balls(s, 1)
        assert [b.radius for b in balls] == [0.125, 0.0625]

    def test_rejects_bad_depth(self):
        with pytest.raises(InputError):
            enumerate_balls(line_space(3), 0)

    def test_underflowing_radius_row_raises(self):
        # depth 1's radius 5e-324 / 2 rounds to 0.0, which is no radius
        s = SampledSpace.from_points([[0.0]], mesh=5e-324)
        with pytest.raises(InputError, match=r"^ball radius must be positive, got 0\.0$"):
            enumerate_balls(s, 1)

    def test_each_row_checks_its_radius_once(self, monkeypatch):
        # the 256-point sample of tests/test_golden.py: 512 balls, 2 rows
        checked = []
        check = metric._check_radius

        def counted(radius):
            checked.append(radius)
            check(radius)

        monkeypatch.setattr(metric, "_check_radius", counted)
        balls, _, depth = pair_schedule(square_space(np.random.default_rng(256), count=256), 64)
        assert len(balls) == 512 and len(checked) == depth + 1 == 2
        assert checked == [balls[0].radius, balls[256].radius]

    @pytest.mark.parametrize("depth", [True, 1.0, "1", np.int64(1)])
    def test_rejects_depth_that_is_not_an_int(self, depth):
        # a bool is not an integer here, as for the result's radii_depth
        with pytest.raises(InputError, match="radii_depth must be an integer >= 1"):
            enumerate_balls(line_space(3), depth)


@settings(max_examples=50, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=12),
    depth=st.integers(min_value=1, max_value=4),
)
def test_enumeration_count_and_positivity(k, depth):
    s = line_space(k)
    balls = enumerate_balls(s, depth)
    assert len(balls) == (depth + 1) * k
    assert all(b.radius > 0.0 for b in balls)
    assert {b.center for b in balls} == set(range(k))
    # a row's balls skip __post_init__, yet equal balls built one by one
    for index, b in enumerate(balls):
        one = Ball(center=index % k, radius=s.diameter * 2.0 ** -(index // k))
        assert repr(b) == repr(one) and type(b.center) is int
