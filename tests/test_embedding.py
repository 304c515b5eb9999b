"""Hyperplane enumeration, general position, kappa maps, separation, stages."""

import json
import re
import tracemalloc
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest
from scipy.optimize import nnls

from dimlab import (
    CertificateError,
    Cover,
    GeneralPositionError,
    InputError,
    SampledSpace,
    nobeling_embed,
    pair_schedule,
    result_from_json_bytes,
    result_to_json_bytes,
)
from dimlab.embedding import (
    Hyperplane,
    ball_preimage_cover,
    embedding_stage,
    enumerate_hyperplanes,
    eta,
    eta_prime,
    general_position,
    initial_map,
    kappa_map,
    stern_brocot_rationals,
)
from dimlab.metric import enumerate_balls, strictly_included
from conftest import (
    active_members,
    grid_square_space,
    line_space,
    point_segment_distance,
    segment_distance,
)


class TestSternBrocot:
    def test_frozen_prefix(self):
        """Hand-derived mediant breadth-first order up to denominator 5.

        Levels: {0, 1}; 1/2; 1/3, 2/3; 1/4, 2/5, 3/5, 3/4; 1/5, 4/5 (the
        denominator bound prunes 2/7, 3/8, 3/7, 4/7, 5/8, 5/7 at level 4).
        """
        expected = [
            F(0), F(1), F(1, 2), F(1, 3), F(2, 3),
            F(1, 4), F(2, 5), F(3, 5), F(3, 4), F(1, 5), F(4, 5),
        ]
        assert stern_brocot_rationals(5) == expected

    def test_counts_match_totients(self):
        # number of reduced fractions in [0,1] with denominator <= q
        assert len(stern_brocot_rationals(1)) == 2
        assert len(stern_brocot_rationals(2)) == 3
        assert len(stern_brocot_rationals(4)) == 7
        assert len(stern_brocot_rationals(7)) == 19

    def test_prefix_stability(self):
        shallow = stern_brocot_rationals(6)
        deep = stern_brocot_rationals(9)
        assert [v for v in deep if v.denominator <= 6] == shallow

    def test_all_reduced_and_in_range(self):
        for v in stern_brocot_rationals(8):
            assert 0 <= v <= 1
            assert v.denominator <= 8


class TestHyperplane:
    def test_validation(self):
        with pytest.raises(InputError):
            Hyperplane((1, 0), (F(0), F(0)))  # unsorted
        with pytest.raises(InputError):
            Hyperplane((0, 3), (F(0), F(0)))  # index 3 outside ambient dim 3
        with pytest.raises(InputError):
            Hyperplane((0, 1), (F(2), F(0)))  # value outside [0,1]

    def test_geometry_frozen(self):
        h = Hyperplane((0, 1), (F(0), F(1, 2)))
        assert h.ambient_dim == 3
        assert h.free_coords == (2,)
        assert h.base_point().tolist() == [0.0, 0.5, 0.5]
        assert h.basis().tolist() == [[0.0, 0.0, 1.0]]
        x = np.array([0.3, 0.1, 0.9])
        assert h.distance_to_point(x) == pytest.approx(0.5)
        assert h.equation_violation(x) == pytest.approx(0.4)
        assert h.contains(np.array([0.0, 0.5, 0.77]))
        assert not h.contains(x)

    @pytest.mark.parametrize("x", [[0.3, 0.1], [[0.3, 0.1, 0.9, 0.2]] * 2], ids=["point", "rows"])
    def test_point_tests_refuse_other_dimensions(self, x):
        # the plane fixes coordinates 0 and 1 of I^3, which a point of
        # I^2 or I^4 also has: each would otherwise get a silent verdict
        h = Hyperplane((0, 1), (F(0), F(1, 2)))
        dim = np.shape(x)[-1]
        for test in (h.contains, h.distance_to_point, h.equation_violation):
            with pytest.raises(InputError, match=rf"^points have dimension {dim}, but the "
                                                 rf"hyperplane has ambient dimension 3$"):
                test(np.array(x))

    def test_json_round_trip(self):
        h = Hyperplane((0, 2), (F(2, 5), F(1)))
        assert Hyperplane.from_json_dict(h.to_json_dict()) == h

    def test_json_refuses_unknown_keys(self):
        # a misspelt key would otherwise read as absent
        doc = {"coords": [0, 1], "values": [[1, 2], [1, 3]], "cords": [2]}
        with pytest.raises(InputError, match=r"^not a hyperplane document: unknown keys \['cords'\]$"):
            Hyperplane.from_json_dict(doc)


class TestEnumerateHyperplanes:
    def test_n0_frozen_values(self):
        """Width-1 planes in the interval: values in height order."""
        got = [h.values[0] for h in enumerate_hyperplanes(0, 11)]
        assert got == [
            F(0), F(1), F(1, 2), F(1, 3), F(2, 3),
            F(1, 4), F(3, 4), F(2, 5), F(3, 5), F(1, 5), F(4, 5),
        ]
        assert all(h.coords == (0,) for h in enumerate_hyperplanes(0, 11))

    def test_n1_frozen_prefix(self):
        """Denominator 1 gives 4 value pairs per coordinate set.

        Coordinate sets in lexicographic order: (0,1), (0,2), (1,2); value
        pairs in rank-lex order: (0,0), (0,1), (1,0), (1,1). The 13th plane
        starts the denominator-2 block with the pair (0, 1/2).
        """
        hs = enumerate_hyperplanes(1, 17)
        assert (hs[0].coords, hs[0].values) == ((0, 1), (F(0), F(0)))
        assert (hs[1].coords, hs[1].values) == ((0, 1), (F(0), F(1)))
        assert (hs[2].coords, hs[2].values) == ((0, 1), (F(1), F(0)))
        assert (hs[3].coords, hs[3].values) == ((0, 1), (F(1), F(1)))
        assert (hs[4].coords, hs[4].values) == ((0, 2), (F(0), F(0)))
        assert (hs[8].coords, hs[8].values) == ((1, 2), (F(0), F(0)))
        assert (hs[12].coords, hs[12].values) == ((0, 1), (F(0), F(1, 2)))
        assert (hs[16].coords, hs[16].values) == ((0, 1), (F(1, 2), F(1, 2)))

    def test_distinct_and_prefix_stable(self):
        hs = enumerate_hyperplanes(1, 200)
        keys = [(h.coords, h.values) for h in hs]
        assert len(set(keys)) == 200
        assert [
            (h.coords, h.values) for h in enumerate_hyperplanes(1, 60)
        ] == keys[:60]

    def test_shapes(self):
        for h in enumerate_hyperplanes(2, 30):
            assert len(h.coords) == 3
            assert h.ambient_dim == 5

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_order_is_the_documented_sort(self, n):
        """Every plane with values of denominator <= 3, sorted by (largest denominator,
        coordinate set, value ranks), is the enumeration's prefix."""
        ranked = stern_brocot_rationals(3)
        rank = {v: i for i, v in enumerate(ranked)}
        want = sorted(
            ((coords, values) for coords in combinations(range(2 * n + 1), n + 1)
             for values in product(ranked, repeat=n + 1)),
            key=lambda p: (max(v.denominator for v in p[1]), p[0], [rank[v] for v in p[1]]))
        got = enumerate_hyperplanes(n, len(want))
        assert [(h.coords, h.values) for h in got] == want

    def test_memory_does_not_grow_with_coordinate_sets(self):
        # C(21, 11) = 352,716 coordinate sets at n = 10; the first four
        # planes need only the first of them
        tracemalloc.start()
        try:
            planes = enumerate_hyperplanes(10, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [h.coords for h in planes] == [tuple(range(11))] * 4
        assert peak < 1 << 20

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            enumerate_hyperplanes(1, 0)
        with pytest.raises(InputError):
            enumerate_hyperplanes(-1, 1)


class TestGeneralPosition:
    def test_already_generic_targets_unchanged(self):
        targets = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = general_position(targets, eps=0.1)
        assert np.array_equal(out, targets)

    def test_collinear_targets_move_within_eps(self):
        targets = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        out = general_position(targets, eps=0.01, seed=3)
        shifts = np.linalg.norm(out - targets, axis=1)
        assert (shifts < 0.01).all()
        # the three outputs are no longer collinear
        d = out[1:] - out[0]
        assert np.linalg.svd(d, compute_uv=False).min() > 1e-9

    def test_subset_independence_property(self, rng):
        for _ in range(10):
            k, d = int(rng.integers(3, 8)), int(rng.integers(2, 5))
            targets = rng.uniform(0.0, 1.0, size=(k, d))
            out = general_position(targets, eps=1e-2, seed=11)
            from itertools import combinations

            for size in range(2, min(k, d + 1) + 1):
                for sub in combinations(range(k), size):
                    diffs = out[list(sub[1:])] - out[sub[0]]
                    assert np.linalg.svd(diffs, compute_uv=False).min() > 1e-9

    def test_constraints_hold_exactly(self):
        plane = Hyperplane((0, 1), (F(1, 2), F(1, 2)))
        target = plane.base_point()
        out = general_position(
            np.array([target, [0.1, 0.9, 0.4]]),
            eps=0.05,
            constraints=[plane, None],
            seed=5,
        )
        assert plane.contains(out[0])

    def test_target_near_its_plane_lands_on_it(self):
        plane = Hyperplane((0, 1), (F(1, 2), F(1, 2)))
        near = [0.503, 0.498, 0.4]
        out = general_position(np.array([near]), eps=0.05, constraints=[plane])
        assert out.tolist() == [[0.5, 0.5, 0.4]]
        # both land on one point of the plane, so later rounds must perturb,
        # and only the free coordinate moves
        targets = np.array([near, [0.5, 0.5, 0.4]])
        out = general_position(targets, eps=0.05, constraints=[plane, plane], seed=5)
        assert out[:, :2].tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert out[0, 2] != out[1, 2]
        assert (np.linalg.norm(out - targets, axis=1) < 0.05).all()

    def test_rejects_plane_of_other_dimension(self):
        plane = Hyperplane((0, 1), (F(0), F(0)))
        with pytest.raises(InputError, match="disagree on dimension"):
            general_position(np.array([[0.0, 0.0]]), eps=0.01, constraints=[plane])

    def test_box_respected(self):
        targets = np.array([[0.0, 0.0], [0.0, 1.0], [1e-4, 0.5]])
        out = general_position(
            targets, eps=0.05, box=(np.zeros(2), np.ones(2)), seed=2
        )
        assert (out >= 0.0).all() and (out <= 1.0).all()

    def test_impossible_instance_raises(self):
        # three points pinned to a shared line can never be affinely free
        line = Hyperplane((0, 1), (F(0), F(0)))
        targets = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 1.0]])
        with pytest.raises(GeneralPositionError):
            general_position(targets, eps=0.05, constraints=[line] * 3, seed=1)

    def test_names_first_dependent_subset(self):
        # round 0 only: the coincident pair (0, 1) makes its maximal superset
        # (0, 1, 2), the first subset of size d+1 = 3, dependent
        targets = [[0.2, 0.2], [0.2, 0.2], [0.8, 0.6]]
        with pytest.raises(GeneralPositionError, match=r"last violating subset: \(0, 1, 2\)$"):
            general_position(targets, eps=0.1, rounds=1)

    def test_deterministic_under_seed(self):
        targets = np.array([[0.2, 0.2], [0.7, 0.2], [0.45, 0.2]])
        a = general_position(targets, eps=0.01, seed=(4, 2))
        b = general_position(targets, eps=0.01, seed=(4, 2))
        assert np.array_equal(a, b)

    def test_rejects_far_constraint(self):
        plane = Hyperplane((0, 1), (F(0), F(0)))
        # the target is nowhere near its constraint plane
        with pytest.raises(InputError, match="beyond eps"):
            general_position(
                np.array([[0.9, 0.9, 0.5]]),
                eps=0.01,
                constraints=[plane],
            )


class TestKappa:
    def test_frozen_two_member_cover(self):
        c = Cover.from_matrix(np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]]))
        z = np.array([[0.0, 0.0], [2.0, 2.0]])
        km = kappa_map(c, z)
        assert km.values.tolist() == [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
        assert km.weights.tolist() == [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]

    def test_weights_sum_and_support(self, rng):
        from conftest import random_value_cover, square_space

        for _ in range(20):
            s = square_space(rng, 10)
            c = random_value_cover(s, int(rng.integers(2, 6)), rng)
            z = rng.uniform(0.0, 1.0, size=(c.size, 3))
            km = kappa_map(c, z)
            assert np.abs(km.weights.sum(axis=1) - 1.0).max() <= 1e-12
            assert (km.weights >= 0.0).all()
            for x in range(s.size):
                assert np.flatnonzero(km.weights[x] > 0.0).tolist() == active_members(c, x)

    def test_values_in_convex_hull_feasibility(self, rng):
        """Independent hull check: nonnegative least squares on [z; 1]."""
        from conftest import random_value_cover, square_space

        for _ in range(10):
            s = square_space(rng, 8)
            c = random_value_cover(s, int(rng.integers(2, 5)), rng)
            z = rng.uniform(0.0, 1.0, size=(c.size, 3))
            km = kappa_map(c, z)
            a = np.vstack([z.T, np.ones(c.size)])
            for x in range(s.size):
                target = np.append(km.values[x], 1.0)
                _, resid = nnls(a, target)
                assert resid < 1e-8

    def test_uncovered_point_rejected(self):
        c = Cover.from_matrix(np.array([[1.0, 0.0]]))
        with pytest.raises(InputError, match="point 1"):
            kappa_map(c, np.array([[0.5]]))


class TestEta:
    def test_n0_is_min_pairwise_distance(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert eta(z, 0) == pytest.approx(1.0)

    def test_n1_matches_segment_oracle(self, rng):
        """Affine spans of <= 2 points are lines; compare against the
        clamped segment formula extended to full lines via large extension."""
        for _ in range(8):
            z = rng.uniform(0.0, 1.0, size=(5, 3))
            try:
                got = eta(z, 1)
            except GeneralPositionError:
                continue
            # oracle: min over disjoint pairs of line-line distances,
            # computed by extending segments far past the unit cube
            from itertools import combinations

            best = np.inf
            idx = range(5)
            subsets = [s for k in (1, 2) for s in combinations(idx, k)]
            for sa in subsets:
                for sb in subsets:
                    if set(sa) & set(sb):
                        continue
                    pa = z[list(sa)]
                    pb = z[list(sb)]
                    ea = _extend(pa)
                    eb = _extend(pb)
                    best = min(best, segment_distance(ea[0], ea[1], eb[0], eb[1]))
            assert got == pytest.approx(best, rel=1e-6, abs=1e-9)

    def test_single_vertex_is_infinite(self):
        assert eta(np.array([[0.5, 0.5, 0.5]]), 1) == np.inf

    def test_coincident_vertices_raise(self):
        z = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(GeneralPositionError):
            eta(z, 0)


def _extend(points: np.ndarray, reach: float = 500.0) -> np.ndarray:
    """Two far-apart points on the affine span of one or two points."""
    if len(points) == 1:
        return np.vstack([points[0], points[0]])
    direction = points[1] - points[0]
    return np.vstack([points[0] - reach * direction, points[0] + reach * direction])


class TestEtaPrime:
    def test_point_distances_to_plane(self):
        h = Hyperplane((0, 1), (F(0), F(0)))
        z = np.array([[0.3, 0.4, 0.9]])
        assert eta_prime(z, h, 1) == pytest.approx(0.5)

    def test_matches_projection_oracle(self, rng):
        """Distance to the plane lives in the fixed-coordinate projection:
        project vertices to the fixed axes and measure to the value point."""
        h = Hyperplane((1, 2), (F(1, 3), F(2, 3)))
        target = np.array([1.0 / 3.0, 2.0 / 3.0])
        for _ in range(8):
            z = rng.uniform(0.0, 1.0, size=(4, 3))
            try:
                got = eta_prime(z, h, 1)
            except GeneralPositionError:
                continue
            from itertools import combinations

            proj = z[:, [1, 2]]
            best = np.inf
            for k in (1, 2):
                for sa in combinations(range(4), k):
                    pa = _extend(proj[list(sa)])
                    best = min(best, point_segment_distance(target, pa[0], pa[1]))
            assert got == pytest.approx(best, rel=1e-6, abs=1e-9)

    def test_vertex_on_plane_raises(self):
        h = Hyperplane((0, 1), (F(1, 2), F(1, 2)))
        z = np.array([[0.5, 0.5, 0.1], [0.9, 0.9, 0.9]])
        with pytest.raises(GeneralPositionError):
            eta_prime(z, h, 1)


def inclusion_count(space, depth):
    """Number of strict-inclusion pairs among ``enumerate_balls(space, depth)``."""
    balls = enumerate_balls(space, depth)
    return sum(strictly_included(q, m, space) for q in balls for m in balls)


class TestStagePairs:
    def test_frozen_four_point_line(self):
        """Hand check: depth-1 balls on 4 points of [0,1] (diameter 1).

        Balls 0..3 have radius 1, balls 4..7 radius 1/2, centered at points
        0..3 in order. Strict inclusion of ball q in ball m needs
        d(centers) < r_m - r_q, so only (small, large) pairs with centers
        closer than 1/2 qualify, in production order of the small ball.
        """
        s = line_space(4)
        got = pair_schedule(s, 10)[1]
        assert pair_schedule(s, 11)[2] == 2
        assert got == [
            (4, 0), (4, 1),
            (5, 0), (5, 1), (5, 2),
            (6, 1), (6, 2), (6, 3),
            (7, 2), (7, 3),
        ]

    def test_prefix_stable_in_depth(self):
        s = line_space(5)
        shallow = pair_schedule(s, inclusion_count(s, 1))[1]
        balls, deep, depth = pair_schedule(s, inclusion_count(s, 3))
        assert depth == 3
        assert deep[: len(shallow)] == shallow

    def test_pairs_are_strict_inclusions(self):
        s = line_space(6)
        balls, pairs, depth = pair_schedule(s, inclusion_count(s, 2))
        assert depth == 2
        for q, m in pairs:
            assert strictly_included(balls[q], balls[m], s)

    def test_pair_schedule_reaches_demand(self):
        s = line_space(4)
        balls, pairs, depth = pair_schedule(s, 25)
        assert len(pairs) == 25
        assert len(balls) == (depth + 1) * 4


class TestBallPreimageCover:
    def test_covers_and_bounds_member_diameter(self):
        s = line_space(5)
        f = initial_map(s, 1)
        delta = 0.25
        c = ball_preimage_cover(s, f, delta)
        assert c.uncovered_point() is None
        for row in c.supports():
            sup = np.flatnonzero(row)
            for i in sup:
                for j in sup:
                    assert np.linalg.norm(f[i] - f[j]) < 2.0 * delta

    def test_values_normalized(self):
        s = line_space(5)
        c = ball_preimage_cover(s, initial_map(s, 1), 0.3)
        assert (c.matrix <= 1.0).all() and (c.matrix >= 0.0).all()


class TestInitialMap:
    def test_line_coordinates_frozen(self):
        s = line_space(3)
        f = initial_map(s, 1)
        assert f.tolist() == [
            [0.0, 0.5, 0.5],
            [0.5, 0.5, 0.5],
            [1.0, 0.5, 0.5],
        ]

    def test_distance_only_input_lands_in_cube(self):
        d = np.array(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        )
        s = SampledSpace.from_distance_matrix(d, mesh=1.0)
        f = initial_map(s, 1)
        assert f.shape == (3, 3)
        assert (f >= 0.0).all() and (f <= 1.0).all()

    def test_distance_input_deterministic(self):
        d = np.array(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        )
        s = SampledSpace.from_distance_matrix(d, mesh=1.0)
        assert np.array_equal(initial_map(s, 1), initial_map(s, 1))


class TestEmbeddingStage:
    def test_single_stage_on_line(self):
        s = line_space(8)
        balls, pairs, _ = pair_schedule(s, 1)
        plane = enumerate_hyperplanes(1, 1)[0]
        out = embedding_stage(0, initial_map(s, 1), 0.25, s, balls, 1, pairs[0], plane)
        assert out.pair_code == pairs[0]
        assert out.hyperplane == enumerate_hyperplanes(1, 1)[0]
        assert out.contraction < 3 * out.delta
        assert out.delta_next <= out.delta / 3.0
        assert out.f_next.shape == (8, 3)
        # vertices sit within delta of the image of their member's least point
        for i, row in enumerate(out.cover_u.supports()):
            x = np.flatnonzero(row).min()
            assert np.linalg.norm(out.vertices[i] - out.f[x]) < out.delta

    def test_rejects_map_outside_cube(self):
        s = line_space(4)
        balls, pairs, _ = pair_schedule(s, 1)
        f = initial_map(s, 1).copy()
        f[0, 0] = 1.5
        with pytest.raises(CertificateError, match="cube"):
            embedding_stage(0, f, 0.25, s, balls, 1, pairs[0], enumerate_hyperplanes(1, 1)[0])

    def test_rejects_pair_whose_cover_misses_a_point(self):
        s = line_space(8)
        balls, pairs, _ = pair_schedule(s, 1)
        plane = enumerate_hyperplanes(1, 1)[0]
        with pytest.raises(CertificateError, match="stage 0: ball pair cover misses point"):
            embedding_stage(0, initial_map(s, 1), 0.25, s, balls, 1, pairs[0][::-1], plane)

    def test_rejects_wrong_width(self):
        s = line_space(4)
        balls, pairs, _ = pair_schedule(s, 1)
        with pytest.raises(InputError, match="dimension"):
            embedding_stage(
                0, np.full((4, 2), 0.5), 0.25, s, balls, 1, pairs[0], enumerate_hyperplanes(1, 1)[0]
            )


class TestNobelingEmbed:
    def test_line_run_certificates(self):
        s = line_space(8)
        r = nobeling_embed(s, n=1, T=4, seed=0)
        assert len(r.stages) == 4
        assert r.injectivity_margin is not None and r.injectivity_margin > 0.0
        # chain: stage t+1 starts where stage t ended
        for a, b in zip(r.stages, r.stages[1:]):
            assert np.array_equal(a.f_next, b.f)
            assert a.delta_next == b.delta
        assert np.array_equal(r.stages[-1].f_next, r.f)
        # the margin is the least pairwise distance of final images
        diff = r.f[:, None, :] - r.f[None, :, :]
        dists = np.sqrt((diff**2).sum(axis=-1))
        iu = np.triu_indices(8, k=1)
        assert r.injectivity_margin == pytest.approx(dists[iu].min())
        # every handled plane keeps the promised clearance
        for av in r.avoided:
            min_dist = min(av.hyperplane.distance_to_point(row) for row in r.f)
            assert av.distance_margin == pytest.approx(min_dist)
            assert av.distance_margin > av.eta_prime / 2.0

    def test_single_point_space(self):
        s = SampledSpace.from_points([[0.25]], mesh=0.5)
        r = nobeling_embed(s, n=1, T=2, seed=0)
        assert r.injectivity_margin is None
        assert len(r.stages) == 2

    def test_square_grid_example(self):
        # 12-point planar sample, no dimension reduction claimed: n = 2
        s = grid_square_space(4, 3)
        r = nobeling_embed(s, n=2, T=3, seed=0)
        assert r.f.shape == (12, 5)
        assert r.injectivity_margin > 0.0

    def test_close_points_can_merge_honestly(self):
        """A sample with two nearly coincident points makes the stage-0
        cover lump them into one member, which the final check reports."""
        pts = np.array([[0.0, 0.0], [1e-4, 0.0], [1.0, 1.0]])
        s = SampledSpace.from_points(pts, mesh=1.5)
        with pytest.raises(CertificateError, match="merges sample points"):
            nobeling_embed(s, n=1, T=2, seed=0)

    def test_float_floor_is_named(self):
        """Past T=27 the stage scale drops below the spacing of floats near
        1/2, no grid cell passes for point 4, and the message says why. A
        scale below that spacing alone does not fail: stage 26 passes."""
        last = nobeling_embed(line_space(8), n=1, T=27, seed=0).stages[-1]
        assert last.delta < np.spacing(np.abs(last.f).max())
        with pytest.raises(CertificateError, match=(
            r"^grid-ball preimages miss sample point 4: delta 2\.7e-17 is below "
            r"the float resolution of the map \(ulp 1\.1e-16\)$"
        )):
            nobeling_embed(line_space(8), n=1, T=28, seed=0)

    def test_rejects_bad_arguments(self):
        s = line_space(4)
        with pytest.raises(InputError):
            nobeling_embed(s, n=1, T=0, seed=0)
        with pytest.raises(InputError):
            nobeling_embed(s, n=-1, T=1, seed=0)

    @pytest.mark.parametrize("value", [True, np.int64(1), 1.0], ids=["bool", "int64", "float"])
    @pytest.mark.parametrize("name", ["n", "T", "seed"])
    def test_rejects_integer_arguments_of_other_types(self, name, value):
        """A bool or numpy integer would be written to the result, which the
        reader then refuses or the writer cannot encode; no stage runs."""

        def oracle(space, pairs):
            raise AssertionError("a stage ran")

        args = {"n": 1, "T": 1, "seed": 0, name: value}
        with pytest.raises(InputError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            nobeling_embed(line_space(4), oracle=oracle, **args)


class TestResultSerialization:
    def test_bytes_round_trip_identity(self):
        s = line_space(8)
        r = nobeling_embed(s, n=1, T=2, seed=0)
        data = result_to_json_bytes(r)
        back = result_from_json_bytes(data)
        assert result_to_json_bytes(back) == data

    def test_infinite_eta_becomes_null(self):
        s = SampledSpace.from_points([[0.25]], mesh=0.5)
        r = nobeling_embed(s, n=1, T=2, seed=0)
        assert r.stages[0].eta == np.inf
        data = result_to_json_bytes(r)
        assert b'"eta":null' in data
        back = result_from_json_bytes(data)
        assert back.stages[0].eta == np.inf
        assert back.injectivity_margin is None

    def test_rejects_stage_missing_a_field(self):
        s = line_space(8)
        doc = json.loads(result_to_json_bytes(nobeling_embed(s, n=1, T=2, seed=0)))
        del doc["stages"][1]["pair_code"]
        with pytest.raises(InputError, match="not a stage document: 'pair_code'"):
            result_from_json_bytes(json.dumps(doc).encode("utf-8"))

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            result_from_json_bytes(b"[1, 2, 3]")
        with pytest.raises(InputError):
            result_from_json_bytes(b"{nope")
