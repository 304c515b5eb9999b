"""Separation witnesses, shrinking to empty intersection, order reduction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlab import Cover, InputError, order_of, reduce_order, separator_oracle
from dimlab.dimension import (
    DisjointPairFamily,
    InessentialWitness,
    inessential_witness_from_map,
    map_oracle,
    shrink_to_empty_intersection,
)
from conftest import (
    line_space,
    pair_family,
    random_ball_cover,
    random_value_cover,
    refines,
    square_space,
)


class TestDisjointPairFamily:
    def test_rejects_overlap(self):
        with pytest.raises(InputError, match="^pair 1 is not disjoint at point 1$"):
            pair_family([({0}, {2}), ({0, 1}, {1, 2})], 3)

    def test_accepts_empty_sides(self):
        fam = pair_family([(set(), {0})], 1)
        assert len(fam) == 1

    def test_masks_are_read_only_copies(self):
        a, b = np.array([[True, False]]), np.array([[False, True]])
        fam = DisjointPairFamily(a, b)
        a[0, 1] = True
        assert fam.a.tolist() == [[True, False]]
        assert not fam.a.flags.writeable and not fam.b.flags.writeable

    @pytest.mark.parametrize(
        "a, b",
        [(np.zeros((1, 3), bool), np.zeros((1, 4), bool)),
         (np.zeros((1, 3), bool), np.zeros((2, 3), bool)),
         (np.zeros(3, bool), np.zeros(3, bool)),
         (np.zeros((1, 3), int), np.zeros((1, 3), bool))],
        ids=["widths", "heights", "one-d", "not-boolean"],
    )
    def test_rejects_masks_of_other_shapes_or_types(self, a, b):
        with pytest.raises(InputError, match="two boolean arrays of one 2-d shape"):
            DisjointPairFamily(a, b)


class TestSeparatorOracle:
    def test_frozen_values_on_line(self):
        """Hand check on 3 points 0, 1/2, 1 with A = {0}, B = {2}.

        d(x, A) = [0, 1/2, 1], d(x, B) = [1, 1/2, 0]; point 1 is a tie and
        goes to U at the tolerance value. U values are min(1, dB - dA).
        """
        s = line_space(3)
        fam = pair_family([({0}, {2})], 3)
        w = separator_oracle(s, fam)
        assert w.u.shape == w.v.shape == (1, 3)
        assert w.u[0, 0] == 1.0
        assert w.u[0, 1] == pytest.approx(1e-9)
        assert w.u[0, 2] == 0.0
        assert w.v[0].tolist() == [0.0, 0.0, 1.0]
        assert not w.u.flags.writeable and not w.v.flags.writeable

    def test_empty_side_gives_whole_sample(self):
        s = line_space(3)
        fam = pair_family([(set(), {1})], 3)
        w = separator_oracle(s, fam)
        assert not (w.u[0] > 0.0).any()
        assert (w.v[0] > 0.0).all()

    def test_validates_for_many_pairs(self, rng):
        s = square_space(rng, 15)
        pairs = []
        for _ in range(3):
            pts = rng.permutation(15)
            pairs.append((pts[:3], pts[3:6]))
        fam = pair_family(pairs, s.size)
        w = separator_oracle(s, fam)
        w.validate(fam)  # raises on any invariant breach


class TestWitnessValidate:
    """Each invariant breach names the least failing pair and its least point."""

    FAMILY = pair_family([({0}, {3}), ({1, 2}, {0, 3})], 4)

    @pytest.mark.parametrize(
        "u, v, message",
        [
            ([[1, 1, 0, 0], [0, 1, 1, 1]], [[0, 0, 1, 1], [1, 1, 0, 1]],
             "witness pair 1 overlaps at point 1"),
            ([[1, 1, 0, 0], [0, 0, 0, 0]], [[0, 0, 1, 1], [1, 1, 1, 1]],
             "witness pair 1 misses A point 1"),
            ([[1, 1, 0, 0], [0, 1, 1, 0]], [[0, 0, 1, 1], [0, 0, 0, 0]],
             "witness pair 1 misses B point 0"),
            ([[1, 0, 0, 0], [1, 1, 1, 1]], [[0, 0, 0, 0], [1, 1, 1, 1]],
             "witness pair 0 misses B point 3"),
            ([[1, 0, 0, 0], [0, 1, 1, 0]], [[0, 0, 0, 1], [1, 0, 0, 1]], None),
        ],
        ids=["overlap", "misses-a", "misses-b", "least-pair", "valid"],
    )
    def test_names_pair_and_least_point(self, u, v, message):
        w = InessentialWitness(np.array(u, dtype=float), np.array(v, dtype=float))
        if message is None:
            w.validate(self.FAMILY)
            return
        with pytest.raises(InputError, match=f"^{message}$"):
            w.validate(self.FAMILY)

    def test_rejects_uncovered_point_and_wrong_shapes(self):
        fam = pair_family([({0}, {2})], 3)
        w = InessentialWitness(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(InputError, match="does not cover the sample: point 1"):
            w.validate(fam)
        with pytest.raises(InputError, match=r"shapes \(1, 3\) and \(1, 3\), not \(2, 3\)"):
            w.validate(pair_family([({0}, {2})] * 2, 3))
        with pytest.raises(InputError, match=r"shapes \(1, 3\) and \(1, 3\), not \(1, 4\)"):
            w.validate(pair_family([({0}, {2})], 4))
        w = InessentialWitness(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]] * 2))
        with pytest.raises(InputError, match=r"shapes \(1, 3\) and \(2, 3\), not \(1, 3\)"):
            w.validate(fam)

    @pytest.mark.parametrize(
        "u, message",
        [([[0.5, -0.1]], r"out of \[0, 1\] at member 0, point 1"),
         ([[0.5], [0.5, 0.5]], "cozero values must be a rectangular array of numbers"),
         ([[np.inf, 0.0]], "must be finite")],
        ids=["negative", "ragged", "infinite"],
    )
    def test_values_checked_as_a_cover(self, u, message):
        with pytest.raises(InputError, match=message):
            InessentialWitness(u, [[0.0, 1.0]])


class TestMaskWidth:
    """Pair masks narrower or wider than the sample are refused on every route,
    whichever side of a pair marks the masks' last point."""

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("width", [3, 5])
    def test_every_route_rejects_width_mismatch(self, width, side):
        last = ({width - 1}, set()) if side == "A" else (set(), {width - 1})
        fam = pair_family([({0}, {1}), last], width)
        message = rf"^pair masks have width {width}, sample has 4 points$"
        g = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(InputError, match=message):
            separator_oracle(line_space(4), fam)
        with pytest.raises(InputError, match=message):
            inessential_witness_from_map(g, fam)
        with pytest.raises(InputError, match=message):
            map_oracle(g)(line_space(4), fam)
        w = InessentialWitness(np.ones((2, 4)), np.zeros((2, 4)))
        with pytest.raises(InputError, match=rf"shapes \(2, 4\) and \(2, 4\), not \(2, {width}\)"):
            w.validate(fam)


class TestWitnessFromMap:
    def test_frozen_ramp_values(self):
        # two points, one pair; g sends point 0 to 0 and point 1 to 1
        fam = pair_family([({0}, {1})], 2)
        g = np.array([[0.0], [1.0]])
        w = inessential_witness_from_map(g, fam)
        assert w.u.tolist() == [[0.5, 0.0]]
        assert w.v.tolist() == [[0.0, 0.5]]
        w.validate(fam)

    def test_rejects_interior_point(self):
        fam = pair_family([({0}, {1})], 2)
        g = np.array([[0.0], [0.4]])  # point 1 never touches the boundary
        with pytest.raises(InputError, match="point 1"):
            inessential_witness_from_map(g, fam)

    @pytest.mark.parametrize(
        "g, message",
        [([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]], "not 0 on A at point 2, coordinate 1"),
         ([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "not 1 on B at point 2, coordinate 0")],
        ids=["a-side", "b-side"],
    )
    def test_names_least_point_of_first_failing_coordinate(self, g, message):
        fam = pair_family([({0}, {1, 2}), ({0, 3, 2}, set())], 4)
        with pytest.raises(InputError, match=message):
            inessential_witness_from_map(np.array(g), fam)

    def test_rejects_wrong_width(self):
        fam = pair_family([({0}, {1})], 2)
        with pytest.raises(InputError, match="coordinates"):
            inessential_witness_from_map(np.zeros((2, 3)), fam)

    def test_map_oracle_wraps(self):
        fam = pair_family([({0}, {1})], 2)
        g = np.array([[0.0], [1.0]])
        oracle = map_oracle(g)
        w = oracle(line_space(2), fam)
        assert isinstance(w, InessentialWitness)


class TestShrinkToEmptyIntersection:
    def test_intersection_becomes_empty(self, rng):
        for _ in range(10):
            s = square_space(rng, 12)
            c = random_ball_cover(s, int(rng.integers(2, 5)), rng)
            shrunk = shrink_to_empty_intersection(s, c, separator_oracle)
            sup = shrunk.supports()
            assert shrunk.is_covering()
            # total intersection of all members is now empty
            assert not sup.all(axis=0).any()
            # index-wise shrinking of the input
            usup = c.supports()
            for i in range(c.size):
                assert not (sup[i] & ~usup[i]).any()

    def test_rejects_single_member(self):
        s = line_space(3)
        c = Cover.from_matrix(np.ones((1, 3)))
        with pytest.raises(InputError):
            shrink_to_empty_intersection(s, c, separator_oracle)

    def test_two_member_line_cover(self):
        s = line_space(4)
        c = Cover.from_matrix(
            np.array([[1.0, 1.0, 0.5, 0.0], [0.0, 0.5, 1.0, 1.0]])
        )
        shrunk = shrink_to_empty_intersection(s, c, separator_oracle)
        sup = shrunk.supports()
        assert shrunk.is_covering()
        assert not (sup[0] & sup[1]).any()


def brute_force_max_multiplicity_ok(c: Cover, n: int) -> bool:
    """Every (n+2)-subset of members has empty common support."""
    sup = c.supports()
    for subset in itertools.combinations(range(c.size), n + 2):
        if sup[list(subset)].all(axis=0).any():
            return False
    return True


class TestReduceOrder:
    def test_reduces_to_target_and_refines(self, rng):
        for trial in range(12):
            n = int(rng.integers(0, 2))
            s = square_space(rng, 12)
            c = random_ball_cover(s, int(rng.integers(n + 2, 7)), rng)
            reduced = reduce_order(s, c, n, separator_oracle)
            assert reduced.is_covering()
            assert order_of(reduced) <= n
            assert brute_force_max_multiplicity_ok(reduced, n)
            assert refines(reduced, c)
            assert reduced.size == c.size

    def test_shrinks_member_wise(self, rng):
        s = square_space(rng, 12)
        c = random_ball_cover(s, 4, rng)
        reduced = reduce_order(s, c, 1, separator_oracle)
        rsup = reduced.supports()
        usup = c.supports()
        for i in range(c.size):
            assert not (rsup[i] & ~usup[i]).any()

    @pytest.mark.parametrize("n", [True, 1.0, np.int64(1), -1], ids=["bool", "float", "int64", "negative"])
    def test_rejects_n_that_is_not_a_nonnegative_int(self, n):
        c = Cover.from_matrix(np.ones((3, 4)))
        with pytest.raises(InputError, match="^n must be an integer >= 0, got"):
            reduce_order(line_space(4), c, n, separator_oracle)

    def test_small_cover_returned_unchanged(self):
        s = line_space(4)
        c = Cover.from_matrix(
            np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        )
        # two members cannot form a 3-subset, so n = 1 returns the input
        reduced = reduce_order(s, c, 1, separator_oracle)
        assert np.array_equal(reduced.matrix, c.matrix)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), n=st.integers(0, 1))
def test_reduce_order_property(seed, n):
    rng = np.random.default_rng(seed)
    s = square_space(rng, 10)
    c = random_value_cover(s, int(rng.integers(n + 2, 6)), rng)
    reduced = reduce_order(s, c, n, separator_oracle)
    assert reduced.is_covering()
    assert order_of(reduced) <= n
    assert refines(reduced, c)
