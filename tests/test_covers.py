"""Cover calculus: shrinking, stars, meets, star refinement, order."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlab import (
    Cover,
    InputError,
    closed_shrinking,
    meet,
    order_of,
    reduce_order,
    separator_oracle,
    star_refinement,
)
from dimlab.covers import (
    dedupe_by_support,
    drop_empty_members,
    is_point_star_refinement,
    star,
    star_of_member,
)
from dimlab.dimension import shrink_to_empty_intersection
from dimlab.embedding import kappa_map
from conftest import (
    brute_force_order,
    line_space,
    random_ball_cover,
    random_value_cover,
    refines,
    square_space,
)


def small_cover(matrix) -> Cover:
    return Cover.from_matrix(np.asarray(matrix, dtype=float))


class TestCoverValues:
    @pytest.mark.parametrize(
        "value, message",
        [(-0.25, r"out of \[0, 1\] at member 1, point 2"),
         (1.5, r"out of \[0, 1\] at member 1, point 2"),
         (float("nan"), "must be finite")],
        ids=["negative", "above-one", "nan"],
    )
    def test_matrix_checked_once(self, value, message):
        g = np.array([[1.0, 1.0, 0.0], [0.0, 0.5, 1.0]])
        g[1, 2] = value
        with pytest.raises(InputError, match=message):
            Cover.from_matrix(g)

    def test_stored_read_only(self):
        c = Cover((np.array([1.0, 0.5, 0.0, 0.25]), np.array([0.0, 1.0, 0.0, 1.0])))
        assert c.matrix.tolist() == [[1.0, 0.5, 0.0, 0.25], [0.0, 1.0, 0.0, 1.0]]
        assert not c.matrix.flags.writeable
        # the sparse JSON form keeps only the nonzero values and reads back the same matrix
        doc = c.to_json_dict()
        assert doc == {"members": [{"values": {"0": 1.0, "1": 0.5, "3": 0.25}},
                                   {"values": {"1": 1.0, "3": 1.0}}]}
        back = Cover.from_json_dict(doc, 4)
        assert np.array_equal(back.matrix, c.matrix) and not back.matrix.flags.writeable

    @pytest.mark.parametrize("key", ["01", "1_0", " 2", "+3", "2 ", "x", "-0"])
    def test_json_point_key_is_canonical(self, key):
        # int() reads these as points; "01" and "1" would name one point
        doc = {"members": [{"values": {"1": 0.5, key: 1.0}}]}
        message = f"^bad point index {re.escape(repr(key))} in cover values$"
        with pytest.raises(InputError, match=message):
            Cover.from_json_dict(doc, 12)

    @pytest.mark.parametrize("value", [True, "1.0", None, [1.0], 10**400],
                             ids=["bool", "string", "null", "list", "huge-int"])
    def test_json_value_is_a_number(self, value):
        # float() reads true and "1.0" as 1.0, and cannot hold 10^400
        doc = {"members": [{"values": {"0": 1.0, "1": value}}]}
        message = f"^bad value {re.escape(repr(value))} at point 1 in cover values$"
        with pytest.raises(InputError, match=message):
            Cover.from_json_dict(doc, 4)

    @pytest.mark.parametrize(
        "doc, message",
        [({"members": [{"values": {"0": 1.0, "1": 1.0}, "valeus": {"2": 1.0}}], "extra": 1},
          "not a cover document: unknown keys ['extra']"),
         ({"members": [{"values": {"0": 1.0, "1": 1.0}, "valeus": {"2": 1.0}}]},
          "not a cover member: unknown keys ['valeus']")],
        ids=["document", "member"],
    )
    def test_json_refuses_unknown_keys(self, doc, message):
        # a misspelt key would otherwise read as absent
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Cover.from_json_dict(doc, 3)

    @pytest.mark.parametrize(
        "make, message",
        [(lambda: Cover(()), "at least one member"),
         (lambda: Cover.from_matrix(np.zeros((2, 0))), "nonempty sample"),
         (lambda: Cover((np.ones(2), np.ones(3))),
          "cozero values must be a rectangular array of numbers")],
        ids=["no-member", "no-point", "ragged"],
    )
    def test_shape_checked(self, make, message):
        with pytest.raises(InputError, match=message):
            make()


class TestClosedShrinking:
    def test_three_point_oracle(self):
        """Frozen worked example, derived by hand.

        Members u0 = [1, 1/2, 0], u1 = [0, 1/2, 1] over a 3-point sample.
        i = 0: later members max to [0, 1/2, 1]; denominators are
          [1, 1, 1], so gt0 = [1, 1/2, 0] and gp0 = [1/2, 0, 0].
        i = 1: the prior open shrink gp0 replaces u0, so denominators are
          [0+1/2, 1/2+0, 1+0] and gt1 = [0, 1, 1], gp1 = [0, 1/2, 1/2].
        Every quotient is dyadic, so float comparisons are exact.
        """
        c = small_cover([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])
        res = closed_shrinking(c)
        assert res.tilde[0].tolist() == [1.0, 0.5, 0.0]
        assert res.tilde[1].tolist() == [0.0, 1.0, 1.0]
        assert res.open_shrink.matrix.tolist() == [[0.5, 0.0, 0.0], [0.0, 0.5, 0.5]]
        assert res.closed_shrink == (frozenset({0, 1}), frozenset({1, 2}))

    def test_tie_point_falls_out_of_open_shrink(self):
        # gt = 1/2 exactly lands in F but not W
        c = small_cover([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])
        res = closed_shrinking(c)
        assert not res.open_shrink.supports()[0, 1]
        assert 1 in res.closed_shrink[0]

    def test_noncovering_input_rejected(self):
        c = small_cover([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InputError, match="point 1"):
            closed_shrinking(c)

    def test_single_member_cover(self):
        c = small_cover([[0.25, 0.75, 1.0]])
        res = closed_shrinking(c)
        # only member: denominator equals the member itself, gt constant 1
        assert res.tilde[0].tolist() == [1.0, 1.0, 1.0]
        assert res.closed_shrink[0] == frozenset({0, 1, 2})


class TestStars:
    def test_star_on_line_cover(self):
        s = line_space(4)  # points 0, 1/3, 2/3, 1
        cover = small_cover(
            [
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 1.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
            ]
        )
        assert star({0}, cover) == frozenset({0, 1})
        assert star({1}, cover) == frozenset({0, 1, 2})
        assert star_of_member(0, cover) == frozenset({0, 1, 2})
        assert star_of_member(2, cover) == frozenset({1, 2, 3})
        assert star(set(), cover) == frozenset()

    def test_star_rejects_unknown_point(self):
        cover = small_cover([[1.0, 1.0]])
        with pytest.raises(InputError):
            star({5}, cover)


class TestMeet:
    def test_values_are_pairwise_minima(self):
        a = small_cover([[1.0, 0.5, 0.0], [0.2, 0.6, 1.0]])
        b = small_cover([[0.4, 1.0, 1.0]])
        m = meet(a, b)
        assert m.size == 2
        assert m.matrix.tolist() == [[0.4, 0.5, 0.0], [0.2, 0.6, 1.0]]

    def test_empty_intersections_dropped(self):
        a = small_cover([[1.0, 0.0], [0.0, 1.0]])
        b = small_cover([[1.0, 0.0], [0.0, 1.0]])
        m = meet(a, b)
        # only the two diagonal intersections survive
        assert m.size == 2

    def test_meet_refines_both(self, rng):
        s = square_space(rng, 15)
        a = random_ball_cover(s, 3, rng)
        b = random_ball_cover(s, 4, rng)
        m = meet(a, b)
        assert refines(m, a)
        assert refines(m, b)


class TestStarRefinement:
    def test_exhaustive_star_containment(self, rng):
        for trial in range(25):
            s = square_space(rng, 12)
            c = random_ball_cover(s, int(rng.integers(2, 6)), rng)
            v, assignment = star_refinement(c)
            assert len(assignment) == v.size
            usup = c.supports()
            for j in range(v.size):
                st_j = star_of_member(j, v)
                target = usup[assignment[j]]
                assert all(target[x] for x in st_j)

    def test_point_star_refinement_flag(self, rng):
        s = square_space(rng, 12)
        c = random_ball_cover(s, 4, rng)
        v, _ = star_refinement(c)
        assert is_point_star_refinement(v, c)

    def test_output_covers(self, rng):
        s = square_space(rng, 10)
        c = random_ball_cover(s, 3, rng)
        v, _ = star_refinement(c)
        assert v.uncovered_point() is None

    def test_point_star_refinement_needs_one_sample(self):
        v, u = small_cover(np.ones((1, 3))), small_cover(np.ones((1, 5)))
        for a, b in (v, u), (u, v):
            with pytest.raises(InputError, match="^covers live over different samples$"):
                is_point_star_refinement(a, b)


@pytest.mark.parametrize("call", [
    lambda c: reduce_order(line_space(3), c, 0, separator_oracle),
    lambda c: shrink_to_empty_intersection(line_space(3), c, separator_oracle),
    lambda c: kappa_map(c, np.full((2, 1), 0.5)),
], ids=["reduce_order", "shrink_to_empty_intersection", "kappa_map"])
def test_uncovered_point_message(call):
    with pytest.raises(InputError) as err:
        call(small_cover([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0]]))
    assert str(err.value) == "cover does not cover the sample: point 1 uncovered"


class TestOrderAndHygiene:
    def test_order_of_frozen(self):
        c = small_cover(
            [
                [1.0, 1.0, 0.0],
                [0.0, 1.0, 1.0],
                [0.0, 1.0, 0.0],
            ]
        )
        # point 1 lies in all three members
        assert order_of(c) == 2

    def test_drop_empty_members(self):
        c = Cover((np.array([1.0, 1.0]), np.array([0.0, 0.0])))
        d = drop_empty_members(c)
        assert d.size == 1

    def test_dedupe_by_support_keeps_first(self):
        c = small_cover([[1.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        d = dedupe_by_support(c)
        assert d.size == 2
        assert d.matrix[0].tolist() == [1.0, 1.0]
        assert d.matrix[1].tolist() == [1.0, 0.0]


covers_strategy = st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.integers(min_value=1, max_value=8).flatmap(
        lambda p: st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=p,
                max_size=p,
            ),
            min_size=k,
            max_size=k,
        )
    )
)


@settings(max_examples=80, deadline=None)
@given(matrix=covers_strategy, data=st.data())
def test_shrinking_invariants_property(matrix, data):
    g = np.array(matrix, dtype=float)
    # patch holes so the family covers: assign each bare point a member
    hole = ~(g > 0.0).any(axis=0)
    for x in np.nonzero(hole)[0]:
        i = data.draw(st.integers(min_value=0, max_value=g.shape[0] - 1))
        g[i, x] = data.draw(st.floats(min_value=0.1, max_value=1.0))
    c = Cover.from_matrix(g)
    res = closed_shrinking(c)
    wsup = res.open_shrink.supports()
    usup = c.supports()
    covered = np.zeros(c.sample_size, dtype=bool)
    for i in range(c.size):
        f_i = res.closed_shrink[i]
        # W_i inside F_i inside U_i, exact set comparisons
        assert set(np.nonzero(wsup[i])[0]) <= f_i
        assert f_i <= set(np.nonzero(usup[i])[0])
        for x in f_i:
            covered[x] = True
    assert covered.all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_star_refinement_property(seed):
    rng = np.random.default_rng(seed)
    s = square_space(rng, 10)
    c = random_value_cover(s, int(rng.integers(2, 5)), rng)
    v, assignment = star_refinement(c)
    assert v.uncovered_point() is None
    usup = c.supports()
    for j in range(v.size):
        assert star_of_member(j, v) <= frozenset(np.nonzero(usup[assignment[j]])[0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_order_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    s = square_space(rng, 12)
    c = random_value_cover(s, int(rng.integers(1, 7)), rng)
    assert order_of(c) == brute_force_order(c)
