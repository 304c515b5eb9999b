"""Re-verification harness: full recheck and tamper detection."""

import dataclasses
import json
import math

import pytest

from dimlab import Cover, InputError, harness, nobeling_embed, verify_nobeling_membership, verify_result
from dimlab.embedding import (
    AvoidedHyperplane,
    embedding_stage,
    pair_schedule,
    result_from_json_dict,
    result_to_json_dict,
)
from conftest import line_space


@pytest.fixture(scope="module")
def line_run():
    space = line_space(8)
    return space, nobeling_embed(space, n=1, T=4, seed=0)


def tampered(r, mutate):
    """Apply ``mutate`` to the result's JSON document and parse it back."""
    doc = result_to_json_dict(r)
    doc = json.loads(json.dumps(doc))  # deep copy, plain data
    mutate(doc)
    return result_from_json_dict(doc)


def stage_replaced(r, t, field, entries):
    """r with stage t's array ``field`` changed at the given {(row, column): value} entries."""
    a = getattr(r.stages[t], field).copy()
    for at, value in entries.items():
        a[at] = value
    st = dataclasses.replace(r.stages[t], **{field: a})
    return dataclasses.replace(r, stages=r.stages[:t] + (st,) + r.stages[t + 1:])


class TestVerifyResult:
    def test_clean_run_passes(self, line_run):
        space, r = line_run
        report = verify_result(r, space, 1)
        assert report.overall
        assert report.failures() == []
        names = {c.name for c in report.checks}
        assert {
            "chain",
            "pair-schedule",
            "hyperplane-schedule",
            "covering",
            "order",
            "star-refinement",
            "vertex-proximity",
            "anchors-on-plane",
            "general-position",
            "kappa-values",
            "kappa-weights",
            "delta-schedule",
            "contraction",
            "stage-clearance",
            "v-mapping",
            "line-avoiding",
            "equation-margin",
            "injectivity",
        } <= names

    def test_report_serializes(self, line_run):
        space, r = line_run
        doc = verify_result(r, space, 1).to_json_dict()
        assert doc["overall"] is True
        assert all(isinstance(c["name"], str) for c in doc["checks"])

    def test_rejects_wrong_n(self, line_run):
        space, r = line_run
        with pytest.raises(InputError):
            verify_result(r, space, 2)

    def test_rejects_wrong_space(self, line_run):
        _, r = line_run
        with pytest.raises(InputError):
            verify_result(r, line_space(5), 1)

    def test_detects_point_on_hyperplane(self, line_run):
        """Corruption 1: park an image point on the stage-0 hyperplane."""
        space, r = line_run
        plane = r.stages[0].hyperplane
        bad_point = plane.base_point().tolist()

        def mutate(doc):
            doc["f"][3] = bad_point

        report = verify_result(tampered(r, mutate), space, 1)
        assert not report.overall
        failed = {c.name for c in report.failures()}
        assert "line-avoiding" in failed
        locs = [c.location for c in report.failures() if c.name == "line-avoiding"]
        assert any("stage 0" in loc and "point 3" in loc for loc in locs)

    def test_detects_merged_images(self, line_run):
        """Corruption 2: force two final images to coincide."""
        space, r = line_run

        def mutate(doc):
            doc["f"][5] = list(doc["f"][4])

        report = verify_result(tampered(r, mutate), space, 1)
        assert not report.overall
        inj = [c for c in report.failures() if c.name == "injectivity"]
        assert inj and "4" in inj[0].location and "5" in inj[0].location

    def test_detects_inflated_delta(self, line_run):
        """Corruption 3: inflate a stage scale after the fact."""
        space, r = line_run

        def mutate(doc):
            doc["stages"][1]["delta"] = doc["stages"][1]["delta"] * 8.0

        report = verify_result(tampered(r, mutate), space, 1)
        assert not report.overall
        failed = {c.name for c in report.failures()}
        assert "chain" in failed or "delta-schedule" in failed
        locs = [c.location for c in report.failures()]
        assert any("stage 1" in loc for loc in locs)

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["stages"][0].update(delta=doc["stages"][0]["delta"] * 0.5),
        lambda doc: doc["stages"][0].update(delta=doc["stages"][0]["delta"] * 0.9),
        lambda doc: doc.update(delta0=123.0),
    ], ids=["stage-0-delta-halved", "stage-0-delta-shrunk", "delta0-forged"])
    def test_detects_stage_zero_scale_off_delta0(self, line_run, mutate):
        """Stage 0 must start at the stored delta0, and that must be DELTA0."""
        space, r = line_run
        report = verify_result(tampered(r, mutate), space, 1)
        assert not report.overall
        assert ("delta-schedule", "stage 0") in {(c.name, c.location) for c in report.failures()}

    def test_detects_moved_vertex(self, line_run):
        """A vertex pulled away from its member image breaks proximity."""
        space, r = line_run

        def mutate(doc):
            doc["stages"][0]["vertices"][0] = [0.99, 0.99, 0.99]

        report = verify_result(tampered(r, mutate), space, 1)
        assert not report.overall

    def test_detects_forged_eta(self, line_run):
        """A forged separation quantity no longer matches recomputation."""
        space, r = line_run

        def mutate(doc):
            doc["stages"][0]["eta"] = doc["stages"][0]["eta"] * 2.0

        report = verify_result(tampered(r, mutate), space, 1)
        assert not report.overall
        assert "eta" in {c.name for c in report.failures()}

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_detects_nonpositive_eta(self, line_run, value):
        """An image ball of radius eta/4 <= 0 holds no point: v-mapping fails, at margin 0."""
        space, r = line_run

        def mutate(doc):
            doc["stages"][0]["eta"] = value

        failures = verify_result(tampered(r, mutate), space, 1).failures()
        assert "eta" in {c.name for c in failures}
        vm = [c for c in failures if c.name == "v-mapping"]
        assert [(c.margin, c.location) for c in vm] == [(0.0, "stage 0, point 0")]


    def test_reports_swapped_ball_pair(self, line_run):
        """A pair whose cover misses a point is reported, not raised."""
        space, r = line_run

        def mutate(doc):
            doc["stages"][1]["pair_code"] = doc["stages"][1]["pair_code"][::-1]

        report = verify_result(tampered(r, mutate), space, 1)
        failed = {(c.name, c.location) for c in report.failures()}
        assert ("pair-schedule", "stage 1") in failed
        assert ("star-refinement", "stage 1") in failed

    def test_detects_forged_avoided_eta_prime(self, line_run):
        """avoided[t].eta_prime is a stored copy of the stage's; it must match it."""
        space, r = line_run

        def mutate(doc):
            doc["avoided"][0]["eta_prime"] = 123.0

        report = verify_result(tampered(r, mutate), space, 1)
        assert [(c.name, c.location) for c in report.failures()] == [
            ("avoided-schedule", "stage 0")
        ]

    @pytest.mark.parametrize("delta", [1e-300, 1e-310], ids=["grid-past-2^62", "grid-past-float"])
    def test_reports_grid_too_fine(self, line_run, delta):
        """A scale whose grid cannot be indexed fails the star check; nothing raises."""
        space, r = line_run

        def mutate(doc):
            doc["stages"][0]["delta"] = delta

        report = verify_result(tampered(r, mutate), space, 1)
        star = [(c.passed, c.margin, c.location) for c in report.checks
                if c.name == "star-refinement"]
        assert star[0] == (False, -1.0, "stage 0")
        assert all(passed for passed, _, _ in star[1:])

    def test_reports_image_outside_cube(self, line_run):
        """A stage image no grid ball reaches is a failed check, not an error."""
        space, r = line_run

        def mutate(doc):
            doc["stages"][2]["f"][3] = [1.5, 0.5, 0.5]

        report = verify_result(tampered(r, mutate), space, 1)
        failed = {(c.name, c.location) for c in report.failures()}
        assert {("in-cube", "stage 2"), ("star-refinement", "stage 2")} <= failed

    @pytest.mark.parametrize("code", [[999, 0], [-1, 0]], ids=["past-the-end", "negative"])
    def test_rejects_pair_code_outside_enumeration(self, line_run, code):
        space, r = line_run

        def mutate(doc):
            doc["stages"][1]["pair_code"] = code

        with pytest.raises(InputError, match=r"stage 1: pair_code .* names a ball outside"):
            verify_result(tampered(r, mutate), space, 1)

    @pytest.mark.parametrize(
        "code",
        [[0, 1, 2], [0], [0, 1.0], [0, True], "01", 5],
        ids=["three", "one", "float", "bool", "string", "number"],
    )
    def test_rejects_pair_code_not_two_ints(self, line_run, code):
        def mutate(doc):
            doc["stages"][1]["pair_code"] = code

        with pytest.raises(InputError, match="pair_code must be two integers"):
            tampered(line_run[1], mutate)

    @pytest.mark.parametrize(
        "field,value",
        [("t", 1.5), ("t", True), ("t", "1"), ("radii_depth", 1.5), ("radii_depth", True),
         ("n", 1.0), ("seed", False), ("seed", 0.0)],
        ids=["t-float", "t-bool", "t-string", "depth-float", "depth-bool", "n-float",
             "seed-bool", "seed-float"],
    )
    def test_rejects_non_integer_field(self, line_run, field, value):
        def mutate(doc):
            if field == "t":
                doc["stages"][1]["t"] = value
            else:
                doc[field] = value

        with pytest.raises(InputError, match=f"{field} must be an integer"):
            tampered(line_run[1], mutate)

    @pytest.mark.parametrize("value", ["repr", True, 10**400], ids=["string", "bool", "huge-int"])
    @pytest.mark.parametrize(
        "where,field",
        [("stage", "delta"), ("stage", "delta_next"), ("stage", "contraction"), ("stage", "eta"),
         ("stage", "eta_prime"), ("avoided", "eta_prime"), ("avoided", "distance_margin"),
         ("avoided", "equation_margin"), ("result", "delta0"), ("result", "injectivity_margin")],
    )
    def test_rejects_non_number_field(self, line_run, where, field, value):
        """float() would read the string "0.05" and true as numbers, and the result verified."""

        def mutate(doc):
            at = {"stage": doc["stages"][0], "avoided": doc["avoided"][0], "result": doc}[where]
            at[field] = repr(at[field]) if value == "repr" else value

        with pytest.raises(InputError, match=f"{field} must be a number, got "):
            tampered(line_run[1], mutate)

    @pytest.mark.parametrize("where", ["stage", "avoided"])
    def test_rejects_null_eta_prime(self, line_run, where):
        """eta' is always finite, so no writer puts null there; only a stage's eta may be null."""

        def mutate(doc):
            (doc["stages"] if where == "stage" else doc["avoided"])[0]["eta_prime"] = None

        with pytest.raises(InputError, match="eta_prime must be a number, got None"):
            tampered(line_run[1], mutate)

    @pytest.mark.parametrize(
        "where,index,field,message",
        [("stage", 0, "f_next", "stage 0: f_next must be a rectangular array of numbers"),
         ("stage", 2, "delta", "stage 2: not a stage document: delta must be a number, got '"),
         ("avoided", 0, "eta_prime",
          "avoided 0: not an avoided-plane document: eta_prime must be a number, got '"),
         ("avoided", 1, "hyperplane", "avoided 1: not a hyperplane document: 'values'")],
    )
    def test_parse_error_names_its_entry(self, line_run, where, index, field, message):
        """Errors in a stage or avoided-plane entry carry its index."""

        def mutate(doc):
            entry = (doc["stages"] if where == "stage" else doc["avoided"])[index]
            if field == "f_next":
                entry[field][0][0] = repr(entry[field][0][0])
            elif field == "hyperplane":
                del entry[field]["values"]
            else:
                entry[field] = repr(entry[field])

        with pytest.raises(InputError) as info:
            tampered(line_run[1], mutate)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("coords", [[0, 1, 3], [0]])
    def test_rejects_avoided_plane_of_other_dimension(self, monkeypatch, line_run, coords):
        """An avoided plane outside I^3 is bad input, raised before anything is measured."""
        space, r = line_run
        bad = tampered(r, lambda doc: doc["avoided"][2].update(
            hyperplane={"coords": coords, "values": [[1, 2]] * len(coords)}))

        def measured(*args):
            raise AssertionError("measured before the document was validated")

        monkeypatch.setattr(harness, "_least_sigmas", measured)
        dim = 2 * len(coords) - 1
        with pytest.raises(InputError, match=rf"^avoided 2: hyperplane has ambient dimension "
                                             rf"{dim}, not 3$"):
            verify_result(bad, space, 1)

    def test_rejects_avoided_list_of_other_length(self, monkeypatch, line_run):
        space, r = line_run
        bad = tampered(r, lambda doc: doc["avoided"].pop())
        monkeypatch.setattr(harness, "_least_sigmas", None)
        with pytest.raises(InputError, match="^result must record one avoided hyperplane per"):
            verify_result(bad, space, 1)

    @pytest.mark.parametrize("where", ["result", "stage", "avoided"])
    def test_rejects_entry_that_is_not_an_object(self, line_run, where):
        what = {"result": "not a result document", "stage": "stage 1: not a stage document",
                "avoided": "avoided 0: not an avoided-plane document"}[where]
        doc = json.loads(json.dumps(result_to_json_dict(line_run[1])))
        if where == "stage":
            doc["stages"][1] = [1]
        elif where == "avoided":
            doc["avoided"][0] = [1]
        with pytest.raises(InputError) as info:
            result_from_json_dict([doc] if where == "result" else doc)
        assert str(info.value) == f"{what}: expected a JSON object, got list"

    @pytest.mark.parametrize("where", ["stage", "avoided"])
    @pytest.mark.parametrize(
        "field,value,message",
        [("coords", [0.5, 1.5], "coord"), ("coords", [True, 1], "coord"),
         ("values", [[0.25, 1], [0.25, 1]], "numerator"),
         ("values", [[0, 1.0], [0, 1]], "denominator")],
        ids=["coords-float", "coords-bool", "numerator-float", "denominator-float"],
    )
    def test_rejects_non_integer_hyperplane(self, line_run, where, field, value, message):
        """int() would truncate 0.5, 1.5 and 0.25 to the scheduled plane, which verifies."""

        def mutate(doc):
            (doc["stages"] if where == "stage" else doc["avoided"])[0]["hyperplane"][field] = value

        with pytest.raises(InputError, match=f"hyperplane {message} must be an integer"):
            tampered(line_run[1], mutate)

    @pytest.mark.parametrize("t", [999, 4, -1])
    def test_rejects_stage_index_outside_stages(self, line_run, t):
        space, r = line_run

        def mutate(doc):
            doc["stages"][1]["t"] = t

        with pytest.raises(InputError, match=rf"stage {t} outside 0\.\.3"):
            verify_result(tampered(r, mutate), space, 1)

    def test_rejects_relabelled_stage(self, line_run):
        space, r = line_run

        def mutate(doc):
            doc["stages"][1]["t"] = 0

        with pytest.raises(InputError, match=r"stage at position 1 records t=0"):
            verify_result(tampered(r, mutate), space, 1)

    def test_rejects_repeated_stage(self):
        """Stage 1 run twice, as stages 1 and 2, with a consistent final map: hyperplane 2
        and ball pair 2 are never handled, so the result must not be certified."""
        space = line_space(8)
        r = nobeling_embed(space, n=1, T=3, seed=0)
        balls, _, _ = pair_schedule(space, 3)
        one = r.stages[1]
        again = embedding_stage(1, one.f_next, one.delta_next, space, balls, 1,
                                one.pair_code, one.hyperplane, seed=0)
        stages = r.stages[:2] + (again,)
        f = again.f_next
        avoided = tuple(
            AvoidedHyperplane(st.hyperplane, st.eta_prime,
                              float(st.hyperplane.distance_to_point(f).min()),
                              float(st.hyperplane.equation_violation(f).min()))
            for st in stages)
        gaps = [math.dist(f[x], f[y]) for x in range(len(f)) for y in range(x + 1, len(f))]
        forged = dataclasses.replace(r, f=f, stages=stages, avoided=avoided,
                                     injectivity_margin=min(gaps))
        assert [st.t for st in forged.stages] == [0, 1, 1]
        with pytest.raises(InputError, match=r"stage at position 2 records t=1"):
            verify_result(forged, space, 1)

    @pytest.mark.parametrize("depth", [50, 2, 0])
    def test_rejects_radii_depth_off_schedule(self, line_run, depth):
        """The verifier enumerates balls at the schedule's own depth, never the document's."""
        space, r = line_run

        def mutate(doc):
            doc["radii_depth"] = depth

        with pytest.raises(InputError, match=rf"radii_depth {depth}, .* at depth 1"):
            verify_result(tampered(r, mutate), space, 1)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda st: st.update(anchors=[row[:2] for row in st["anchors"]]),
             r"stage 1: anchors has shape \(2, 2\), not \(2, 3\)"),
            (lambda st: st.update(anchors=[]), r"stage 1: anchors has shape \(0,\), not \(2, 3\)"),
            (lambda st: st.update(vertices=[row[:2] for row in st["vertices"]]),
             r"stage 1: vertices has shape \(\d+, 2\), not \(\d+, 3\)"),
            (lambda st: st.update(f_next=st["f_next"][:3]),
             r"stage 1: f_next has shape \(3, 3\), not \(8, 3\)"),
            (lambda st: st["hyperplane"]["values"].__setitem__(0, [1, 0]),
             "not a hyperplane document"),
            (lambda st: st["cover_u"]["members"][0].update(values=[1.0] * 8),
             "cover values must be an object"),
            (lambda st: (st["cover_u"]["members"].append({"values": {}}),
                         st["vertices"].append(st["vertices"][0])),
             r"stage 1: cover_u member \d+ is empty"),
        ],
        ids=["anchors-width", "anchors-empty", "vertices-width", "f-next-rows",
             "zero-denominator", "values-list", "empty-member"],
    )
    def test_rejects_malformed_stage(self, line_run, mutate, message):
        space, r = line_run
        with pytest.raises(InputError, match=message):
            verify_result(tampered(r, lambda doc: mutate(doc["stages"][1])), space, 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["f", "f_next", "vertices", "anchors"])
    def test_rejects_non_finite_stage_array(self, line_run, field, value):
        """A NaN or infinite stage entry is bad input, named by stage and field, before the
        sigma scan (which raised LinAlgError on a NaN vertex or anchor) measures it."""
        space, r = line_run
        bad = stage_replaced(r, 1, field, {(0, 1): value})
        with pytest.raises(InputError, match=rf"^stage 1: {field} holds a non-finite value$"):
            verify_result(bad, space, 1)

    @pytest.mark.parametrize("field", ["f", "f_next"])
    def test_nan_beside_a_point_outside_the_cube(self, line_run, field):
        """5.0 fails in-cube; with a NaN beside it the stage is bad input, where the NaN
        used to hide the 5.0 and in-cube passed with margin 1e-12."""
        space, r = line_run
        report = verify_result(stage_replaced(r, 1, field, {(0, 0): 5.0}), space, 1)
        (check,) = [c for c in report.checks if (c.name, c.location) == ("in-cube", "stage 1")]
        assert (check.passed, check.margin) == (False, 1e-12 - 4.0)
        bad = stage_replaced(r, 1, field, {(0, 0): 5.0, (2, 1): math.nan})
        with pytest.raises(InputError, match=rf"^stage 1: {field} holds a non-finite value$"):
            verify_result(bad, space, 1)

    def test_rejects_non_finite_final_map(self, line_run):
        space, r = line_run
        f = r.f.copy()
        f[3, 2] = math.nan
        with pytest.raises(InputError, match="^final map holds a non-finite value$"):
            verify_result(dataclasses.replace(r, f=f), space, 1)

    def test_rejects_cover_over_other_sample(self, line_run):
        space, r = line_run
        st = r.stages[2]
        bad = dataclasses.replace(st, cover_u=Cover(st.cover_u.matrix[:, :7]))
        with pytest.raises(InputError, match="^stage 2: cover_u covers 7 points, not 8$"):
            verify_result(dataclasses.replace(r, stages=r.stages[:2] + (bad,) + r.stages[3:]),
                          space, 1)

    def test_names_least_sigma_subset(self, line_run):
        """Coincident vertices give sigma about 0, located at the first maximal subset holding them.

        The maximal subsets have d+1 = 4 points; (0, 1, 2, 3)'s sigma is about
        8e-19, not exactly 0, hence the approximate margin.
        """
        space, r = line_run

        def mutate(doc):
            doc["stages"][1]["vertices"][1] = list(doc["stages"][1]["vertices"][0])

        report = verify_result(tampered(r, mutate), space, 1)
        (check,) = [c for c in report.checks if c.name == "general-position" and not c.passed]
        assert check.location == "stage 1, subset (0, 1, 2, 3)"
        assert check.margin == pytest.approx(-1e-9, abs=1e-15)


class TestVerifyMembership:
    def test_clean_run_passes(self, line_run):
        _, r = line_run
        report = verify_nobeling_membership(r)
        assert report.overall
        assert len(report.checks) == len(r.avoided)
        for c in report.checks:
            assert c.name == "rational-avoidance"
            assert c.margin > 0.0

    @pytest.mark.parametrize("coords", [[0, 1, 3], [0]])
    def test_refuses_avoided_plane_of_other_dimension(self, coords):
        """One image point in I^3 against a plane of I^5 (no column 3) or of I^1 (column 0 only)."""
        r = nobeling_embed(line_space(1, mesh=0.5), n=1, T=1, seed=0)
        assert r.f.shape == (1, 3)
        bad = tampered(r, lambda doc: doc["avoided"][0].update(
            hyperplane={"coords": coords, "values": [[1, 2]] * len(coords)}))
        dim = 2 * len(coords) - 1
        with pytest.raises(InputError, match=rf"^points have dimension 3, but the hyperplane "
                                             rf"has ambient dimension {dim}$"):
            verify_nobeling_membership(bad)

    def test_detects_forged_margin(self, line_run):
        _, r = line_run

        def mutate(doc):
            doc["avoided"][0]["equation_margin"] = 1e9

        report = verify_nobeling_membership(tampered(r, mutate))
        assert not report.overall
