"""Acceptance suite: nine numbered end-to-end checks over the library.

Every check regenerates its instances from fixed seeds, verifies the
claimed property with independent brute-force or closed-form oracles,
and enforces a wall-clock budget where one is pinned. Each test prints
exactly one ``[criterion N] ...: PASS`` / ``FAIL`` line (visible with
``pytest -s``).
"""

import functools
import itertools
import json
import time

import numpy as np
import pytest
import scipy.optimize

from dimlab import (
    Cover,
    ball_cozero,
    closed_shrinking,
    complement_cozero,
    nerve_of,
    nobeling_embed,
    order_of,
    reduce_order,
    result_to_json_bytes,
    separator_oracle,
    star_refinement,
    verify_result,
)
from dimlab.metric import enumerate_balls
from dimlab.embedding import (
    general_position,
    kappa_map,
    result_from_json_dict,
    result_to_json_dict,
)

from conftest import (
    active_members,
    line_space,
    random_ball_cover,
    random_value_cover,
    refines,
    square_space,
)

EPS_GENPOS = 1e-2
RANK_TOL = 1e-9
WEIGHT_TOL = 1e-12
HULL_RESIDUAL_TOL = 1e-9


def criterion(num: int, label: str):
    """Print the one-line verdict for a numbered check, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] {label}: FAIL", flush=True)
                raise
            print(f"[criterion {num}] {label}: PASS", flush=True)

        return wrapper

    return deco


# instance generators shared between the per-module checks and criterion 4;
# regenerating from the seed keeps every check runnable in isolation

def shrink_instances():
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        space = square_space(rng, count=20)
        k = int(rng.integers(1, 7))
        yield space, random_ball_cover(space, k, rng)


def star_instances():
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        space = square_space(rng, count=20)
        k = int(rng.integers(1, 6))
        yield space, random_value_cover(space, k, rng)


def reduce_instances():
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        space = square_space(rng, count=20)
        s = int(rng.integers(1, 7))
        n = int(rng.integers(0, 2))
        yield space, random_ball_cover(space, s, rng), n


@criterion(1, "closed shrinking nests W in F in U and F covers, 200 ball covers")
def test_criterion_1_closed_shrinking():
    t0 = time.perf_counter()
    for space, cover in shrink_instances():
        res = closed_shrinking(cover)
        u_sup = cover.supports()
        w_sup = res.open_shrink.supports()
        covered = np.zeros(space.size, dtype=bool)
        for i in range(cover.size):
            f_mask = np.zeros(space.size, dtype=bool)
            f_mask[sorted(res.closed_shrink[i])] = True
            assert not (w_sup[i] & ~f_mask).any(), f"W not inside F at member {i}"
            assert not (f_mask & ~u_sup[i]).any(), f"F not inside U at member {i}"
            covered |= f_mask
        assert covered.all(), "closed shrinking fails to cover"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"budget 5 s exceeded: {elapsed:.2f} s"


@criterion(2, "star refinement puts every member star inside an input member")
def test_criterion_2_star_refinement():
    t0 = time.perf_counter()
    for _, cover in star_instances():
        refined, _ = star_refinement(cover)
        vs = refined.supports()
        us = cover.supports()
        for j in range(refined.size):
            meets = (vs & vs[j]).any(axis=1)
            star_mask = vs[meets].any(axis=0) if meets.any() else vs[j]
            assert any(
                not (star_mask & ~us[i]).any() for i in range(cover.size)
            ), f"star of member {j} fits in no input member"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"budget 10 s exceeded: {elapsed:.2f} s"


@criterion(3, "order reduction covers, refines, and meets the order bound")
def test_criterion_3_order_reduction():
    t0 = time.perf_counter()
    for space, cover, n in reduce_instances():
        out = reduce_order(space, cover, n, separator_oracle)
        assert out.uncovered_point() is None, "reduced family does not cover"
        assert refines(out, cover), "reduced family does not refine the input"
        sup = out.supports()
        for combo in itertools.combinations(range(out.size), n + 2):
            common = np.logical_and.reduce(sup[list(combo)])
            assert not common.any(), f"members {combo} still share a point"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"budget 30 s exceeded: {elapsed:.2f} s"


@criterion(4, "nerve dimension equals cover order on every generated cover")
def test_criterion_4_nerve_coincidence():
    t0 = time.perf_counter()
    pool: list[Cover] = []
    for _, cover in shrink_instances():
        pool.append(cover)
        shrunk = closed_shrinking(cover).open_shrink
        if shrunk.uncovered_point() is None:
            pool.append(shrunk)
    for _, cover in star_instances():
        pool.append(cover)
        pool.append(star_refinement(cover)[0])
    for space, cover, n in reduce_instances():
        pool.append(cover)
        pool.append(reduce_order(space, cover, n, separator_oracle))
    assert len(pool) > 600
    for cover in pool:
        assert nerve_of(cover).dim == order_of(cover)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"budget 10 s exceeded: {elapsed:.2f} s"


@criterion(5, "general position separates all small subsets within eps")
def test_criterion_5_general_position():
    t0 = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 9))
        targets = rng.uniform(0.0, 1.0, size=(k, d))
        out = general_position(targets, eps=EPS_GENPOS, seed=seed)
        moved = np.linalg.norm(out - targets, axis=1).max() if k else 0.0
        assert moved <= EPS_GENPOS, f"moved {moved} beyond eps"
        for size in range(2, min(k, d + 1) + 1):
            for combo in itertools.combinations(range(k), size):
                diffs = out[list(combo[1:])] - out[combo[0]]
                smallest = np.linalg.svd(diffs, compute_uv=False).min()
                assert smallest > RANK_TOL, f"subset {combo} is affinely degenerate"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"budget 10 s exceeded: {elapsed:.2f} s"


@criterion(6, "kappa weights sum to one and images stay in active hulls")
def test_criterion_6_kappa_mapping():
    for seed in range(100):
        rng = np.random.default_rng(6000 + seed)
        space = square_space(rng, count=12)
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        cover = random_value_cover(space, k, rng)
        vertices = rng.uniform(0.0, 1.0, size=(k, d))
        km = kappa_map(cover, vertices)
        worst = np.abs(km.weights.sum(axis=1) - 1.0).max()
        assert worst <= WEIGHT_TOL, f"weight row off by {worst}"
        for x in range(space.size):
            active = active_members(cover, x)
            system = np.vstack([vertices[active].T, np.ones(len(active))])
            rhs = np.concatenate([km.values[x], [1.0]])
            _, residual = scipy.optimize.nnls(system, rhs)
            assert residual <= HULL_RESIDUAL_TOL, f"point {x} leaves its hull"


@pytest.fixture(scope="module")
def pipeline_run():
    space = line_space(8)
    t0 = time.perf_counter()
    result = nobeling_embed(space, n=1, T=4, seed=0)
    elapsed = time.perf_counter() - t0
    return space, result, elapsed


@criterion(7, "eight-point line pipeline certificates, n=1, T=4, seed 0")
def test_criterion_7_pipeline(pipeline_run):
    space, r, elapsed = pipeline_run
    assert len(r.stages) == 4

    for st in r.stages:
        step = float(np.linalg.norm(st.f_next - st.f, axis=1).max())
        assert step < 3.0 * st.delta, f"stage {st.t} moved {step} >= 3 delta"

    for prev, nxt in zip(r.stages, r.stages[1:]):
        assert nxt.delta <= prev.delta / 3.0
    assert r.stages[-1].delta_next <= r.stages[-1].delta / 3.0

    for st, avoided in zip(r.stages, r.avoided):
        for x, row in enumerate(r.f):
            dist = avoided.hyperplane.distance_to_point(row)
            assert dist > st.eta_prime / 2.0, f"stage {st.t}, point {x} too close"

    gaps = np.linalg.norm(r.f[:, None, :] - r.f[None, :, :], axis=2)
    closest = float(gaps[np.triu_indices(space.size, k=1)].min())
    assert closest > 0.0
    assert r.injectivity_margin == closest

    # small final-image balls pull back into one member of each stage pair cover
    balls = enumerate_balls(space, r.radii_depth)
    for st in r.stages:
        inner, outer = st.pair_code
        pair_cover = Cover(
            (ball_cozero(space, balls[outer]), complement_cozero(space, balls[inner]))
        )
        sup = pair_cover.supports()
        for x in range(space.size):
            pre = np.linalg.norm(r.f - r.f[x], axis=1) < st.eta / 4.0
            assert sup[:, pre].all(axis=1).any(), f"stage {st.t}, point {x} splits"

    assert verify_result(r, space, n=1).overall
    assert elapsed < 60.0, f"budget 60 s exceeded: {elapsed:.2f} s"


def corrupted(r, mutate):
    doc = json.loads(json.dumps(result_to_json_dict(r)))
    mutate(doc)
    return result_from_json_dict(doc)


@criterion(8, "verification locates all three synthetic corruptions")
def test_criterion_8_tamper_detection(pipeline_run):
    space, r, _ = pipeline_run
    plane = r.avoided[0].hyperplane

    def onto_plane(doc):
        doc["f"][3] = [float(v) for v in plane.base_point()]

    def merge_images(doc):
        doc["f"][5] = list(doc["f"][4])

    def inflate_delta(doc):
        doc["stages"][1]["delta"] = doc["stages"][1]["delta"] * 8.0

    cases = [
        (onto_plane, "point 3"),
        (merge_images, "point"),
        (inflate_delta, "stage 1"),
    ]
    detected = 0
    for mutate, expected in cases:
        report = verify_result(corrupted(r, mutate), space, n=1)
        assert not report.overall
        failures = report.failures()
        assert failures, "corruption missed"
        assert all(f.location for f in failures), "failure without a witness"
        assert any(expected in f.location for f in failures), (
            f"no witness mentions {expected!r}: "
            f"{[(f.name, f.location) for f in failures]}"
        )
        detected += 1
    assert detected == 3


@criterion(9, "repeated pipeline runs produce byte-identical JSON")
def test_criterion_9_determinism(pipeline_run):
    space, first, _ = pipeline_run
    second = nobeling_embed(line_space(8), n=1, T=4, seed=0)
    assert result_to_json_bytes(second) == result_to_json_bytes(first)
