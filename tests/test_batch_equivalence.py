"""The batched lattice cover, span distances, hyperplane measures, ball pairs, triangle check
and the verifier's star and v-mapping checks against references.

The references below walk lattice cells, subset pairs and ball pairs one
at a time, exactly as the definitions read, and check the triangle
inequality over the full matrix. The library's batched routes must give
the same bytes: same member order, same cozero values, same distances,
same pair list, same schedule depth, same verdict and message. The
point-star test gives the verdict of the per-point loop. The verifier's
lattice-free star check gives the verdict of the builder's route (the met
stage cover, then the point-star test), and its batched
v-mapping check the margin and location of the per-point loop. ``eta`` and
``eta_prime`` measure the widest pairs first; against the full scan of
every pair they give the same messages and the same values, up to exact
ties between a pair and its widest superset. Order reduction, which
shrinks the least (n+2)-subset of members sharing a point pass after
pass, gives the bytes and the shrink count of the lexicographic sweep of
every (n+2)-subset.
"""

import math
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest

from dimlab import (
    CertificateError,
    Cover,
    GeneralPositionError,
    InputError,
    SampledSpace,
    pair_schedule,
    reduce_order,
    separator_oracle,
)
from dimlab import dimension, embedding, harness, metric, nobeling_embed, verify_result
from dimlab.metric import (
    DISTANCE_TOL,
    ball_cozero,
    complement_cozero,
    enumerate_balls,
    strictly_included,
)
from dimlab.covers import (
    closed_shrinking,
    dedupe_by_support,
    is_point_star_refinement,
    meet,
    star,
)
from dimlab.embedding import (
    HULL_TOL,
    SCAN_GUARD,
    Hyperplane,
    _disjoint_pairs,
    _lattice_cells,
    _plane_groups,
    _span_distances,
    _stage_covers,
    _subsets,
    ball_preimage_cover,
    enumerate_hyperplanes,
    eta,
    eta_prime,
    result_from_json_dict,
    result_to_json_dict,
)
from conftest import (
    grid_square_space,
    line_space,
    random_ball_cover,
    random_value_cover,
    square_space,
)


def reference_ball_preimage_cover(f, delta):
    """One member per lattice cell in sorted order, then dedupe by support."""
    f = np.asarray(f, dtype=float)
    p, d = f.shape
    m = max(1, math.ceil(math.sqrt(d) / delta))
    cells = set()
    for row in f:
        axes = []
        for c in row:
            lo = max(0, math.floor((c - delta) * m))
            hi = min(m, math.ceil((c + delta) * m))
            axes.append(range(lo, hi + 1))
        cells.update(product(*axes))
    members = []
    for cell in sorted(cells):
        g = np.array(cell, dtype=float) / m
        dist = np.linalg.norm(f - g, axis=1)
        vals = np.maximum(0.0, (delta - dist) / delta)
        if (vals > 0.0).any():
            members.append(np.minimum(1.0, vals))
    if not members:
        raise CertificateError("no grid ball meets the image; grid construction failed")
    cover = dedupe_by_support(Cover(tuple(members)))
    bad = cover.uncovered_point()
    if bad is not None:
        raise CertificateError(f"grid-ball preimages miss sample point {bad}")
    return cover


def reference_lattice_cells(f, radius, m):
    """The union of each row's clamped box, one row at a time, sorted."""
    cells = set()
    for row in np.asarray(f, dtype=float):
        cells.update(product(*(
            range(max(0, math.floor((c - radius) * m)), min(m, math.ceil((c + radius) * m)) + 1)
            for c in row
        )))
    return np.array(sorted(cells), dtype=np.int64).reshape(-1, f.shape[1])


def reference_span_distances(vertices, subsets_a, subsets_b, b_extra=None):
    """One least-squares system per pair, padded and solved in one batch."""
    d = vertices.shape[1]
    systems = []
    rhs = []
    for sa, sb in zip(subsets_a, subsets_b):
        pa = vertices[list(sa)]
        if b_extra is None:
            pb = vertices[list(sb)]
            b_point, b_dirs = pb[0], pb[1:] - pb[0]
        else:
            b_point, b_dirs = b_extra
        cols = [pa[1:] - pa[0], b_dirs]
        systems.append(np.vstack(cols).T)
        rhs.append(b_point - pa[0])
    width = max(s.shape[1] for s in systems)
    m = np.zeros((len(systems), d, width))
    for i, s in enumerate(systems):
        m[i, :, : s.shape[1]] = s
    r = np.asarray(rhs)
    proj = np.einsum("nij,nj->ni", m @ np.linalg.pinv(m), r)
    sq = np.einsum("ni,ni->n", r, r) - np.einsum("ni,ni->n", proj, r)
    return np.sqrt(np.maximum(sq, 0.0))


def reference_eta_pairs(s, n):
    pairs_a, pairs_b = [], []
    for a_size in range(1, min(n + 1, s) + 1):
        for b_size in range(a_size, min(n + 1, s) + 1):
            for sa in combinations(range(s), a_size):
                rest = [i for i in range(s) if i not in sa]
                for sb in combinations(rest, b_size):
                    if a_size == b_size and sb < sa:
                        continue
                    pairs_a.append(sa)
                    pairs_b.append(sb)
    return pairs_a, pairs_b


def full_scan_eta(z, n):
    """eta over every disjoint pair, with the size |A| + |B| of the least pair."""
    pairs_a, pairs_b = reference_eta_pairs(len(z), n)
    if not pairs_a:
        return math.inf, None
    dists = reference_span_distances(z, pairs_a, pairs_b)
    worst = int(dists.argmin())
    if dists[worst] <= HULL_TOL:
        raise GeneralPositionError(
            f"spans of {pairs_a[worst]} and {pairs_b[worst]} meet (distance {dists[worst]:.3g})"
        )
    return float(dists.min()), len(pairs_a[worst]) + len(pairs_b[worst])


def full_scan_eta_prime(z, plane, n):
    """eta' over every subset, with the size of the least subset."""
    subsets = reference_subsets(len(z), n)
    extra = (plane.base_point(), plane.basis())
    dists = reference_span_distances(z, subsets, subsets, b_extra=extra)
    worst = int(dists.argmin())
    if dists[worst] <= HULL_TOL:
        raise GeneralPositionError(
            f"span of {subsets[worst]} touches the hyperplane (distance {dists[worst]:.3g})"
        )
    return float(dists.min()), len(subsets[worst])


def reference_stage_pairs(space, balls):
    """Each new ball m against every earlier q: pairs (q, m), then pairs (m, q)."""
    pairs = []
    for m in range(len(balls)):
        for q in range(m):
            if strictly_included(balls[q], balls[m], space):
                pairs.append((q, m))
        for q in range(m):
            if strictly_included(balls[m], balls[q], space):
                pairs.append((m, q))
    return pairs


def reference_pair_schedule(space, T):
    """Each depth in turn, its whole pair list, until it holds T pairs."""
    depth = 1
    while True:
        balls = enumerate_balls(space, depth)
        pairs = reference_stage_pairs(space, balls)
        if len(pairs) >= T:
            return balls, pairs[:T], depth
        depth += 1


def reference_reduce_order(space, cover, n, oracle):
    """Sweep every (n+2)-subset of members in lexicographic order, shrinking
    each whose members still share a point."""
    s = cover.size
    if s < n + 2:
        return cover
    g = cover.matrix.copy()
    for subset in combinations(range(s), n + 2):
        live = (g[list(subset)] > 0.0).all(axis=0)
        if not live.any():
            continue
        rest = [j for j in range(s) if j not in subset]
        aux = g[list(subset)]
        if rest:
            aux[-1] = np.maximum(aux[-1], np.max(g[rest], axis=0))
        shrunk = dimension.shrink_to_empty_intersection(space, Cover(aux), oracle)
        for m, d in enumerate(subset[:-1]):
            g[d] = shrunk.matrix[m]
        g[subset[-1]] = np.minimum(shrunk.matrix[-1], g[subset[-1]])
        g = closed_shrinking(Cover(g)).open_shrink.matrix.copy()
    return Cover(g)


def reference_triangle_message(d):
    """Full-matrix check in row blocks: the message for the first violation, or None."""
    d = np.asarray(d, dtype=float)
    rows = max(1, metric._CHUNK_FLOATS // d.size)
    for start in range(0, d.shape[0], rows):
        block = d[start : start + rows]
        slack = (block[:, :, None] + d[None, :, :]).min(axis=1) - block
        if (slack < -DISTANCE_TOL).any():
            i, k = np.argwhere(slack < -DISTANCE_TOL)[0]
            return f"triangle inequality violated at points {start + i}, {k}"
    return None


def reference_subsets(s, n):
    return [sa for a_size in range(1, min(n + 1, s) + 1) for sa in combinations(range(s), a_size)]


def flatten(groups):
    pairs_a, pairs_b = [], []
    for ia, ib in groups:
        pairs_a += [tuple(int(v) for v in row) for row in ia]
        pairs_b += [tuple(int(v) for v in row) for row in ib]
    return pairs_a, pairs_b


def random_images(rng, p, d, delta, clustered=False):
    """p image points in the cube, some coordinates clamped onto faces 0 and 1."""
    if clustered:
        f = rng.uniform(0.0, 1.0, d) + rng.uniform(-2.0 * delta, 2.0 * delta, (p, d))
    else:
        f = rng.uniform(0.0, 1.0, (p, d))
    face = rng.uniform(size=(p, d))
    f[face < 0.15] = 0.0
    f[face > 0.85] = 1.0
    return np.clip(f, 0.0, 1.0)


def assert_same_cover(f, delta):
    space = line_space(f.shape[0])
    got = ball_preimage_cover(space, f, delta)
    want = reference_ball_preimage_cover(f, delta)
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()


def cover_cases(d, count, seed, clustered=False):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.integers(1, 14))
        delta = float(10.0 ** rng.uniform(-3.0, math.log10(0.5)))
        yield random_images(rng, p, d, delta, clustered), delta


class TestBallPreimageCoverBytes:
    @pytest.mark.parametrize("d,count", [(1, 120), (3, 40)])
    def test_matches_per_cell_walk(self, d, count):
        for f, delta in cover_cases(d, count, seed=100 + d):
            assert_same_cover(f, delta)

    def test_matches_per_cell_walk_d5(self):
        # ~7.5^5 cells per image point: few cases, images clustered so
        # thirteen points still share most of their cells
        rng = np.random.default_rng(105)
        for p in (1, 2, 13):
            delta = float(10.0 ** rng.uniform(-3.0, math.log10(0.5)))
            assert_same_cover(random_images(rng, p, 5, delta, clustered=p > 2), delta)

    def test_small_blocks_keep_first_support(self, monkeypatch):
        # many blocks per call: the first cell of a support may sit in an
        # earlier block than its later duplicates
        monkeypatch.setattr(embedding, "_CHUNK_FLOATS", 64)
        for f, delta in cover_cases(3, 15, seed=7):
            assert_same_cover(f, delta)

    def test_uncovered_point_message(self):
        f = np.array([[0.5, 0.5, 0.5], [3.0, 3.0, 3.0]])
        with pytest.raises(CertificateError) as want:
            reference_ball_preimage_cover(f, 0.1)
        with pytest.raises(CertificateError) as got:
            ball_preimage_cover(line_space(2), f, 0.1)
        assert str(got.value) == str(want.value) == "grid-ball preimages miss sample point 1"

    def test_grid_too_fine_to_index(self):
        # cell indices are int64; past 2^62 steps per axis the cover fails by name
        with pytest.raises(CertificateError, match="too fine to index"):
            ball_preimage_cover(line_space(1), np.array([[0.5, 0.5, 0.5]]), 1e-19)

    def test_no_cell_message(self):
        f = np.array([[3.0, 3.0, 3.0]])
        with pytest.raises(CertificateError) as want:
            reference_ball_preimage_cover(f, 0.1)
        with pytest.raises(CertificateError) as got:
            ball_preimage_cover(line_space(1), f, 0.1)
        assert str(got.value) == str(want.value)


class TestLatticeCells:
    """The one-pass cells against the union of the per-row boxes."""

    @pytest.mark.parametrize("d,count", [(1, 40), (2, 30), (3, 20), (4, 6), (5, 3)])
    def test_matches_per_row_boxes(self, d, count):
        # random_images clamps some coordinates onto the faces 0 and 1
        rng = np.random.default_rng(700 + d)
        for _ in range(count):
            p = int(rng.integers(1, 9))
            radius = float(10.0 ** rng.uniform(-3.0, math.log10(0.5)))
            m = max(1, math.ceil(math.sqrt(d) / radius))
            f = random_images(rng, p, d, radius, clustered=d > 3)
            got = _lattice_cells(f, radius, m)
            want = reference_lattice_cells(f, radius, m)
            assert got.dtype == np.int64
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_rows_with_empty_clamped_boxes(self):
        # rows 1 and 3 lie beyond the faces by more than the radius, row 2
        # sticks out by less and keeps the face cells
        f = np.array([[0.5, 0.5], [3.0, 0.5], [1.05, 0.0], [-0.5, -0.5]])
        got = _lattice_cells(f, 0.1, 10)
        assert got.tobytes() == reference_lattice_cells(f, 0.1, 10).tobytes()
        assert got.tobytes() == _lattice_cells(f[[0, 2]], 0.1, 10).tobytes()
        empty = _lattice_cells(f[[1, 3]], 0.1, 10)
        assert empty.shape == (0, 2) and empty.dtype == np.int64

    @pytest.mark.parametrize("chunk", [1, 40, 300])
    def test_row_blocks(self, monkeypatch, chunk):
        # one row per block, a few rows per block, and blocks that end
        # inside the row list
        monkeypatch.setattr(embedding, "_CHUNK_FLOATS", chunk)
        rng = np.random.default_rng(710)
        for d in (1, 2, 3):
            f = random_images(rng, 11, d, 0.2)
            got = _lattice_cells(f, 0.2, 9)
            assert got.tobytes() == reference_lattice_cells(f, 0.2, 9).tobytes()


def span_distance(a, b):
    """Distance between the affine hulls of the point lists a and b."""
    z = np.array(a + b, dtype=float)
    groups = [(np.arange(len(a))[None], np.arange(len(a), len(z))[None])]
    return float(_span_distances(z, groups)[0])


class TestSpanDistanceBytes:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_eta_pairs_and_distances(self, n):
        rng = np.random.default_rng(200 + n)
        for s in range(1, 10 if n < 3 else 9):
            z = rng.uniform(0.0, 1.0, (s, 2 * n + 1))
            groups = _disjoint_pairs(s, n)
            pairs_a, pairs_b = reference_eta_pairs(s, n)
            assert flatten(groups) == (pairs_a, pairs_b)
            if not pairs_a:
                assert eta(z, n) == math.inf
                continue
            want = reference_span_distances(z, pairs_a, pairs_b)
            got = _span_distances(z, groups)
            assert got.tobytes() == want.tobytes()
            assert eta(z, n) == float(want.min())

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_eta_prime_every_plane_kind(self, n):
        # every fixed-coordinate set, with values on the faces and inside
        rng = np.random.default_rng(300 + n)
        planes = enumerate_hyperplanes(n, 60 if n < 2 else 200)
        kinds = {}
        for plane in planes:
            edge = tuple(v in (0, 1) for v in plane.values)
            kinds.setdefault((plane.coords, edge), plane)
        assert len(kinds) > len({pl.coords for pl in planes})
        for plane in kinds.values():
            for s in (1, 3, 6):
                z = rng.uniform(0.0, 1.0, (s, 2 * n + 1))
                subsets = reference_subsets(s, n)
                extra = (plane.base_point(), plane.basis())
                want = reference_span_distances(z, subsets, subsets, b_extra=extra)
                # the route under test appends the plane's n+1 spanning points
                # to the vertices and pairs every subset with them
                zp, groups = _plane_groups(z, plane, n)
                assert zp.shape == (s + n + 1, 2 * n + 1)
                assert flatten(groups) == (subsets, [tuple(range(s, s + n + 1))] * len(subsets))
                got = _span_distances(zp, groups)
                assert got.tobytes() == want.tobytes()
                if want.min() > HULL_TOL:
                    assert eta_prime(z, plane, n) == float(want.min())

    def test_single_vertex(self):
        z = np.array([[0.2, 0.4, 0.6]])
        assert eta(z, 1) == math.inf
        plane = enumerate_hyperplanes(1, 5)[4]
        assert eta_prime(z, plane, 1) == pytest.approx(plane.distance_to_point(z[0]))

    def test_meeting_spans_message(self):
        z = np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7], [0.5, 0.5, 0.5], [0.4, 0.1, 0.9]])
        pairs_a, pairs_b = reference_eta_pairs(4, 1)
        dists = reference_span_distances(z, pairs_a, pairs_b)
        worst = int(dists.argmin())
        with pytest.raises(GeneralPositionError) as got:
            eta(z, 1)
        assert str(got.value) == (
            f"spans of {pairs_a[worst]} and {pairs_b[worst]} meet "
            f"(distance {dists[worst]:.3g})"
        )

    # hull-to-hull and hull-to-plane cases with known distances

    def test_point_to_point(self):
        assert span_distance([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)

    def test_point_to_spanning_hull(self):
        # hull of three affinely independent points in the plane is the plane
        hull = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert span_distance([[5.0, -3.0]], hull) == pytest.approx(0.0)

    def test_parallel_lines(self):
        a = [[0.0, 0.0], [1.0, 0.0]]
        b = [[0.0, 1.0], [2.0, 1.0]]
        assert span_distance(a, b) == pytest.approx(1.0)

    def test_skew_lines_in_3d(self):
        # the x-axis and the line through (0, 0, 1) along y are 1 apart
        a = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        b = [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        assert span_distance(a, b) == pytest.approx(1.0)

    def test_point_to_plane_matches_fixed_coords(self, rng):
        h = Hyperplane((0, 2), (F(1, 4), F(3, 4)))
        for _ in range(10):
            x = rng.uniform(0.0, 1.0, size=(1, 3))
            got = float(_span_distances(*_plane_groups(x, h, 1))[0])
            assert got == pytest.approx(h.distance_to_point(x[0]), abs=1e-9)

    def test_touching_plane_message(self):
        plane = enumerate_hyperplanes(1, 1)[0]
        z = np.array([[0.6, 0.3, 0.9], [0.0, 0.0, 0.4], [0.2, 0.7, 0.1]])
        with pytest.raises(GeneralPositionError) as got:
            eta_prime(z, plane, 1)
        assert str(got.value) == "span of (1,) touches the hyperplane (distance 0)"


def near_degenerate_vertices(rng, n, kind, plane):
    """One corpus case: dyadic-rounded, nearly collinear, a vertex on the plane, or uniform."""
    d = 2 * n + 1
    s = int(rng.integers(1, 2 * n + 4))
    z = rng.uniform(0.0, 1.0, (s, d))
    if kind == "dyadic":
        scale = 2.0 ** int(rng.integers(1, 4))
        z = np.round(z * scale) / scale
    elif kind == "collinear":
        a, b = rng.uniform(0.0, 1.0, (2, d))
        near = rng.uniform(size=s) < 0.6
        t = rng.uniform(0.0, 1.0, (int(near.sum()), 1))
        z[near] = a + t * (b - a) + rng.uniform(-3e-9, 3e-9, (int(near.sum()), d))
    elif kind == "on-plane":
        z[int(rng.integers(s)), list(plane.coords)] = [float(v) for v in plane.values]
    return z


class TestWidestFirst:
    """eta and eta_prime measure the widest pairs first, then the full scan below SCAN_GUARD."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_full_scan_on_near_degenerate_sets(self, n):
        rng = np.random.default_rng(600 + n)
        planes = enumerate_hyperplanes(n, 40)
        calls = raised = ties = 0
        for kind in ("dyadic", "collinear", "on-plane", "uniform"):
            for _ in range(24 if n < 3 else 12):
                plane = planes[int(rng.integers(len(planes)))]
                z = near_degenerate_vertices(rng, n, kind, plane)
                widest_eta, widest_prime = min(len(z), 2 * n + 2), min(len(z), n + 1)
                for run, full_scan, widest in (
                    (lambda: eta(z, n), lambda: full_scan_eta(z, n), widest_eta),
                    (lambda: eta_prime(z, plane, n), lambda: full_scan_eta_prime(z, plane, n),
                     widest_prime),
                ):
                    calls += 1
                    try:
                        want, size = full_scan()
                    except GeneralPositionError as exc:
                        with pytest.raises(GeneralPositionError) as got:
                            run()
                        assert str(got.value) == str(exc)
                        raised += 1
                        continue
                    got = run()
                    if got != want:
                        # an exact tie: the least pair of the full scan is
                        # not a widest one, and a widest pair holding it
                        # is as far up to rounding
                        assert size < widest
                        assert abs(got - want) <= 1e-14 * want
                        ties += 1
        assert raised >= calls // 10
        assert ties <= calls // 50

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_widest_distances_keep_their_bytes(self, n):
        rng = np.random.default_rng(650 + n)
        for s in range(2, 10 if n < 3 else 9):
            z = rng.uniform(0.0, 1.0, (s, 2 * n + 1))
            groups = _disjoint_pairs(s, n)
            sizes = [ia.shape[1] + ib.shape[1] for ia, ib in groups]
            widest = [g for g, size in zip(groups, sizes) if size == max(sizes)]
            rows = np.repeat(np.array(sizes) == max(sizes), [len(ia) for ia, _ in groups])
            full = _span_distances(z, groups)
            assert _span_distances(z, widest).tobytes() == full[rows].tobytes()

    def test_guard_band_returns_full_scan_minimum(self, monkeypatch):
        # vertex 0 sits 3.6e-7 off the plane and the edge to vertex 1 runs
        # along the free axis, so subset (0,) and the widest subset (0, 1)
        # are equally far; below SCAN_GUARD every group is measured again
        # and the full scan's minimum is the value
        plane = Hyperplane((0, 1), (F(1, 3), F(1, 2)))
        v = np.array([1 / 3 + 3e-7, 0.5 - 2e-7, 0.2])
        z = np.array([v, v + [0.0, 0.0, 0.5]])
        zp, groups = _plane_groups(z, plane, 1)
        widest = float(_span_distances(zp, groups[-1:]).min())
        assert HULL_TOL < widest <= SCAN_GUARD
        calls = []

        def recording(vertices, groups):
            calls.append([len(ia) for ia, _ in groups])
            return _span_distances(vertices, groups)

        monkeypatch.setattr(embedding, "_span_distances", recording)
        assert eta_prime(z, plane, 1) == full_scan_eta_prime(z, plane, 1)[0]
        # the widest group (0, 1) alone, then both groups of the full scan
        assert calls == [[1], [2, 1]]

    def test_cached_groups_are_read_only(self):
        assert _disjoint_pairs(6, 1) is _disjoint_pairs(6, 1)
        for ia, ib in _disjoint_pairs(6, 1):
            for rows in (ia, ib):
                with pytest.raises(ValueError):
                    rows[0, 0] = 5
        with pytest.raises(ValueError):
            _subsets(6, 2)[0, 0] = 5


class TestHyperplaneRowBytes:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_rows_match_per_point_reference(self, n):
        # every plane kind of the first 40, points off the plane, on it, and
        # on some of its equations only
        rng = np.random.default_rng(500 + n)
        for plane in enumerate_hyperplanes(n, 40):
            x = rng.uniform(0.0, 1.0, (30, 2 * n + 1))
            on = rng.uniform(size=x.shape) < 0.5
            on[:10] = True
            for c, v in zip(plane.coords, plane.values):
                x[on[:, c], c] = float(v)
            offsets = [[row[c] - float(v) for c, v in zip(plane.coords, plane.values)] for row in x]
            dist = [math.sqrt(sum(o * o for o in off)) for off in offsets]
            worst = [max(abs(o) for o in off) for off in offsets]
            assert plane.distance_to_point(x).tobytes() == np.array(dist).tobytes()
            assert plane.equation_violation(x).tobytes() == np.array(worst).tobytes()
            assert plane.contains(x).tolist() == [w == 0.0 for w in worst]
            assert [plane.distance_to_point(row) for row in x] == dist
            assert [plane.equation_violation(row) for row in x] == worst
            assert all(plane.contains(row) for row in x[:10])


def assert_same_pairs(space, depth):
    balls = enumerate_balls(space, depth)
    want = reference_stage_pairs(space, balls)
    got = pair_schedule(space, len(want))[1]
    assert got == want
    assert all(type(i) is int for pair in got for i in pair)
    return got


class TestStagePairsList:
    @pytest.mark.parametrize(
        "seed, counts, depth",
        [pytest.param(400 + k, (2, 5, 13, 24), k, id=str(k)) for k in (1, 2, 3, 4)]
        + [pytest.param(420, (11,), k, id=f"seed420-11pts-depth{k}") for k in (1, 3)],
    )
    def test_seeded_square_samples(self, seed, counts, depth):
        rng = np.random.default_rng(seed)
        for count in counts:
            assert_same_pairs(square_space(rng, count=count), depth)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_distance_only_space(self, depth):
        rng = np.random.default_rng(410 + depth)
        pts = rng.uniform(0.0, 1.0, size=(15, 3))
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        assert_same_pairs(SampledSpace.from_distance_matrix(dist, mesh=0.5), depth)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_one_point_space(self, depth):
        # diameter zero: radii fall back to the mesh, and each smaller ball
        # sits strictly inside every larger one around the same point
        got = assert_same_pairs(SampledSpace.from_points([[0.3]], mesh=0.1), depth)
        assert len(got) == depth * (depth + 1) // 2

    def test_exact_tie_does_not_pair(self):
        # on 0, 1/2, 1 the ball (1/2, 1/2) meets the ball (0, 1) with
        # d == r_m - r_q exactly: not strictly inside
        space = line_space(3)
        balls = enumerate_balls(space, 1)
        assert (balls[4].center, balls[4].radius) == (1, 0.5)
        assert (balls[0].center, balls[0].radius) == (0, 1.0)
        assert space.dist[1, 0] == balls[0].radius - balls[4].radius
        got = assert_same_pairs(space, 1)
        assert (4, 0) not in got and (4, 2) not in got
        assert (4, 1) in got

    def test_equal_indices_are_one_object(self):
        # ints above 256 are not cached by the interpreter: each index must
        # still be a single object however many pairs it appears in
        space = square_space(np.random.default_rng(430), count=160)
        got = pair_schedule(space, len(reference_stage_pairs(space, enumerate_balls(space, 1))))[1]
        seen = {}
        for i in (i for pair in got for i in pair):
            assert seen.setdefault(i, i) is i
        assert max(seen) >= 257


def assert_same_schedule(space, T):
    balls, pairs, depth = pair_schedule(space, T)
    want_balls, want_pairs, want_depth = reference_pair_schedule(space, T)
    assert (depth, pairs) == (want_depth, want_pairs)
    assert [(b.center, b.radius) for b in balls] == [(b.center, b.radius) for b in want_balls]
    assert pairs == pair_schedule(space, len(reference_stage_pairs(space, balls)))[1][:T]
    assert all(type(i) is int for pair in pairs for i in pair)
    return depth


class TestPairSchedule:
    def test_at_and_past_the_end_of_depth_one(self):
        space = square_space(np.random.default_rng(440), count=9)
        last = len(reference_stage_pairs(space, enumerate_balls(space, 1)))
        assert assert_same_schedule(space, 0) == 1
        assert assert_same_schedule(space, 1) == 1
        assert assert_same_schedule(space, last) == 1
        assert assert_same_schedule(space, last + 1) == 2

    def test_negative_demand_slices_like_a_list(self):
        space = line_space(4)
        assert assert_same_schedule(space, -1) == 1

    @pytest.mark.parametrize(
        "seed, counts, T",
        [pytest.param(450 + T, (2, 6, 17), T, id=str(T)) for T in (1, 7, 40, 200)]
        + [pytest.param(470, (10,), T, id=f"seed470-10pts-T{T}") for T in (0, 3, 45, 300)],
    )
    def test_seeded_square_samples(self, seed, counts, T):
        rng = np.random.default_rng(seed)
        for count in counts:
            assert_same_schedule(square_space(rng, count=count), T)

    @pytest.mark.parametrize("T", [0, 5, 60])
    def test_distance_only_space(self, T):
        rng = np.random.default_rng(460 + T)
        pts = rng.uniform(0.0, 1.0, size=(12, 3))
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        assert_same_schedule(SampledSpace.from_distance_matrix(dist, mesh=0.5), T)

    @pytest.mark.parametrize("T", [0, 1, 2, 3, 4, 10])
    def test_one_point_space(self, T):
        # depth k makes k (k + 1) / 2 pairs: 1, 3, 6, ...
        space = SampledSpace.from_points([[0.3]], mesh=0.1)
        depth = assert_same_schedule(space, T)
        assert depth == next(k for k in range(1, 10) if k * (k + 1) // 2 >= T)


def euclidean_matrix(rng, count, dim=2):
    pts = rng.uniform(0.0, 1.0, size=(count, dim))
    return np.linalg.norm(pts[:, None] - pts[None], axis=2)


def triangle_message(d):
    try:
        SampledSpace.from_distance_matrix(d, mesh=1.0)
    except InputError as exc:
        return str(exc)
    return None


def assert_same_triangle_verdict(d):
    want = reference_triangle_message(d)
    assert triangle_message(d) == want
    return want


class TestTriangleCheck:
    # blocks of one row, of a few rows, of one row beyond _CHUNK_FLOATS,
    # and the whole matrix in one block
    CHUNKS = [1, 50, 400, 1 << 20]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_seeded_metrics_pass(self, monkeypatch, chunk):
        monkeypatch.setattr(metric, "_CHUNK_FLOATS", chunk)
        rng = np.random.default_rng(500)
        for count in (1, 2, 3, 8, 21):
            assert assert_same_triangle_verdict(euclidean_matrix(rng, count)) is None

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_planted_violations(self, monkeypatch, chunk):
        # stretched and shrunk entries at random places, one to three at a
        # time: the first violation then sits above and below the diagonal
        # of the changed entries and anywhere in the row blocks
        monkeypatch.setattr(metric, "_CHUNK_FLOATS", chunk)
        rng = np.random.default_rng(510)
        found = 0
        for _ in range(60):
            count = int(rng.integers(3, 16))
            d = euclidean_matrix(rng, count)
            for _ in range(int(rng.integers(1, 4))):
                i, k = rng.choice(count, size=2, replace=False)
                d[i, k] = d[k, i] = d[i, k] * rng.choice([0.05, 3.0])
            found += assert_same_triangle_verdict(d) is not None
        assert found > 40

    @pytest.mark.parametrize("chunk", [2 * 25, 3 * 25, 25 * 4])
    def test_violation_at_block_boundaries(self, monkeypatch, chunk):
        # five points on a line; each single stretched pair names itself,
        # with rows split at every block edge the chunk size makes
        monkeypatch.setattr(metric, "_CHUNK_FLOATS", chunk)
        line = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
        for i, k in combinations(range(5), 2):
            if k - i < 2:
                continue
            d = line.copy()
            d[i, k] = d[k, i] = k - i + 1.0
            assert assert_same_triangle_verdict(d) == f"triangle inequality violated at points {i}, {k}"

    def test_slack_of_exactly_minus_tol_is_not_a_violation(self):
        t = DISTANCE_TOL
        d = np.array([[0.0, t / 2, 2 * t], [t / 2, 0.0, t / 2], [2 * t, t / 2, 0.0]])
        assert (d[0, 1] + d[1, 2]) - d[0, 2] == -DISTANCE_TOL
        assert assert_same_triangle_verdict(d) is None
        d[0, 2] = d[2, 0] = np.nextafter(2 * t, 1.0)
        assert assert_same_triangle_verdict(d) == "triangle inequality violated at points 0, 2"

    def test_one_and_two_points(self):
        assert assert_same_triangle_verdict(np.zeros((1, 1))) is None
        assert assert_same_triangle_verdict(np.array([[0.0, 3.0], [3.0, 0.0]])) is None


# ---------------------------------------------------------------------------
# the verifier's star-refinement and v-mapping checks


def reference_star_verdict(space, balls, st):
    """The builder's route: the met stage cover, then the point-star test.

    A met cover that cannot be built (a grid too fine to index, a sample
    point no grid ball reaches, an empty meet) certifies nothing: False.
    """
    try:
        met = _stage_covers(space, balls, st.pair_code, st.f, st.delta)[1]
    except (CertificateError, InputError):
        return False
    return is_point_star_refinement(st.cover_u, met)


def reference_v_mapping(r, space, balls, st):
    """(passed, margin, location) of the per-point v-mapping loop."""
    inner, outer = st.pair_code
    cover_v = Cover((ball_cozero(space, balls[outer]), complement_cozero(space, balls[inner])))
    loc = f"stage {st.t}"
    vm_margin, vm_loc = math.inf, loc
    supports = cover_v.supports()
    for x in range(space.size):
        pre = np.linalg.norm(r.f - r.f[x], axis=1) < st.eta / 4.0
        inside = supports[:, pre].all(axis=1)
        if not (pre.any() and inside.any()):
            vm_margin, vm_loc = 0.0, f"{loc}, point {x}"
            break
        vm_margin = min(vm_margin, float(cover_v.matrix[inside][:, pre].min(axis=1).max()))
    return vm_loc == loc, vm_margin, vm_loc


def assert_checks_match_references(r, space, n):
    report = verify_result(r, space, n)
    balls = pair_schedule(space, len(r.stages))[0]
    star = [c for c in report.checks if c.name == "star-refinement"]
    vmap = [c for c in report.checks if c.name == "v-mapping"]
    assert len(star) == len(vmap) == len(r.stages)
    for st, s_check, v_check in zip(r.stages, star, vmap):
        assert s_check.passed == reference_star_verdict(space, balls, st), st.t
        assert (s_check.margin, s_check.location) == (
            (0.0 if s_check.passed else -1.0), f"stage {st.t}")
        assert (v_check.passed, v_check.margin, v_check.location) == reference_v_mapping(
            r, space, balls, st)
    return report


GOLDEN_RUNS = [("line8", 1, 4, 0), ("line8", 1, 16, 0), ("line8", 1, 16, 3), ("grid4x3", 2, 2, 0)]


@pytest.fixture(scope="module")
def golden_runs():
    runs = []
    for name, n, T, seed in GOLDEN_RUNS:
        space = line_space(8) if name == "line8" else grid_square_space(4, 3)
        runs.append((space, n, nobeling_embed(space, n=n, T=T, seed=seed)))
    return runs


def tampered(r, kind, t, rng):
    """r with one seeded change of the given kind to stage t."""
    doc = result_to_json_dict(r)
    st = doc["stages"][t]
    if kind == "delta-shrunk":
        st["delta"] *= float(rng.uniform(0.05, 0.5))
    elif kind == "image-moved":
        y = int(rng.integers(len(st["f"])))
        step = rng.normal(size=len(st["f"][y]))
        st["f"][y] = (np.array(st["f"][y]) + 1.5 * st["delta"] * step / np.linalg.norm(step)).tolist()
    elif kind == "members-reversed":
        st["cover_u"]["members"].reverse()
    elif kind == "points-reversed":
        p = len(r.f)
        for member in st["cover_u"]["members"]:
            member["values"] = {str(p - 1 - int(x)): v for x, v in member["values"].items()}
    elif kind == "pair-swapped":
        st["pair_code"] = st["pair_code"][::-1]
    elif kind == "eta-inflated":
        st["eta"] *= float(10.0 ** rng.uniform(0.3, 4.0))
    return result_from_json_dict(doc)


TAMPERS = ["delta-shrunk", "image-moved", "members-reversed", "points-reversed",
           "pair-swapped", "eta-inflated"]


def random_star_case(rng, d):
    """A random cover, ball-pair rows, images in the cube and scale over p points."""
    p = int(rng.integers(2, 10))
    delta = float(10.0 ** rng.uniform(-2.5, math.log10(0.4)))
    f = random_images(rng, p, d, delta, clustered=rng.uniform() < 0.7)
    k = int(rng.integers(1, p + 1))
    sup = rng.uniform(size=(k, p)) < rng.uniform(0.1, 0.5)
    sup[np.arange(k), rng.integers(0, p, k)] = True
    cover_u = Cover(np.where(sup, rng.uniform(0.1, 1.0, (k, p)), 0.0))
    cover_v = np.where(rng.uniform(size=(2, p)) < 0.85, rng.uniform(0.1, 1.0, (2, p)), 0.0)
    return cover_u, cover_v, f, delta


def reference_met_star(cover_u, cover_v, f, delta):
    try:
        w = ball_preimage_cover(line_space(f.shape[0]), f, delta)
        return is_point_star_refinement(cover_u, meet(Cover(cover_v), w))
    except (CertificateError, InputError):
        return False


class TestStarRefinementCheck:
    def test_golden_runs(self, golden_runs):
        for space, n, r in golden_runs:
            assert assert_checks_match_references(r, space, n).overall

    @pytest.mark.parametrize("kind", TAMPERS)
    def test_seeded_tampers(self, golden_runs, kind):
        # stage 0, where the stars of the line runs have two points, and one
        # later stage of each line run
        rng = np.random.default_rng(1300 + TAMPERS.index(kind))
        verdicts = set()
        for space, n, r in golden_runs[0], golden_runs[2]:
            for t in 0, int(rng.integers(1, len(r.stages))):
                report = assert_checks_match_references(tampered(r, kind, t, rng), space, n)
                assert not report.overall
                verdicts.add(next(c.passed for c in report.checks
                                  if (c.name, c.location) == ("star-refinement", f"stage {t}")))
        # member order and eta do not enter the star check; a swapped pair
        # leaves the points between the two balls in no V member
        if kind in ("members-reversed", "eta-inflated"):
            assert verdicts == {True}
        elif kind == "pair-swapped":
            assert verdicts == {False}

    def test_only_the_grid_half_fails(self, golden_runs):
        # the stars still lie in V members; at a third of the scale no grid
        # ball holds both images of a two-point star
        space, n, r = golden_runs[0]
        doc = result_to_json_dict(r)
        doc["stages"][0]["delta"] /= 3.0
        bad = result_from_json_dict(doc)
        st = bad.stages[0]
        balls = pair_schedule(space, len(bad.stages))[0]
        inner, outer = st.pair_code
        v = np.vstack((ball_cozero(space, balls[outer]), complement_cozero(space, balls[inner])))
        sup = st.cover_u.supports()
        for x in range(space.size):
            star = sup[sup[:, x]].any(axis=0)
            assert any(not (star & ~(row > 0.0)).any() for row in v)
        report = assert_checks_match_references(bad, space, n)
        failed = {(c.name, c.location) for c in report.failures()}
        assert ("star-refinement", "stage 0") in failed

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_covers(self, d):
        rng = np.random.default_rng(1310 + d)
        verdicts = []
        for _ in range(60):
            case = random_star_case(rng, d)
            verdicts.append(harness._stars_in_met_cover(*case))
            assert verdicts[-1] == reference_met_star(*case)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_small_blocks(self, monkeypatch, chunk):
        # one cell per block, and blocks that end inside a star's box
        monkeypatch.setattr(harness, "_CHUNK_FLOATS", chunk)
        rng = np.random.default_rng(1320)
        for _ in range(20):
            case = random_star_case(rng, 2)
            assert harness._stars_in_met_cover(*case) == reference_met_star(*case)

    def test_cell_off_the_middle(self):
        # the middle cell of the star's box, (3, 1)/5, is 0.322 from image 2;
        # the cell (4, 2)/5 is within 0.3 of all three
        f = np.array([[0.85, 0.13], [0.52, 0.4], [0.79, 0.46]])
        assert np.linalg.norm(f[2] - [0.6, 0.2]) > 0.3
        assert (np.linalg.norm(f - [0.8, 0.4], axis=1) < 0.3).all()
        cover_u, cover_v = Cover(np.ones((1, 3))), np.ones((2, 3))
        assert harness._stars_in_met_cover(cover_u, cover_v, f, 0.3)
        assert reference_met_star(cover_u, cover_v, f, 0.3)
        assert not harness._stars_in_met_cover(cover_u, cover_v, f, 0.25)
        assert not reference_met_star(cover_u, cover_v, f, 0.25)


def reference_is_point_star_refinement(v, u):
    """The star of each point of v in turn, tested against every member of u."""
    us = u.supports()
    for x in range(v.sample_size):
        st = star([x], v)
        if not st:
            continue  # a point no member touches has an empty, vacuous star
        if not us[:, sorted(st)].all(axis=1).any():
            return False
    return True


def random_point_star_case(rng):
    """Two random families over one sample; some points may lie in no member of v."""
    p = int(rng.integers(1, 12))
    v = np.where(rng.uniform(size=(int(rng.integers(1, 6)), p)) < rng.uniform(0.1, 0.6),
                 rng.uniform(0.1, 1.0, (1, p)), 0.0)
    u = np.where(rng.uniform(size=(int(rng.integers(1, 6)), p)) < rng.uniform(0.3, 0.95),
                 rng.uniform(0.1, 1.0, (1, p)), 0.0)
    return Cover(v), Cover(u)


class TestPointStarRefinement:
    """The batched point-star test against the per-point loop."""

    def test_random_covers(self):
        rng = np.random.default_rng(1400)
        verdicts = []
        for _ in range(400):
            v, u = random_point_star_case(rng)
            verdicts.append(is_point_star_refinement(v, u))
            assert verdicts[-1] == reference_is_point_star_refinement(v, u)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("v, u, want", [
        # point 2 lies in no member of v: its star is vacuous
        ([[1, 1, 0]], [[1, 1, 0]], True),
        ([[1, 0, 0], [0, 1, 0]], [[1, 0, 1], [0, 1, 1]], True),
        ([[1, 1, 0], [0, 1, 1]], [[1, 1, 0], [0, 1, 1]], False),
        ([[1, 1, 1]], [[1, 1, 1]], True),
        ([[1, 1, 1]], [[1, 1, 0], [0, 1, 1]], False),
        ([[0, 0, 0]], [[1, 0, 0]], True),
    ], ids=["untouched-point", "disjoint", "chained", "one-member", "one-member-split", "empty"])
    def test_edge_cases(self, v, u, want):
        v, u = Cover(np.array(v, dtype=float)), Cover(np.array(u, dtype=float))
        assert is_point_star_refinement(v, u) == reference_is_point_star_refinement(v, u) == want

    def test_golden_met_covers(self, golden_runs):
        for space, _, r in golden_runs:
            balls = pair_schedule(space, len(r.stages))[0]
            for st in r.stages:
                met = _stage_covers(space, balls, st.pair_code, st.f, st.delta)[1]
                assert is_point_star_refinement(st.cover_u, met)
                assert reference_is_point_star_refinement(st.cover_u, met)
                for v, u in (met, st.cover_u), (st.cover_u, Cover(met.matrix[:1])):
                    assert is_point_star_refinement(v, u) == reference_is_point_star_refinement(v, u)


class TestReduceOrderSweep:
    """Shrinking the least (n+2)-subset that shares a point, pass after pass,
    shrinks the subsets of the lexicographic sweep in the sweep's order."""

    @pytest.mark.parametrize("make", [random_ball_cover, random_value_cover], ids=["ball", "value"])
    def test_same_bytes_and_shrinks_as_the_sweep(self, make, monkeypatch):
        calls = []
        shrink = dimension.shrink_to_empty_intersection

        def counted(*args):
            calls.append(args)
            return shrink(*args)

        monkeypatch.setattr(dimension, "shrink_to_empty_intersection", counted)
        rng = np.random.default_rng(990)
        small = shrinking = 0
        for _ in range(150):
            n, k = int(rng.integers(0, 3)), int(rng.integers(1, 8))
            space = square_space(rng, int(rng.integers(8, 20)))
            cover = make(space, k, rng)
            want = reference_reduce_order(space, cover, n, separator_oracle)
            want_calls, calls[:] = len(calls), []
            got = reduce_order(space, cover, n, separator_oracle)
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert len(calls) == want_calls
            calls.clear()
            small += k < n + 2
            shrinking += want_calls > 0
        assert small >= 10 and shrinking >= 50
