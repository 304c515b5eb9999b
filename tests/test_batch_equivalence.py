"""The batched lattice cover, span distances, hyperplane measures, ball pairs, triangle check
and the verifier's star and v-mapping checks against references.

The references below walk lattice cells, subset pairs and ball pairs one
at a time, exactly as the definitions read, and check the triangle
inequality over the full matrix. The library's batched routes must give
the same bytes: same member order, same cozero values, same distances,
same pair list, same schedule depth, same verdict and message. A
space whose witness coordinates (its own, or those recovered from its
Gram matrix) the rounding bound certifies skips the triangle sums; on
seeded corpora ``from_points`` and ``from_distance_matrix`` give the full
check's message or distance bytes. The
lattice cover walks only the cells of crowded images and finds an
isolated image's first cell by a per-axis search; its bytes are the
walk's either way. The
point-star test gives the verdict of the per-point loop. The verifier's
lattice-free star check gives the verdict of the builder's route (the met
stage cover, then the point-star test), and its batched
v-mapping check the margin and location of the per-point loop. ``eta`` and
``eta_prime`` measure the widest pairs first; against the full scan of
every pair they give the same messages and the same values, up to exact
ties between a pair and its widest superset. A stage's span job measures
both in one scan and gives each quantity the bytes and the message of its
one-quantity scan. General position measures
only the maximal subsets; against the scan of every subset size it gives
the same verdict and the same least singular value up to rounding, and
names the first maximal subset at or under the tolerance. Both decompose
only the systems that an error-bounded Gram-Schmidt estimate cannot rule
out; against decomposing every system they give the same values, named
subsets and messages, byte for byte. On every stage of the certified n=1
runs their ends bracket the exact least (``exact``, over integers and
Fractions): least low end <= exact least <= least high end. The builder's
general-position verdict, which stops at its first failing subset, names
the same subset. The
verifier runs one sigma grid and one span grid, measuring eta and eta'
together, over the stages that share an index array,
with blocks that hold several stages; at the default block size its report
has the bytes of the per-stage loop that called the one-set sigma scan, ``eta``
and ``eta_prime`` one stage at a time, on valid and tampered results, and
every other block size gives the default size's bytes.
Order reduction, which shrinks the least (n+2)-subset of members sharing a
point pass after pass, gives the bytes and the shrink count of the
lexicographic sweep of every (n+2)-subset. The star refinement, taken as k meet steps, gives the
members, member order and witness of the per-point signature enumeration.
The nerve, its faces enumerated and exported as text that marks each
vertex with its digit count, gives the facets, face order and export bytes
of the tuple-set enumeration and ``json.dumps``.

The block size ``_CHUNK_FLOATS`` only decides how systems are batched, so a
reference that does not depend on it is computed once per input, at the
default size, in a module-scoped fixture, and every patched size is compared
with those bytes.
"""

import json
import math
import tracemalloc
import warnings
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dimlab import (
    Ball,
    CertificateError,
    Cover,
    GeneralPositionError,
    InputError,
    SampledSpace,
    export_complex,
    nerve_of,
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
    order_of,
    star,
    star_refinement,
)
from dimlab.harness import CertificateCheck, CertificateReport
from dimlab.nerve import SimplicialComplex
from dimlab.embedding import (
    CUBE_TOL,
    DELTA0,
    HULL_TOL,
    RANK_TOL,
    SCAN_GUARD,
    Hyperplane,
    _disjoint_pairs,
    _group_row,
    _job_plan,
    _lattice_cells,
    _least_sigmas,
    _plane_pairs,
    _separation,
    _sigma_blocks,
    _solve_spans,
    _span_job,
    _span_columns,
    _span_plan,
    _span_rows,
    _span_distances,
    _stage_covers,
    _stage_vertices,
    _subsets,
    _violating_subset,
    _widest_first,
    ball_preimage_cover,
    enumerate_hyperplanes,
    eta,
    eta_prime,
    general_position,
    kappa_map,
    result_from_json_dict,
    result_to_json_dict,
)
import exact
from conftest import (
    grid_square_space,
    least_sigma,
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


def reference_span_systems(vertices, subsets_a, subsets_b, b_extra=None):
    """One least-squares system (M, r) per pair, built pair by pair and padded to one width."""
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
    return m, np.asarray(rhs)


def reference_span_distances(vertices, subsets_a, subsets_b, b_extra=None):
    """The reference systems, solved in one batch."""
    m, r = reference_span_systems(vertices, subsets_a, subsets_b, b_extra)
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


def reference_star_refinement(c):
    """Enumerate, point by point, the signatures (l, choice) of the meet members
    containing each point, and build each member from its signature."""
    shrink = closed_shrinking(c)
    g = c.matrix
    gp = shrink.open_shrink.matrix
    gt = shrink.tilde
    k, p = g.shape
    comp = np.maximum(0.0, 0.5 - gt)  # exact complement of F_i on the sample

    signatures: set[tuple[int, tuple[int, ...]]] = set()
    for x in range(p):
        ls = np.nonzero(gp[:, x] > 0.0)[0]
        if ls.size == 0:
            # cannot happen on covering input: the open shrinking covers
            raise InputError(f"open shrinking misses point {x}")
        options = []
        for i in range(k):
            opts = []
            if comp[i, x] > 0.0:
                opts.append(0)
            if g[i, x] > 0.0:
                opts.append(1)
            options.append(opts)
        for l in ls:
            for choice in product(*options):
                signatures.add((int(l), choice))

    members = []
    witness = []
    for l, choice in sorted(signatures):
        stack = [gp[l]]
        for i, pick in enumerate(choice):
            stack.append(g[i] if pick == 1 else comp[i])
        member = np.min(np.vstack(stack), axis=0)
        if (member > 0.0).any():
            members.append(member)
            witness.append(l)
    return Cover(members), tuple(witness)


def reference_sorted_faces(k):
    """Per size, the sorted union of the facets' r-subsets as tuples."""
    facets = [sorted(f) for f in k.facets]
    faces = []
    for r in range(1, k.dim + 2):  # per size, the union of the facets' r-subsets
        faces += map(list, sorted(set().union(*(combinations(f, r) for f in facets))))
    return faces


def reference_export_complex(k):
    doc = {"vertices": k.vertex_count, "simplices": reference_sorted_faces(k)}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def reference_nerve_of(cover):
    """One active set per sample point, collected into a set."""
    if cover.size == 0:
        raise InputError("nerve of an empty family is not defined")
    active = {frozenset(np.flatnonzero(col).tolist()) for col in cover.supports().T}
    return SimplicialComplex(cover.size, frozenset(active - {frozenset()}))


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


class TestIsolatedImages:
    """Images farther than 2 delta (plus a rounding margin) from every other
    image take the per-axis search for their first cell; the rest are walked.
    Either way the cover is the walk's, byte for byte."""

    def test_isolated_and_crowded_in_one_call(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            delta = float(rng.uniform(0.02, 0.07))
            # three images within sqrt(3) delta of one another, one at least
            # 0.15 from them on every axis
            near = rng.uniform(0.1, 0.4, (1, 3)) + rng.uniform(-delta / 2, delta / 2, (3, 3))
            f = np.concatenate([near, rng.uniform(0.6, 0.9, (1, 3))])
            f[rng.permutation(4)] = f.copy()
            alone = embedding._isolated(f, delta, math.ceil(math.sqrt(3) / delta))
            assert alone.sum() == 1
            assert_same_cover(f, delta)

    @pytest.mark.parametrize("gap,alone", [(0.0, False), (1e-14, False), (2.0**-30, True)],
                             ids=["exactly-2delta", "within-margin", "beyond-margin"])
    def test_images_about_2delta_apart(self, gap, alone):
        # delta and the images are binary fractions, so the gap is exact
        delta = 0.125
        for d in (1, 3):
            f = np.full((2, d), 0.5)
            f[0, 0] = 0.25 - gap
            assert embedding._isolated(f, delta, math.ceil(math.sqrt(d) / delta)).tolist() == [alone] * 2
            assert_same_cover(f, delta)

    @pytest.mark.parametrize("image", [[1.09] * 3, [1.15] * 3, [1.105, 0.5, 0.5]],
                             ids=["corner", "empty-box", "one-axis"])
    def test_isolated_image_outside_cube(self, image):
        # delta 0.1, m 18. At 0.9 delta beyond each face the box is not empty
        # but its nearest cell, the corner, is sqrt(3) 0.9 delta away; at 1.5
        # delta the box is empty. At 1.05 delta beyond one face only the
        # cell 19 / 18, outside the grid, would be within delta.
        delta = 0.1
        f = np.array([[0.5, 0.5, 0.5], image])
        with pytest.raises(CertificateError) as want:
            reference_ball_preimage_cover(f, delta)
        with pytest.raises(CertificateError) as got:
            ball_preimage_cover(line_space(2), f, delta)
        assert str(got.value) == str(want.value) == "grid-ball preimages miss sample point 1"

    def test_isolated_images_on_cube_faces(self):
        delta = 0.07
        f = np.array([[0.0, 0.37, 1.0], [1.0, 1.0, 0.52], [0.61, 0.0, 0.0], [0.3, 1.0, 0.0]])
        assert embedding._isolated(f, delta, math.ceil(math.sqrt(3) / delta)).all()
        assert_same_cover(f, delta)
        assert_same_cover(np.array([[0.0], [1.0]]), delta)

    def test_isolated_images_d5(self):
        rng = np.random.default_rng(55)
        for p in (1, 3):
            delta = float(rng.uniform(0.05, 0.2))
            f = random_images(rng, p, 5, delta)
            assert embedding._isolated(f, delta, math.ceil(math.sqrt(5) / delta)).all()
            assert_same_cover(f, delta)

    @pytest.mark.parametrize("delta,alone", [(1e-12, True), (1e-15, False)])
    def test_grid_past_2_48_is_walked(self, delta, alone):
        # past m d s = 2^48 the float distances no longer surely resolve a
        # cell against the box edges, so every image is walked
        f = np.array([[0.25], [0.75]])
        assert embedding._isolated(f, delta, math.ceil(1 / delta)).tolist() == [alone] * 2
        assert_same_cover(f, delta)

    def test_all_isolated_lists_no_cells(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("walked the lattice")

        monkeypatch.setattr(embedding, "_lattice_cells", refuse)
        rng = np.random.default_rng(9)
        for d in (1, 2, 3):
            for _ in range(10):
                delta = float(10.0 ** rng.uniform(-3.0, -1.5))
                # images spread over a grid of spacing 0.1 > 2 delta, a few on the faces
                f = rng.permutation(np.indices((11,) * d).reshape(d, -1).T)[:8] / 10.0
                f = np.clip(f + rng.uniform(-0.01, 0.01, f.shape), 0.0, 1.0)
                assert_same_cover(f, delta)


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

    @pytest.mark.parametrize("radius", [0.05, 1e-7], ids=["int64-key", "lexsort"])
    def test_key_and_lexsort_branches(self, monkeypatch, radius):
        # at d=3, (m+1)^3 is below 2^62 at radius 0.05 and above 2^63 at 1e-7;
        # small blocks, and a row whose box is empty, alone and among the others
        monkeypatch.setattr(embedding, "_CHUNK_FLOATS", 40)
        m = max(1, math.ceil(math.sqrt(3) / radius))
        assert ((m + 1) ** 3 < 2**62) == (radius == 0.05)
        rng = np.random.default_rng(720)
        f = np.vstack([random_images(rng, 6, 3, radius), [[2.0, 0.5, 0.5]]])
        got = _lattice_cells(f, radius, m)
        assert got.dtype == np.int64
        assert got.tobytes() == reference_lattice_cells(f, radius, m).tobytes()
        empty = _lattice_cells(f[-1:], radius, m)
        assert empty.shape == (0, 3) and empty.dtype == np.int64

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


def plane_groups(z, plane, n):
    """The points and the eta' groups of the per-stage span job of z and the plane."""
    points, plan = _span_job(z, n, plane)
    return points, plan[0][1]


def reference_columns(vertices, pairs_a, pairs_b):
    """The [M | r] columns of each pair, built pair by pair: (pairs, |A| + |B| - 1, d)."""
    out = []
    for sa, sb in zip(pairs_a, pairs_b):
        pa, pb = vertices[list(sa)], vertices[list(sb)]
        out.append(np.vstack([pa[1:] - pa[0], pb[1:] - pb[0], pb[0] - pa[0]]))
    return np.array(out)


class TestSpanDistanceBytes:
    @pytest.mark.parametrize("chunk", [1, 9, 50, None])
    def test_gathered_columns_match_per_pair_systems(self, monkeypatch, chunk):
        # every group of _disjoint_pairs and _plane_pairs: the widest blocks'
        # [M | r] columns, the rows they hand to the solver and the padded
        # full scan's systems are the per-pair construction, bit for bit; a
        # per-stage job builds eta's widest columns, then eta''s
        if chunk is not None:
            monkeypatch.setattr(embedding, "_CHUNK_FLOATS", chunk)
        built, solved = [], []

        def columns(points, tails, heads):
            built.append(_span_columns(points, tails, heads))
            return built[-1]

        def solve(m, r):
            solved.append((m.copy(), r.copy()))
            return _solve_spans(m, r)

        monkeypatch.setattr(embedding, "_span_columns", columns)
        monkeypatch.setattr(embedding, "_solve_spans", solve)
        rng = np.random.default_rng(640)
        for n in (0, 1, 2, 3):
            plane = enumerate_hyperplanes(n, 12)[-1]
            for s in range(1, 2 * n + 4):
                z = rng.uniform(0.0, 1.0, (s, 2 * n + 1))
                stage = []
                for q, (zp, groups) in enumerate(((z, _disjoint_pairs(s, n)),
                                                  plane_groups(z, plane, n))):
                    if not groups:
                        continue
                    pairs_a, pairs_b = flatten(groups)
                    sizes = np.array([len(a) + len(b) for a, b in zip(pairs_a, pairs_b)])
                    widest = np.flatnonzero(sizes == sizes.max())
                    want = reference_columns(zp, [pairs_a[i] for i in widest],
                                             [pairs_b[i] for i in widest])
                    stage += [c.tobytes() for c in want]
                    m, r = reference_span_systems(zp, pairs_a, pairs_b)
                    built.clear()
                    solved.clear()
                    _widest_first([(zp, _span_plan((groups, ()) if q == 0 else ((), groups)))])
                    got = np.concatenate(built)[: len(widest)]
                    assert got.tobytes() == want.tobytes()
                    # each solved block holds kept widest rows, in order
                    rows = {(m[i].tobytes(), r[i].tobytes()): i for i in widest}
                    order = [rows[mk.tobytes(), rk.tobytes()]
                             for mc, rc in solved for mk, rk in zip(mc, rc)
                             if (mk.tobytes(), rk.tobytes()) in rows]
                    assert order and order == sorted(order) and len(set(order)) == len(order)
                    solved.clear()
                    _span_distances(zp, groups)
                    assert [(mc.tobytes(), rc.tobytes()) for mc, rc in solved] == [
                        (m.tobytes(), r.tobytes())]
                built.clear()
                _widest_first([_span_job(z, n, plane)])
                assert [c.tobytes() for block in built for c in block][: len(stage)] == stage

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
                zp, groups = plane_groups(z, plane, n)
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
            got = float(_span_distances(*plane_groups(x, h, 1))[0])
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
        zp, groups = plane_groups(z, plane, 1)
        widest = float(_span_distances(zp, groups[-1:]).min())
        assert HULL_TOL < widest <= SCAN_GUARD
        m, r = reference_span_systems(zp, *flatten(groups))
        calls = []

        def recording(mc, rc):
            calls.append((mc.copy(), rc.copy()))
            return _solve_spans(mc, rc)

        monkeypatch.setattr(embedding, "_solve_spans", recording)
        assert eta_prime(z, plane, 1) == full_scan_eta_prime(z, plane, 1)[0]
        # the widest system (0, 1) alone, then all three systems of the full
        # scan, each at the full scan's width
        assert len(calls) == 2
        assert [c[0].tobytes() for c in calls] == [m[2:].tobytes(), m.tobytes()]
        assert [c[1].tobytes() for c in calls] == [r[2:].tobytes(), r.tobytes()]

    def test_cached_groups_are_read_only(self):
        assert _disjoint_pairs(6, 1) is _disjoint_pairs(6, 1)
        for ia, ib in _disjoint_pairs(6, 1):
            for rows in (ia, ib):
                with pytest.raises(ValueError):
                    rows[0, 0] = 5
        with pytest.raises(ValueError):
            _subsets(6, 2)[0, 0] = 5
        # a span job's plan: the widest systems' index tables, per M width
        plan = _job_plan(6, 1, 2)
        assert plan is _job_plan(6, 1, 2) and plan[0][0] is _disjoint_pairs(6, 1)
        for table in (table for block in plan[1] for table in block[1:]):
            with pytest.raises(ValueError):
                table[0] = 5


def all_sizes_sigma(points):
    """The least sigma over every subset of size 2..d+1, one batched SVD per size."""
    k, d = points.shape
    least = math.inf
    for size in range(2, min(k, d + 1) + 1):
        subs = list(combinations(range(k), size))
        base = points[[c[0] for c in subs]]
        rest = points[np.array(subs)[:, 1:]]
        least = min(least, float(np.linalg.svd(rest - base[:, None, :], compute_uv=False).min()))
    return least


def subset_sigma(points, subset):
    """Least singular value of the subset's differences from its first point."""
    base, *rest = subset
    return float(np.linalg.svd(points[rest] - points[base], compute_uv=False).min())


def assert_same_verdict(points, tols=(RANK_TOL,)):
    """least_sigma against the all-sizes scan: verdicts, least sigma, first named subset."""
    want = all_sizes_sigma(points)
    k, d = points.shape
    for tol in tols:
        least, first = least_sigma(points, tol)
        assert want <= least <= want + 1e-12
        assert (least > tol) == (want > tol) == (first is None)
        if first is not None:
            assert all(type(i) is int for i in first)
            maximal = list(combinations(range(k), min(k, d + 1)))
            assert first in maximal and subset_sigma(points, first) <= tol
            assert all(subset_sigma(points, c) > tol for c in maximal[: maximal.index(first)])
    return least_sigma(points, tols[0])


def planted(rng, d, k, kind, at):
    """k uniform points in d dimensions with one dependent subset on the indices ``at``."""
    pts = rng.uniform(0.0, 1.0, (k, d))
    if kind == "coincident":
        i, j = at
        pts[j] = pts[i]
    elif kind == "collinear":
        i, j, l = at
        pts[l] = pts[i] + rng.uniform(0.2, 0.8) * (pts[j] - pts[i])
    else:  # a point 1e-10 off the plane of three others
        i, j, l, m = at
        normal = np.linalg.svd(pts[[j, l]] - pts[i])[2][-1]
        a, b = rng.uniform(0.2, 0.4, 2)
        pts[m] = pts[i] + a * (pts[j] - pts[i]) + b * (pts[l] - pts[i]) + 1e-10 * normal
    return pts


KIND_SIZES = {"coincident": 2, "collinear": 3, "off-plane": 4}


@pytest.fixture(scope="module")
def sigma_block_cases(golden_runs):
    """(point sets, targets, want) of TestMaximalSubsets.test_small_blocks: want holds each
    set's least_sigma, the placed targets' bytes and the 16-stage line run's report, at
    the default block size."""
    rng = np.random.default_rng(800)
    cases = [planted(rng, 3, 9, "collinear", (5, 7, 8)), rng.uniform(0.0, 1.0, (10, 5))]
    targets = rng.uniform(0.0, 1.0, (7, 3))
    space, n, r = golden_runs[1]
    want = ([least_sigma(p, RANK_TOL) for p in cases],
            general_position(targets, eps=0.01, seed=3).tobytes(),
            verify_result(r, space, n).to_json_dict())
    return cases, targets, want


class TestMaximalSubsets:
    """General position measures the maximal subsets only; the all-sizes scan is the reference."""

    @pytest.mark.parametrize("d", [3, 5])
    def test_random_sets(self, d):
        rng = np.random.default_rng(700 + d)
        for k in range(11):
            for _ in range(4):
                pts = rng.uniform(0.0, 1.0, (k, d))
                want = all_sizes_sigma(pts)
                tols = (RANK_TOL,) if math.isinf(want) else (RANK_TOL, want / 2, 2 * want)
                assert_same_verdict(pts, tols)

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("kind", sorted(KIND_SIZES))
    def test_near_degenerate_sets(self, d, kind):
        # the dependent subset sits on random indices of a larger set; the
        # first maximal subset holding it is the one named
        rng = np.random.default_rng(720 + d)
        for k in range(d + 2, 11):
            for _ in range(3):
                at = tuple(sorted(rng.choice(k, KIND_SIZES[kind], replace=False).tolist()))
                pts = planted(rng, d, k, kind, at)
                _, first = assert_same_verdict(pts)
                holding = [c for c in combinations(range(k), d + 1) if set(at) <= set(c)]
                assert first == holding[0]

    @pytest.mark.parametrize(
        "d, kind", [(d, kind) for d in (3, 5) for kind in sorted(KIND_SIZES) if KIND_SIZES[kind] <= d]
    )
    def test_base_change(self, d, kind):
        # the dependent subset, smaller than d+1, takes the top indices, so
        # every maximal superset has a lower least element: its differences
        # are taken from another base point
        rng = np.random.default_rng(740 + d)
        for k in (d + 2, 9, 10):
            at = tuple(range(k - KIND_SIZES[kind], k))
            pts = planted(rng, d, k, kind, at)
            supersets = [c for c in combinations(range(k), d + 1) if set(at) <= set(c)]
            assert all(c[0] < at[0] for c in supersets)
            _, first = assert_same_verdict(pts)
            assert first == supersets[0]

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_few_points(self, d):
        # k = 0 and 1 have nothing to measure; up to d+1 points the one
        # maximal subset is the whole set
        rng = np.random.default_rng(760 + d)
        for k in range(d + 2):
            pts = rng.uniform(0.0, 1.0, (k, d))
            least, first = assert_same_verdict(pts)
            if k < 2:
                assert (least, first) == (math.inf, None)
                continue
            assert least == subset_sigma(pts, range(k)) and first is None
            pts[k - 1] = pts[k - 2]
            assert assert_same_verdict(pts)[1] == tuple(range(k))

    @pytest.mark.parametrize("d", [3, 5])
    def test_subset_sigma_is_at_least_its_supersets(self, d):
        # S drops the least element of S' and maybe more, so their bases differ
        rng = np.random.default_rng(780 + d)
        for _ in range(200):
            pts = rng.uniform(0.0, 1.0, (10, d))
            outer = sorted(rng.choice(10, int(rng.integers(3, d + 2)), replace=False).tolist())
            inner = sorted(rng.choice(outer[1:], int(rng.integers(2, len(outer))), replace=False)
                           .tolist())
            assert subset_sigma(pts, inner) >= subset_sigma(pts, outer) - 1e-12

    @pytest.mark.parametrize("chunk", [1, 9, 50])
    def test_small_blocks(self, monkeypatch, golden_runs, sigma_block_cases, chunk):
        # blocks of one subset, of a few and of many give the same sigma, the
        # same named subset, the same placement and the same report
        cases, targets, want = sigma_block_cases
        space, n, r = golden_runs[1]
        monkeypatch.setattr(embedding, "_CHUNK_FLOATS", chunk)
        got = ([least_sigma(p, RANK_TOL) for p in cases],
               general_position(targets, eps=0.01, seed=3).tobytes(),
               verify_result(r, space, n).to_json_dict())
        assert got == want
        assert want[0][0][1] == (0, 5, 7, 8)


def reference_widest_first(vertices, groups):
    """The unfiltered scan: every widest-group row through _span_distances, then every group."""
    width = max(ia.shape[1] + ib.shape[1] for ia, ib in groups)
    widest = [g for g in groups if g[0].shape[1] + g[1].shape[1] == width]
    least = float(_span_distances(vertices, widest).min())
    if least > SCAN_GUARD:
        return least, None
    dists = _span_distances(vertices, groups)
    worst = int(dists.argmin())
    return float(dists[worst]), _group_row(groups, worst) if dists[worst] <= HULL_TOL else None


def reference_eta(z, n):
    groups = _disjoint_pairs(len(z), n)
    if not groups:
        return math.inf
    least, pair = reference_widest_first(z, groups)
    if pair is not None:
        raise GeneralPositionError(f"spans of {pair[0]} and {pair[1]} meet (distance {least:.3g})")
    return least


def reference_eta_prime(z, plane, n):
    least, pair = reference_widest_first(*plane_groups(z, plane, n))
    if pair is not None:
        raise GeneralPositionError(
            f"span of {pair[0]} touches the hyperplane (distance {least:.3g})")
    return least


def reference_least_sigma(points, tol):
    """One SVD of every maximal subset: the least sigma and the first subset at or under tol."""
    k, d = points.shape
    size = min(k, d + 1)
    if size < 2:
        return math.inf, None
    subs = np.array(list(combinations(range(k), size)))
    sigma = np.linalg.svd(points[subs[:, 1:]] - points[subs[:, :1]], compute_uv=False).min(axis=1)
    under = np.flatnonzero(sigma <= tol)
    return float(sigma.min()), tuple(int(i) for i in subs[under[0]]) if len(under) else None


def outcome(run):
    """The bytes of a returned float, or the message of a GeneralPositionError."""
    try:
        return np.float64(run()).tobytes()
    except GeneralPositionError as exc:
        return str(exc)


def stage_outcomes(z, n, plane):
    """The eta and eta' outcomes of the per-stage span scan, as embedding_stage reads them."""
    eta_re, etap_re = _widest_first([_span_job(z, n, plane)])[0]
    return outcome(lambda: _separation(*eta_re, None)), outcome(lambda: _separation(*etap_re, plane))


def reference_outcomes(z, n, plane):
    """The unfiltered references' eta and eta' outcomes."""
    return outcome(lambda: reference_eta(z, n)), outcome(lambda: reference_eta_prime(z, plane, n))


def one_quantity_outcomes(z, n, plane):
    """The outcomes of eta and eta_prime, each a scan of its quantity alone."""
    return outcome(lambda: eta(z, n)), outcome(lambda: eta_prime(z, plane, n))


def sigma_outcome(scan, points, tol):
    """The bytes of the least sigma and the subset named."""
    least, first = scan(points, tol)
    return np.float64(least).tobytes(), first


def assert_filtered_scans(z, n, plane, tols=()):
    """eta, eta_prime and least_sigma give the unfiltered scans' bytes and messages on z."""
    assert outcome(lambda: eta(z, n)) == outcome(lambda: reference_eta(z, n))
    assert outcome(lambda: eta_prime(z, plane, n)) == outcome(
        lambda: reference_eta_prime(z, plane, n))
    least = reference_least_sigma(z, RANK_TOL)[0]
    for tol in (RANK_TOL, *tols, least / 2, least, 2 * least):
        if math.isfinite(tol):
            assert sigma_outcome(least_sigma, z, tol) == sigma_outcome(
                reference_least_sigma, z, tol)


@pytest.fixture(scope="module")
def corpus():
    """(runs, calls) of the generic corpus, seeds 0 and 1: each run is (space, n, result or
    None when it fails), and calls are the (name, args, results) of every _span_job (the
    per-stage span scan's job) and _violating_subset call made while embedding, where
    results holds the value returned, or nothing when the call raised.

    Uniform 10-point squares, the 12-point circle, the 8-, 10- and 16-point
    lines and the 3x3 grid, the failing runs included.
    """
    calls = []

    def recording(name, real):
        def run(*args):
            calls.append((name, args, results := []))
            results.append(real(*args))
            return results[0]
        return run

    th = 2 * np.pi * np.arange(12) / 12
    circle = np.column_stack([0.5 + 0.5 * np.cos(th), 0.5 + 0.5 * np.sin(th)])
    squares = [np.random.default_rng(s).uniform(0, 1, (10, 2)) for s in range(8)]
    cases = [(SampledSpace.from_points(x, mesh=0.3), 1, 4) for x in squares]
    cases += [(SampledSpace.from_points(circle, mesh=0.3), 1, 4), (line_space(8), 1, 16),
              (line_space(8), 1, 24), (line_space(10), 1, 6), (line_space(10), 1, 9),
              (line_space(16), 1, 8), (grid_square_space(3, 3), 2, 2)]
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_span_job", "_violating_subset"):
            mp.setattr(embedding, name, recording(name, getattr(embedding, name)))
        for space, n, T in cases:
            for seed in (0, 1):
                try:
                    runs.append((space, n, nobeling_embed(space, n=n, T=T, seed=seed)))
                except (CertificateError, GeneralPositionError):
                    runs.append((space, n, None))
    return runs, calls


def spans_at(rng, n, gap, angle=None):
    """Two (n+1)-point spans in d = 2n+1, ``gap`` apart.

    With ``angle`` the spans' first directions differ by that angle;
    otherwise the spans are orthogonal.
    """
    d = 2 * n + 1
    q = np.linalg.qr(rng.normal(size=(d, d)))[0].T  # orthonormal rows
    base = rng.uniform(0.3, 0.7, d)
    dirs_a = q[:n]
    if angle is None:
        dirs_b = q[n : 2 * n]
    else:
        dirs_b = np.vstack([math.cos(angle) * q[0] + math.sin(angle) * q[n], q[n + 1 : 2 * n]])
    lengths = rng.uniform(0.2, 0.4, (2, n, 1))
    a = np.vstack([base, base + lengths[0] * dirs_a])
    b = np.vstack([base + gap * q[-1], base + gap * q[-1] + lengths[1] * dirs_b])
    b += rng.uniform(-0.1, 0.1) * (b[1] - b[0])
    return np.vstack([a, b])


VERTEX_KINDS = ("uniform", "collinear", "free-line", "offset", "scaled", "on-plane", "meet",
                "guard", "overflow")


def stage_vertices_case(rng, n, s, kind, plane):
    """s stage vertices in d = 2n + 1 of one of VERTEX_KINDS.

    Uniform; nearly collinear (3e-9 off a line); the first three on a line
    along a free axis of the plane, at dyadic points, so that every span
    system within them, of both quantities, has an exact zero Gram-Schmidt
    length and NaN ends; offset by 1e3 or scaled by 1e-6; a
    vertex on the plane; vertices 0 and 1 1e-10 apart (spans that meet) or
    1e-7 apart (under SCAN_GUARD); or rows at +-1e308, whose differences
    overflow to NaN distances.
    """
    d = 2 * n + 1
    z = rng.uniform(0.0, 1.0, (s, d))
    if kind == "collinear":
        a, b = z[0], rng.uniform(0.0, 1.0, d)
        z = a + rng.uniform(0.0, 1.0, (s, 1)) * (b - a) + rng.uniform(-3e-9, 3e-9, (s, d))
    elif kind == "free-line":
        z[:3] = np.round(z[0] * 4) / 4
        z[:3, (plane.free_coords or (0,))[0]] = np.arange(min(s, 3)) / 8
    elif kind == "offset":
        z += 1e3
    elif kind == "scaled":
        z *= 1e-6
    elif kind == "on-plane":
        z[int(rng.integers(s)), list(plane.coords)] = plane._levels
    elif kind in ("meet", "guard") and s > 1:
        step = rng.normal(size=d)
        z[1] = z[0] + (1e-10 if kind == "meet" else 1e-7) * step / np.linalg.norm(step)
    elif kind == "overflow":
        z[0] = 1e308
        z[-1] = -1e308 if s > 1 else z[-1]
    return z


@pytest.fixture(scope="module")
def small_block_cases():
    """(sigma cases, tolerances, their sigma outcomes, span cases, their eta and eta'
    outcomes) of TestFilteredScans.test_small_blocks, the outcomes from the references."""
    rng = np.random.default_rng(940)
    two = planted(rng, 3, 9, "collinear", (6, 7, 8))
    two[2] = two[0] + 0.5 * (two[1] - two[0]) + 1e-5
    cases = [rng.uniform(0.0, 1.0, (9, 3)), planted(rng, 3, 9, "collinear", (2, 5, 8)),
             planted(rng, 5, 9, "off-plane", (0, 3, 4, 8)), spans_at(rng, 1, 1e-8, 1e-7), two]
    tols = (RANK_TOL, 1e-3)
    want = [sigma_outcome(reference_least_sigma, p, tol) for p in cases for tol in tols]
    rng = np.random.default_rng(980)
    span_cases = []
    for n in (1, 2, 3):
        planes = enumerate_hyperplanes(n, 20)
        for s in (2, 3, 5, 2 * n + 3):
            span_cases.append((rng.uniform(0.0, 1.0, (s, 2 * n + 1)), n,
                               planes[int(rng.integers(len(planes)))]))
    for n, gap in ((1, 1e-10), (1, 1e-7), (2, 5e-7), (2, 1e-5)):
        z = np.vstack([spans_at(rng, n, gap), rng.uniform(0.0, 1.0, (2, 2 * n + 1))])
        plane = Hyperplane(tuple(range(n + 1)), (F(1, 2),) * (n + 1))
        z[-1, list(plane.coords)] = 0.5
        span_cases.append((z, n, plane))
    for n, s, kind in ((1, 4, "free-line"), (2, 5, "free-line"), (1, 4, "overflow"),
                       (2, 3, "overflow"), (1, 3, "meet"), (3, 6, "guard")):
        plane = enumerate_hyperplanes(n, 20)[int(rng.integers(20))]
        span_cases.append((stage_vertices_case(rng, n, s, kind, plane), n, plane))
    # the references let a NaN distance pass; eta and eta_prime name its pair
    want_spans = [(reference_outcomes if np.isfinite(z).all() and np.abs(z).max() < 1e300
                   else one_quantity_outcomes)(z, n, plane) for z, n, plane in span_cases]
    return cases, tols, want, span_cases, want_spans


class TestFilteredScans:
    """eta, eta_prime and general position decompose only the systems that can set their result.

    The references decompose every system: the minimum of _span_distances over
    every widest-group row (every group below SCAN_GUARD), and one SVD of every
    maximal subset. Values, named subsets and messages must be the same bytes.
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_sets(self, n):
        rng = np.random.default_rng(820 + n)
        planes = enumerate_hyperplanes(n, 40)
        for s in range(1, 2 * n + 5):
            for _ in range(6 if n < 3 else 2):
                z = rng.uniform(0.0, 1.0, (s, 2 * n + 1))
                assert_filtered_scans(z, n, planes[int(rng.integers(len(planes)))])

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("angle", [1e-9, 1e-7, 1e-5, 1e-3])
    def test_near_parallel_spans(self, n, angle):
        rng = np.random.default_rng(840 + n)
        plane = enumerate_hyperplanes(n, 20)[-1]
        for _ in range(4):
            z = spans_at(rng, n, rng.uniform(0.05, 0.2), angle)
            z = np.vstack([z, rng.uniform(0.0, 1.0, (int(rng.integers(0, 3)), 2 * n + 1))])
            assert_filtered_scans(z[rng.permutation(len(z))], n, plane)

    @pytest.mark.parametrize("n", [1, 2])
    def test_spans_meeting_near_the_tolerances(self, n):
        # gaps on both sides of HULL_TOL (1e-9) and SCAN_GUARD (1e-6), and a
        # vertex as far from the plane, so both messages and both routes run
        rng = np.random.default_rng(860 + n)
        plane = Hyperplane(tuple(range(n + 1)), (F(1, 2),) * (n + 1))
        raised = 0
        for gap in (1e-12, 1e-11, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8, 1e-7, 5e-7, 1e-6, 2e-6, 1e-5):
            for extra in (0, 2):
                z = spans_at(rng, n, gap)
                z = np.vstack([z, rng.uniform(0.0, 1.0, (extra, 2 * n + 1))])
                z[-1, list(plane.coords)] = 0.5 + gap / math.sqrt(n + 1)
                assert_filtered_scans(z, n, plane)
                raised += isinstance(outcome(lambda: eta(z, n)), str)
                raised += isinstance(outcome(lambda: eta_prime(z, plane, n)), str)
        assert raised >= 10

    @pytest.mark.parametrize("n", [1, 2])
    def test_coincident_and_collinear_points(self, n):
        rng = np.random.default_rng(880 + n)
        planes = enumerate_hyperplanes(n, 20)
        for s in range(3, 2 * n + 5):
            for kind in ("coincident", "collinear"):
                z = rng.uniform(0.0, 1.0, (s, 2 * n + 1))
                i, j, l = rng.choice(s, 3, replace=False)
                if kind == "coincident":
                    z[j] = z[i]
                else:
                    z[l] = z[i] + rng.uniform(0.2, 0.8) * (z[j] - z[i])
                assert_filtered_scans(z, n, planes[int(rng.integers(len(planes)))])

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("offset, scale", [(1e3, 1.0), (0.0, 1e-6), (1e3, 1e-6)])
    def test_offset_and_scaled_vertices(self, n, offset, scale):
        rng = np.random.default_rng(900 + n)
        planes = enumerate_hyperplanes(n, 20)
        for s in range(2, 2 * n + 5):
            z = offset + scale * rng.uniform(0.0, 1.0, (s, 2 * n + 1))
            assert_filtered_scans(z, n, planes[int(rng.integers(len(planes)))])
            near = offset + scale * spans_at(rng, n, 1e-4, 1e-6)
            assert_filtered_scans(near, n, planes[0])

    @settings(max_examples=100, deadline=None)
    @given(n=hst.integers(0, 3), data=hst.data())
    def test_stage_scan_matches_one_quantity_scans(self, n, data):
        # eta and eta' in one scan, at drawn block sizes: a block holding both
        # quantities' systems never lets one quantity's bound decide the
        # other's, and fewer than 2n + 2 vertices make eta's widest systems
        # narrower than eta''s, a second block shape in the same scan
        s = data.draw(hst.integers(1, 2 * n + 4), label="s")
        kind = data.draw(hst.sampled_from(VERTEX_KINDS), label="kind")
        chunk = data.draw(hst.sampled_from([None, 1, 9, 36, 50, 200]) if n < 3 else hst.none(),
                          label="chunk")
        rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
        plane = enumerate_hyperplanes(n, 20)[int(rng.integers(20))]
        z = stage_vertices_case(rng, n, s, kind, plane)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(embedding, "_CHUNK_FLOATS", chunk)
            got = stage_outcomes(z, n, plane)
            assert got == one_quantity_outcomes(z, n, plane)
        if kind != "overflow":  # the references let a NaN distance pass
            assert got == reference_outcomes(z, n, plane)

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_ties(self, n):
        # cube corners and dyadic grid points: many systems with the same
        # value, some meeting exactly, and subsets exactly at the tolerance
        rng = np.random.default_rng(920 + n)
        d = 2 * n + 1
        corners = np.array(list(product([0.0, 1.0], repeat=d)))
        planes = enumerate_hyperplanes(n, 20)
        for _ in range(8):
            pick = rng.choice(len(corners), int(rng.integers(2, 2 * n + 5)), replace=False)
            assert_filtered_scans(corners[pick], n, planes[int(rng.integers(len(planes)))])
            grid = np.round(rng.uniform(0.0, 1.0, (int(rng.integers(2, 2 * n + 5)), d)) * 4) / 4
            assert_filtered_scans(grid, n, planes[int(rng.integers(len(planes)))])
        # a regular simplex's edges: every maximal subset has one sigma
        tie = np.vstack([np.zeros(d), np.eye(d)])
        assert_filtered_scans(tie, n, planes[0], tols=(reference_least_sigma(tie, 0.0)[0],))

    def test_every_call_of_the_corpus(self, corpus):
        # the inputs of every per-stage span scan and general-position call
        # made while embedding the generic corpus, the failing runs included:
        # the scan's eta and eta' outcomes are the one-quantity references'
        runs, calls = corpus
        failed = sum(r is None for _, _, r in runs)
        for name, args, results in calls:
            if name == "_span_job":
                z, n, plane = args
                assert stage_outcomes(z, n, plane) == reference_outcomes(z, n, plane)
            else:
                # the builder's verdict, and the verifier's scan on the same points
                assert results == [reference_least_sigma(*args)[1]]
                assert sigma_outcome(least_sigma, *args) == sigma_outcome(
                    reference_least_sigma, *args)
        assert {name for name, _, _ in calls} == {"_span_job", "_violating_subset"}
        assert 10 <= failed < 30

    @pytest.mark.parametrize("chunk", [1, 9, 50])
    def test_small_blocks(self, monkeypatch, small_block_cases, chunk):
        # the bound carried from block to block never drops a system that
        # sets the result. Sigma: in the last case points 0-2 are 1e-5 off a
        # line and points 6-8 are on one, so under the loose tolerance the
        # first subset named is not the one with the least sigma. Spans:
        # random sets (two widest groups at s = 5, n = 3), spans on both
        # sides of SCAN_GUARD and HULL_TOL, and a vertex on the plane. The
        # builder's verdict, which stops at its first hit, names the same subsets.
        # The per-stage scan, whose blocks can hold both quantities' systems
        # (at 50 floats a block of 5 systems holds 3 eta and 2 eta' systems of
        # 4 vertices at n = 1), gives each quantity its one-quantity outcome;
        # on dyadic points along a free axis every system of both has NaN
        # ends, so each row keeps the other quantity's entries
        cases, tols, want, span_cases, want_spans = small_block_cases
        least, first = want[-1]
        assert first[:3] == (0, 1, 2) and np.frombuffer(least)[0] < 1e-9
        assert sum(isinstance(o, str) for pair in want_spans for o in pair) >= 3
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(embedding, "_CHUNK_FLOATS", chunk)
            assert [sigma_outcome(least_sigma, p, tol) for p in cases for tol in tols] == want
            assert [_violating_subset(p, tol) for p in cases for tol in tols] == [
                first for _, first in want]
            assert [one_quantity_outcomes(z, n, plane) for z, n, plane in span_cases] == want_spans
            assert [stage_outcomes(z, n, plane) for z, n, plane in span_cases] == want_spans

    def test_row_without_a_bound_reads_the_other_quantity_as_inf(self, monkeypatch):
        # 5 vertices at n = 1, the first three on a line along the plane's
        # free axis, in blocks of 4 systems: the fourth block holds eta's last
        # 3 systems and eta''s first, (0, 1), whose ends are NaN. The eta'
        # row has no bound there, so it keeps eta's entries; they must read
        # +inf, not eta's smaller distances, which are above SCAN_GUARD
        monkeypatch.setattr(embedding, "_CHUNK_FLOATS", 36)
        kept = []
        real = embedding._filtered_least

        def recording(blocks, tol, rows):
            def seen():
                for block in blocks:
                    kept.append((block[0].tolist(), np.isinf(block[2]).tolist()))
                    yield block
            return real(seen(), tol, rows)

        monkeypatch.setattr(embedding, "_filtered_least", recording)
        rng = np.random.default_rng(36)
        plane = enumerate_hyperplanes(1, 20)[int(rng.integers(20))]
        z = stage_vertices_case(rng, 1, 5, "free-line", plane)
        assert stage_outcomes(z, 1, plane) == reference_outcomes(z, 1, plane)
        assert ([0, 1], [[False] * 3 + [True], [True] * 3 + [False]]) in kept
        eta_least = float(reference_span_distances(z, *reference_eta_pairs(5, 1))[-3:].min())
        assert SCAN_GUARD < eta_least < np.frombuffer(reference_outcomes(z, 1, plane)[1])[0]

    def test_verdict_on_nan_bounds(self):
        # NaN ends are undecided: they are solved even when a sure hit follows.
        # Points 0-2 lie on a line with dyadic differences, so each subset
        # holding them has an exact zero Gram-Schmidt length and NaN ends;
        # points 3 and 4 are 1e-12 apart, so (0, 1, 3, 4) is a sure hit
        pts = np.array([[0.0, 0.5, 0.5], [0.25, 0.5, 0.5], [0.5, 0.5, 0.5],
                        [0.3, 0.9, 0.1], [0.3, 0.9, 0.1 + 1e-12], [0.8, 0.2, 0.6]])
        (_, labels, low, high, _), = _sigma_blocks([pts])
        sure = int(np.flatnonzero(high[0] <= RANK_TOL)[0])
        assert tuple(labels[sure]) == (0, 1, 3, 4)
        assert np.isnan(low[0, :sure]).all() and np.isnan(high[0, :sure]).all()
        for tol in (RANK_TOL, 1e-3):
            assert _violating_subset(pts, tol) == reference_least_sigma(pts, tol)[1] == (0, 1, 2, 3)

    @pytest.mark.parametrize("chunk", [1, 9, 50])
    def test_widest_systems_built_once_in_blocks(self, monkeypatch, chunk):
        # above SCAN_GUARD each widest system is built exactly once, in
        # order (a per-stage job's eta systems first), and a block holds at
        # most chunk floats unless it is one row
        rng = np.random.default_rng(990)
        built = []

        def recording(points, tails, heads):
            built.append((tails.copy(), heads.copy()))
            return _span_columns(points, tails, heads)

        monkeypatch.setattr(embedding, "_CHUNK_FLOATS", chunk)
        monkeypatch.setattr(embedding, "_span_columns", recording)
        for n in (1, 2, 3):
            plane = enumerate_hyperplanes(n, 20)[-1]
            for s in (3, 5, 2 * n + 3):
                z = rng.uniform(0.0, 1.0, (s, 2 * n + 1))
                eta_groups, prime_groups = _span_job(z, n, plane)[1][0]
                for run, quantities in ((lambda: [eta(z, n)], [eta_groups]),
                                        (lambda: [eta_prime(z, plane, n)], [prime_groups]),
                                        (lambda: [v for v, _ in _widest_first(
                                            [_span_job(z, n, plane)])[0]], [eta_groups, prime_groups])):
                    built.clear()
                    assert min(run()) > SCAN_GUARD
                    want = []
                    for groups in quantities:
                        width = max(ia.shape[1] + ib.shape[1] for ia, ib in groups)
                        want += [(t.tolist(), h.tolist()) for ia, ib in groups
                                 if ia.shape[1] + ib.shape[1] == width
                                 for t, h in zip(*_span_rows(ia, ib))]
                    for tails, _ in built:
                        rows, columns = tails.shape
                        assert rows == 1 or rows * z.shape[1] * columns <= chunk
                    got = [(t.tolist(), h.tolist()) for ts, hs in built for t, h in zip(ts, hs)]
                    assert got == want

    def test_nan_values_fail(self):
        # differences past the float range give NaN sigmas and distances:
        # each counts as at or under the tolerance, never as a pass
        targets = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]])
        least, first = least_sigma(targets, RANK_TOL)
        assert math.isnan(least) and first == _violating_subset(targets, RANK_TOL) == (0, 1, 2)
        with pytest.raises(GeneralPositionError, match=r"subset: \(0, 1, 2\)"):
            general_position(targets, eps=0.01)
        one = [0]
        blocks = [(one, np.array([[0], [1]]), np.zeros((1, 2)), np.ones((1, 2)),
                   lambda keep: np.array([0.5, 0.7])),
                  (one, np.array([[2], [3]]), np.full((1, 2), np.nan), np.full((1, 2), np.nan),
                   lambda keep: np.array([np.nan, 0.1]))]
        least, first = embedding._filtered_least(iter(blocks), 0.2, 1)
        assert math.isnan(least[0]) and first[0].tolist() == [2]
        # in a block two jobs share, one job's NaN leaves the other's least
        # and first label alone; job 1 has no block and keeps (inf, None)
        mixed = [([2, 0], np.array([[0], [1], [2]]), np.zeros((2, 3)), np.ones((2, 3)),
                  lambda keep: np.array([np.nan, 0.3, 0.25, 0.3, 0.1, 0.05]))]
        least, first = embedding._filtered_least(iter(mixed), 0.2, 3)
        assert math.isnan(least[2]) and least[0] == 0.05 and least[1] == math.inf
        assert first[2].tolist() == [0] and first[0].tolist() == [1] and first[1] is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_distances_fail(self):
        # +-1e308 vertices overflow every system holding both: the full scan
        # names the first NaN pair, as it names a meeting one
        z = np.array([[1e308] * 3, [-1e308] * 3, [0.2, 0.5, 0.9], [0.7, 0.1, 0.3]])
        with pytest.raises(GeneralPositionError, match=r"spans of \(0,\) and \(1,\) meet \(distance nan\)"):
            eta(z, 1)
        plane = enumerate_hyperplanes(1, 4)[0]
        with pytest.raises(GeneralPositionError, match=r"distance nan"):
            eta_prime(z, plane, 1)

    def test_inf_systems_never_reach_pinv(self, monkeypatch):
        # at n = 2 the systems holding both +-1e308 rows have inf edges, on
        # which LAPACK's SVD can loop forever: they read NaN without it
        real = np.linalg.pinv

        def finite_only(m):
            assert np.isfinite(m).all()
            return real(m)

        monkeypatch.setattr(np.linalg, "pinv", finite_only)
        z = np.vstack([np.full((2, 5), [[1e308], [-1e308]]), [[0.2, 0.5, 0.9, 0.4, 0.6]]])
        plane = enumerate_hyperplanes(2, 4)[0]
        assert stage_outcomes(z, 2, plane) == (
            "spans of (0,) and (1,) meet (distance nan)",
            "span of (0,) touches the hyperplane (distance nan)")

    def test_no_cached_indices(self):
        # 735,471 maximal subsets of 24 points in d = 7, taken in blocks, and
        # the 79,800 pairs of 400 points in d = 1, one block of 159,600
        # indices: nothing is added to the _subsets cache
        pts = np.random.default_rng(960).uniform(0.0, 1.0, (24, 7))
        line = np.linspace(0.0, 1.0, 400)[:, None]
        before = _subsets.cache_info()
        least, first = least_sigma(pts, RANK_TOL)
        assert least_sigma(line, RANK_TOL) == (float(np.diff(line[:, 0]).min()), None)
        assert _subsets.cache_info() == before
        assert first is None and RANK_TOL < least < 1e-3

    def test_few_systems_reach_lapack(self, monkeypatch, golden_runs):
        # the 8-point line at n = 1, T = 16: each stage has 210 eta systems
        # (8 vertices) and 210 maximal subsets (with the 2 anchors)
        r = golden_runs[1][2]
        rows = {"pinv": 0, "svd": 0}

        def counting(name, real):
            def run(a, *args, **kwargs):
                rows[name] += len(a)
                return real(a, *args, **kwargs)
            return run

        for name in rows:
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for st in r.stages:
            assert len(_disjoint_pairs(len(st.vertices), 1)[-1][0]) == 210
            eta(st.vertices, 1)
            least_sigma(np.vstack([st.vertices, st.anchors]), RANK_TOL)
        assert len(r.stages) == 16
        assert 16 <= rows["pinv"] <= 0.02 * 16 * 210
        assert 16 <= rows["svd"] <= 0.25 * 16 * 210

    def test_one_span_solve_per_stage(self, monkeypatch, golden_runs):
        # the 8-point line at n = 1, T = 16: the builder measures eta and eta'
        # of a stage in one scan, one _solve_spans call per stage, and solves
        # 32 rows; the verifier's one scan over every stage solves the same
        # 32 rows in one call
        space, n, r = golden_runs[1]
        rows = []
        real = embedding._solve_spans
        monkeypatch.setattr(embedding, "_solve_spans",
                            lambda m, rhs: rows.append(len(m)) or real(m, rhs))
        again = nobeling_embed(space, n=n, T=16, seed=0)
        assert (len(rows), sum(rows)) == (16, 32)
        assert result_to_json_dict(again) == result_to_json_dict(r)
        rows.clear()
        assert verify_result(r, space, n).overall
        assert (len(rows), sum(rows)) == (1, 32)

    def test_builder_solves_few_subsets(self, monkeypatch, golden_runs):
        # embedding the 8-point line at n = 1, T = 16 tests 17 point sets of
        # 210 subsets each; the verdict scan decomposes the 20 subsets of
        # stage 0, round 0 that its bounds leave undecided before a sure hit
        # (the least-sigma scan of the same sets decomposes 723)
        space, n, r = golden_runs[1]
        rows = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: rows.append(len(a))
                            or real(a, *args, **kwargs))
        again = nobeling_embed(space, n=n, T=16, seed=0)
        assert sum(rows) <= 20
        assert result_to_json_dict(again) == result_to_json_dict(r)


def filter_ends(scan, rows):
    """Run ``scan`` and return each filter row's least low end and least high end over the
    blocks that ``_filtered_least`` reads, as a (2, rows) array."""
    ends = np.full((2, rows), math.inf)
    real = embedding._filtered_least

    def recording(blocks, tol, jobs):
        def seen():
            for block in blocks:
                for end, values in zip(ends, block[2:4]):
                    np.minimum.at(end, block[0], values.min(axis=1))
                yield block
        return real(seen(), tol, jobs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "_filtered_least", recording)
        scan()
    return ends


def test_filter_ends_bracket_the_exact_least(golden_runs, corpus):
    """On every stage of each certified n=1 run, the least low end of the span and sigma
    filters <= the exact least (:mod:`exact`) <= their least high end: eta and eta' over the
    maximal pairs, sigma over the maximal subsets of the vertices and anchors."""
    stages = [st for _, n, r in golden_runs + corpus[0] if n == 1 and r is not None
              for st in r.stages]
    points = [np.vstack([st.vertices, st.anchors]) for st in stages]
    spans = filter_ends(lambda: _widest_first([_span_job(st.vertices, 1, st.hyperplane)
                                               for st in stages]), 2 * len(stages))
    sigmas = filter_ends(lambda: _least_sigmas(points, RANK_TOL), len(stages))
    assert np.isfinite(spans).all() and np.isfinite(sigmas).all()
    for j, st in enumerate(stages):
        plane = st.hyperplane
        exact_spans = (exact.least_eta(st.vertices, 1),
                       exact.least_eta_prime(st.vertices, plane.coords, plane.values, 1))
        for (low, high), least in zip(spans[:, 2 * j : 2 * j + 2].T, exact_spans):
            assert F(low) ** 2 <= least <= F(high) ** 2, (j, low, least, high)
        assert exact.sigma_bracket(points[j], *sigmas[:, j]), j
    assert len(stages) >= 100


def report_bytes(r, space, n):
    return metric._write_json(verify_result(r, space, n).to_json_dict())


def stage_tampered(r, tampers, rng):
    """r with stage vertices changed: {t: "meet" | "guard" | "overflow" | s vertices kept}."""
    doc = result_to_json_dict(r)
    for t, kind in tampers.items():
        st = doc["stages"][t]
        v = st["vertices"]
        if kind == "meet":  # two vertices coincide: spans meet, distance 0
            v[1] = list(v[0])
        elif kind == "guard":  # two vertices 1e-7 apart, between HULL_TOL and SCAN_GUARD
            step = rng.normal(size=len(v[0]))
            step *= 1e-7 / np.linalg.norm(step) * np.sign(0.5 - v[0][0]) * np.sign(step[0])
            v[1] = (np.array(v[0]) + step).tolist()
        elif kind == "overflow":  # differences past the float range: NaN sigmas and distances
            v[0], v[1] = [1e308] * len(v[0]), [-1e308] * len(v[0])
        else:  # keep the first s members and vertices: other subset shapes and widths
            st["cover_u"]["members"] = st["cover_u"]["members"][:kind]
            st["vertices"] = v[:kind]
    return result_from_json_dict(doc)


STAGE_TAMPERS = [{3: "meet"}, {5: "guard"}, {9: "overflow"}, {2: 3, 7: 2, 11: 1},
                 {2: 3, 3: "meet", 5: "guard", 7: 2, 9: "overflow", 11: 1}]


@pytest.fixture(scope="module")
def tampered_reports(golden_runs):
    """{tamper set items: (tampered run, reference report bytes)} for the 16-stage line run,
    each reference (:func:`reference_stage_report`) built once at the default block size and
    checked against the unfiltered scans' (which, unlike the library, let a NaN value pass)."""
    space, n, r = golden_runs[1]
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflows are the point
        for tampers in STAGE_TAMPERS:
            bad = stage_tampered(r, tampers, np.random.default_rng(1000))
            want = reference_stage_report(bad, space, n)
            if "overflow" not in tampers.values():
                assert unfiltered_stage_report(bad, space, n) == want
            out[tuple(tampers.items())] = bad, want
    return out


@pytest.fixture(scope="module")
def grouping_cases():
    """Per n in (1, 2): the span jobs (eta alone and per-stage) with cached and with distinct
    group tuples, each job's one-job _widest_first result, the sigma jobs and each one's
    least_sigma per tolerance, all at the default block size."""
    rng = np.random.default_rng(1010)
    cases = []
    for n in (1, 2):
        d = 2 * n + 1
        plane = enumerate_hyperplanes(n, 6)[5]
        sets = [rng.uniform(0.0, 1.0, (s, d)) for s in (8, 8, 5, 3, 8, 2, 5, 1, 2 * n + 3)]
        sets[1][1] = sets[1][0]  # spans meet: the full scan runs for this job
        sets[4][2] = sets[4][0] + 1e-7 * rng.normal(size=d)  # inside the guard band
        sets[6][3] = 0.5 * (sets[6][0] + sets[6][1])  # collinear: sigma names a subset
        shared = [_span_job(z, n) for z in sets] + [_span_job(z, n, plane) for z in sets]
        distinct = ([(z, _span_plan((_disjoint_pairs.__wrapped__(len(z), n), ()))) for z in sets]
                    + [(zp, _span_plan((_disjoint_pairs.__wrapped__(len(z), n),
                                        _plane_pairs.__wrapped__(len(z), n, n + 1))))
                       for z, (zp, _) in zip(sets, shared[len(sets):])])
        one = [_widest_first([job])[0] for job in shared]
        points = [np.vstack([z, rng.uniform(0.0, 1.0, (n + 1, d))]) for z in sets]
        points += [rng.uniform(0.0, 1.0, (3, d)), rng.uniform(0.0, 1.0, (4, 2))]
        want = {tol: [least_sigma(p, tol) for p in points] for tol in (RANK_TOL, 1e-3)}
        cases.append((shared, distinct, one, points, want))
    return cases


class TestBatchedVerifier:
    """verify_result scans sigma once over every stage and the spans once over the T per-stage
    jobs, each measuring eta and eta'; its report has the bytes of the per-stage loop at the
    default block size, and the same bytes at every other block size."""

    def test_golden_and_corpus_runs(self, structural_cases):
        labels = [label for label in structural_cases if label.startswith(("golden", "corpus"))]
        assert sum(label.startswith("corpus") for label in labels) >= 6
        for label in labels:
            space, n, r, want = structural_cases[label]
            assert report_bytes(r, space, n) == want == unfiltered_stage_report(r, space, n)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows are the point
    @pytest.mark.parametrize("chunk", [None, 1, 9, 50])
    @pytest.mark.parametrize("tampers", STAGE_TAMPERS, ids=lambda t: "-".join(map(str, t.items())))
    def test_tampered_stages(self, monkeypatch, golden_runs, tampered_reports, chunk, tampers):
        # blocks of one system, of a few stages' systems, and of everything;
        # the guard band sends only its own eta row to the full scan
        space, n, _ = golden_runs[1]
        r, want = tampered_reports[tuple(tampers.items())]
        assert len(r.stages) == 16
        if chunk is not None:
            monkeypatch.setattr(embedding, "_CHUNK_FLOATS", chunk)
        full, scans, blocks, floats = [], [], [], []
        real_full, real_least, real_gs = (embedding._span_distances, embedding._filtered_least,
                                          embedding._gram_schmidt)

        def full_scan(vertices, groups):
            full.append(vertices.copy())
            return real_full(vertices, groups)

        def filtered_least(scan, tol, jobs):
            # the scan's index (0 sigma, 1 spans) and the job ids of each block
            scan_no = len(scans)
            scans.append(jobs)

            def recorded():
                for block in scan:
                    blocks.append((scan_no, block[0]))
                    yield block
            return real_least(recorded(), tol, jobs)

        def gram_schmidt(q):
            # each block builds its systems' floats once: q is (w, d, systems)
            floats.append((q.size, q.shape[2]))
            return real_gs(q)

        monkeypatch.setattr(embedding, "_span_distances", full_scan)
        monkeypatch.setattr(embedding, "_filtered_least", filtered_least)
        monkeypatch.setattr(embedding, "_gram_schmidt", gram_schmidt)
        got = report_bytes(r, space, n)
        assert got == want
        report = json.loads(got)
        # each full scan's vertices start with its stage's vertices
        reached = [next(t for t, st in enumerate(r.stages)
                        if v[: len(st.vertices)].tobytes() == st.vertices.tobytes()) for v in full]
        assert reached == sorted(reached)
        assert set(reached) == {t for t, kind in tampers.items()
                                if kind in ("meet", "guard", "overflow")}
        assert all(reached.count(t) == 1 for t, kind in tampers.items() if kind == "guard")
        assert scans == [16, 32] and len(floats) == len(blocks)
        assert any(len(jobs) > 1 for _, jobs in blocks) == (chunk in (None, 50))
        limit = embedding._CHUNK_FLOATS
        assert all(size <= limit or systems == 1 for size, systems in floats)
        # a block's rows share one grid: sigma jobs of one vertex count, span
        # rows (eta of stage j at 2 j, eta' at 2 j + 1) of stages of one vertex
        # count; one block of everything holds both quantities' rows
        grid = [lambda j: len(r.stages[j].vertices), lambda j: len(r.stages[j // 2].vertices)]
        assert all(len({grid[i](j) for j in jobs}) == 1 for i, jobs in blocks)
        assert any({j % 2 for j in jobs} == {0, 1} for i, jobs in blocks if i) == (chunk is None)
        checks = {(c["name"], c["location"].split(",")[0]): c for c in report["checks"]}
        for t, kind in tampers.items():
            eta_check = checks[("eta", f"stage {t}")]
            if kind in ("meet", "overflow"):
                assert eta_check["margin"] == checks[("eta-prime", f"stage {t}")]["margin"] == -1.0
                assert not checks[("general-position", f"stage {t}")]["passed"]
            elif kind == "guard":  # measured by the full scan, and not the stored value
                assert -1.0 < eta_check["margin"] < 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows are the point
    def test_per_stage_loop_in_blocks_of_one(self, monkeypatch, golden_runs, tampered_reports):
        # the one-job scans in blocks of one system each, on a meeting, a
        # guard-band and an overflowing stage, give the default size's bytes
        space, n, _ = golden_runs[1]
        union = STAGE_TAMPERS[-1]
        assert {"meet", "guard", "overflow"} <= set(union.values())
        r, want = tampered_reports[tuple(union.items())]
        monkeypatch.setattr(embedding, "_CHUNK_FLOATS", 1)
        assert report_bytes(r, space, n) == reference_stage_report(r, space, n) == want

    @pytest.mark.parametrize("coords", [[0], [0, 1, 3]])
    def test_first_malformed_stage_raises(self, golden_runs, coords):
        # every stage is validated before any check runs, in stage order, so
        # the first malformed stage is named, as the per-stage loop named it;
        # a plane of 5 dimensions in a 3-dimensional result (coords [0, 1,
        # 3]) is bad input too, where the per-stage loop raised IndexError
        space, n, r = golden_runs[0]
        doc = result_to_json_dict(r)
        doc["stages"][1]["hyperplane"] = {"coords": coords, "values": [[1, 2]] * len(coords)}
        doc["stages"][3]["pair_code"] = [0, 10**6]
        with pytest.raises(InputError, match="vertices and hyperplane disagree on ambient dimension"):
            verify_result(result_from_json_dict(doc), space, n)
        doc["stages"][0]["anchors"] = doc["stages"][0]["anchors"][:1]
        with pytest.raises(InputError, match=r"stage 0: anchors has shape \(1, 3\)"):
            verify_result(result_from_json_dict(doc), space, n)

    @pytest.mark.parametrize("chunk", [1, 9, 50])
    def test_grouping_only_decides_batching(self, monkeypatch, grouping_cases, chunk):
        # jobs whose groups are equal but distinct tuples scan as jobs that
        # share the cached tuple, and jobs of mixed vertex counts, in grids
        # of their own, give each job's one-job result
        monkeypatch.setattr(embedding, "_CHUNK_FLOATS", chunk)
        for shared, distinct, one, points, want in grouping_cases:
            assert all(x is not y for a, b in zip(shared, distinct)
                       for x, y in zip(a[1][0], b[1][0]) if len(x))
            assert sum(pair is not None for quantities in one for _, pair in quantities) >= 2
            assert _widest_first(shared) == one == _widest_first(distinct)
            for tol in (RANK_TOL, 1e-3):
                assert any(first is not None for _, first in want[tol])
                assert _least_sigmas(points, tol) == want[tol]

    def test_lapack_calls_do_not_grow_with_stages(self, monkeypatch):
        # one SVD batch for sigma and one pinv batch for the spans, whatever
        # T; the per-stage loop made at least one of each per stage
        space = line_space(8)
        calls = {"svd": 0, "pinv": 0}

        def counting(name, real):
            def run(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return run

        results = [nobeling_embed(space, n=1, T=T, seed=0) for T in (4, 16)]
        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        counts = []
        for r in results:
            calls.update(svd=0, pinv=0)
            assert verify_result(r, space, 1).overall
            counts.append(dict(calls))
        assert counts[0] == counts[1] and 1 <= calls["svd"] <= 2 and 1 <= calls["pinv"] <= 2
        assert calls["svd"] + calls["pinv"] <= 4


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

    def test_deep_mask_built_in_blocks(self):
        # depth 256 on 128 points: the whole (p, k, p) mask would be 4.19 MB
        space = square_space(np.random.default_rng(256), count=128)
        radii = metric._ball_radii(space, 256)
        tracemalloc.start()
        try:
            blocks = list(embedding._depth_pairs(space, radii))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 256 * 128
        assert len(blocks) > 1
        inner, outer = (np.concatenate(a) for a in zip(*blocks))
        gaps = np.subtract(radii[:-1], radii[-1])[:, None]
        i, k, j = np.nonzero(space.dist[:, None, :] < gaps)
        assert inner.tolist() == (256 * 128 + i).tolist()
        assert outer.tolist() == (k * 128 + j).tolist()

    @pytest.mark.parametrize("T", [1, 64, 300, 45362, 45363])
    def test_stops_at_the_block_that_completes_T(self, monkeypatch, T):
        # the golden sample: depth 1 holds 45,362 pairs, the first 64 of them
        # around inner point 0, so T = 64 draws one block of one point
        space = square_space(np.random.default_rng(256), count=256)
        want = repr(pair_schedule(space, T))
        drawn, blocks = [], embedding._depth_pairs

        def counted(space, radii):
            for block in blocks(space, radii):
                drawn.append(len(block[0]))
                yield block

        monkeypatch.setattr(embedding, "_depth_pairs", counted)
        assert repr(pair_schedule(space, T)) == want
        assert sum(drawn[:-1]) < T <= sum(drawn)
        if T == 64:
            assert len(drawn) == 1

    @pytest.mark.parametrize("T", [2.5, None, "3", True, False, np.float64(3.0)],
                             ids=["float", "none", "str", "true", "false", "numpy-float"])
    def test_refuses_a_count_that_is_not_an_integer(self, T):
        with pytest.raises(InputError, match="pair count must be an integer"):
            pair_schedule(line_space(4), T)

    def test_numpy_integer_count(self):
        space = line_space(4)
        assert repr(pair_schedule(space, np.int64(5))) == repr(pair_schedule(space, 5))
        assert assert_same_schedule(space, np.int32(7)) == assert_same_schedule(space, 7)

    @pytest.mark.parametrize("chunk", [1, 3000, 20000])
    def test_small_mask_blocks(self, monkeypatch, chunk):
        # one inner point per block, and blocks that end inside the points;
        # 45,363 pairs take depth 2
        space = square_space(np.random.default_rng(256), count=256)
        want = repr((pair_schedule(space, 64), pair_schedule(space, 45363)))
        monkeypatch.setattr(embedding, "_CHUNK_FLOATS", chunk)
        assert repr((pair_schedule(space, 64), pair_schedule(space, 45363))) == want
        rng = np.random.default_rng(480)
        for count in (1, 7, 40):
            assert_same_schedule(square_space(rng, count=count), 150)

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
    # blocks of one row, of a few rows, of one row beyond _TRIANGLE_FLOATS,
    # and the whole matrix in one block
    CHUNKS = [1, 50, 400, 1 << 20]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_seeded_metrics_pass(self, monkeypatch, chunk):
        monkeypatch.setattr(metric, "_TRIANGLE_FLOATS", chunk)
        rng = np.random.default_rng(500)
        for count in (1, 2, 3, 8, 21):
            assert assert_same_triangle_verdict(euclidean_matrix(rng, count)) is None

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_planted_violations(self, monkeypatch, chunk):
        # stretched and shrunk entries at random places, one to three at a
        # time: the first violation then sits above and below the diagonal
        # of the changed entries and anywhere in the row blocks
        monkeypatch.setattr(metric, "_TRIANGLE_FLOATS", chunk)
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
        monkeypatch.setattr(metric, "_TRIANGLE_FLOATS", chunk)
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


def near_line(rng, count, dim, scale):
    """Points on a random line through 0 at the given scale, off it by 1e-15 relative."""
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    t = rng.uniform(0.0, 1.0, size=(count, 1))
    return scale * (t * v + 1e-15 * rng.normal(size=(count, dim)))


def construction_outcome(make):
    """The dist bytes of a space, or the text of the InputError its construction raises."""
    try:
        return make().dist.tobytes()
    except InputError as exc:
        return str(exc)


def full_check_outcome(d, monkeypatch):
    """construction_outcome of SampledSpace(dist=d) with no certificate: the sums always run."""
    with monkeypatch.context() as patch:
        patch.setattr(metric, "_rounding_certified", lambda d, c: False)
        return construction_outcome(lambda: SampledSpace(dist=d, coords=None, mesh=1.0))


def broadcast_euclidean(c):
    """The (p, p, m) broadcast formula from_points used before its column-by-column sums."""
    diff = c[:, None, :] - c[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


def shortest_paths(w):
    """Floyd-Warshall on a (p, p) weight matrix with inf for no edge."""
    d = w.copy()
    np.fill_diagonal(d, 0.0)
    for k in range(len(d)):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d


def distance_corpus(rng):
    """(kind, d): Euclidean matrices of 1-6 columns and 2-64 points at scales
    1e-160 to 1e160, near-line sets at 1e7, one entry of a Euclidean matrix
    moved by +-0.5, 1 or 3 DISTANCE_TOL, l1 metrics, shortest-path metrics of
    random graphs, random [1, 2] metrics and point sets of rank p - 1."""
    exponents = [-160, -80, -12, -6, -3, 0, 0, 1, 3, 5, 7, 80, 160]
    for case in range(330):
        kind = ["euclid", "shifted", "l1", "graph", "one-two", "rank"][case % 6]
        p, m = int(rng.integers(2, 65)), int(rng.integers(1, 7))
        scale = 10.0 ** int(rng.choice(exponents)) * rng.uniform(0.5, 2.0)
        c = rng.uniform(-1.0, 1.0, size=(p, m))
        if kind == "euclid" and case % 4 == 0:
            yield kind, metric._euclidean(near_line(rng, p, m, 1e7))
        elif kind == "euclid":
            yield kind, metric._euclidean(c) * scale
        elif kind == "shifted":
            # every other set on one axis, so that some triangles are tight
            d = metric._euclidean(c * (np.arange(m) == 0) if rng.uniform() < 0.5 else c)
            i, j = rng.choice(p, size=2, replace=False)
            d[i, j] = d[j, i] = d[i, j] + float(rng.choice([-3, -1, -0.5, 0.5, 1, 3])) * DISTANCE_TOL
            yield kind, d
        elif kind == "l1":
            yield kind, np.abs(c[:, None, :] - c[None, :, :]).sum(axis=-1) * scale
        elif kind == "graph":
            # a random spanning tree plus random chords, positive integer weights
            w = np.full((p, p), np.inf)
            for v in range(1, p):
                u = int(rng.integers(v))
                w[u, v] = w[v, u] = rng.integers(1, 5)
            for u, v in rng.integers(0, p, size=(p, 2)):
                if u != v:
                    w[u, v] = w[v, u] = rng.integers(1, 5)
            yield kind, shortest_paths(w)
        elif kind == "one-two":
            u = np.triu(rng.uniform(1.0, 2.0, size=(p, p)), 1)
            yield kind, u + u.T
        else:
            yield kind, metric._euclidean(rng.normal(size=(p, p - 1)))


class TestCertifiedTriangles:
    # the triangle sums are skipped when witness coordinates (the given ones,
    # or those the Gram-matrix factorisation recovers from a distance matrix)
    # carry a rounding bound that shows the sums cannot fail

    def test_coordinate_corpus_matches_the_full_check(self, monkeypatch):
        # 1-6 columns, 2-39 points, scales 1e-6 to 1e9, every other set near a line
        rng = np.random.default_rng(520)
        raised = certified = 0
        for case in range(400):
            count, dim = int(rng.integers(2, 40)), int(rng.integers(1, 7))
            scale = 10.0 ** rng.uniform(-6.0, 9.0)
            if case % 2:
                c = near_line(rng, count, dim, scale)
            else:
                c = scale * rng.uniform(-1.0, 1.0, size=(count, dim))
            d = metric._euclidean(c)
            want = full_check_outcome(d, monkeypatch)
            assert construction_outcome(lambda: SampledSpace.from_points(c, mesh=1.0)) == want
            if isinstance(want, str):
                raised += 1
                assert want == reference_triangle_message(d)
            else:
                assert want == d.tobytes()
            certified += metric._rounding_certified(d, c)
        assert raised >= 30
        assert 200 <= certified <= 350

    @pytest.mark.parametrize("seed", range(20))
    def test_near_line_at_1e7_raises(self, seed):
        # rounding breaks the triangle inequality by more than DISTANCE_TOL
        # here, so the bound must send these points to the full check
        c = near_line(np.random.default_rng(530 + seed), 32, 3, 1e7)
        d = metric._euclidean(c)
        assert not metric._rounding_certified(d, c)
        with pytest.raises(InputError, match="triangle inequality violated at points ") as info:
            SampledSpace.from_points(c, mesh=1.0)
        assert str(info.value) == reference_triangle_message(d)
        assert metric._gram_witness(d) is None  # past the scale any witness could certify
        with pytest.raises(InputError, match="triangle inequality violated at points ") as again:
            SampledSpace.from_distance_matrix(d, mesh=1.0)
        assert str(again.value) == str(info.value)

    def test_distance_corpus_matches_the_full_check(self, monkeypatch):
        rng = np.random.default_rng(540)
        certified = {}
        raised = {}
        for kind, d in distance_corpus(rng):
            want = full_check_outcome(d, monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                witness = metric._gram_witness(d)
                passed = metric._rounding_certified(d, witness)
                got = construction_outcome(lambda: SampledSpace.from_distance_matrix(d, mesh=1.0))
            message = reference_triangle_message(d)
            assert got == want == (d.tobytes() if message is None else message), kind
            if passed:
                assert isinstance(want, bytes), kind
            certified[kind] = certified.get(kind, 0) + passed
            raised[kind] = raised.get(kind, 0) + isinstance(want, str)
        # what the corpus reaches: certified Euclidean sets at every rank, and
        # rejections among the moved entries, the near-line sets and the l1
        # metrics past the scale where rounding alone breaks a triangle
        assert certified["euclid"] >= 15 and certified["rank"] >= 40
        assert raised["shifted"] >= 5 and raised["euclid"] >= 5 and raised["l1"] >= 5

    def test_certified_square_skips_the_sums(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metric, "_check_triangles", calls.append)
        square = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        space = SampledSpace.from_points(square, mesh=1.0)
        assert space.dist[0, 3] == math.sqrt(2.0)
        again = SampledSpace.from_distance_matrix(space.dist, mesh=1.0)
        assert again.dist.tobytes() == space.dist.tobytes()
        assert calls == []
        # at 1e6 the bound is above the tolerance, so both constructions sum
        big = SampledSpace.from_points(np.multiply(square, 1e6), mesh=1.0)
        SampledSpace.from_distance_matrix(big.dist, mesh=1.0)
        assert len(calls) == 2
        # the 4-cycle graph metric is no Euclidean one. The factorisation
        # stops at rank 1 with a zero residual diagonal, putting points 1
        # and 3 together; the measured residual d(1, 3) = 2 refuses it
        cycle = np.array([[0.0, 1.0, 2.0, 1.0], [1.0, 0.0, 1.0, 2.0], [2.0, 1.0, 0.0, 1.0],
                          [1.0, 2.0, 1.0, 0.0]])
        assert metric._gram_witness(cycle).tolist() == [[0.0], [1.0], [2.0], [1.0]]
        assert not metric._rounding_certified(cycle, metric._gram_witness(cycle))
        SampledSpace.from_distance_matrix(cycle, mesh=1.0)
        assert len(calls) == 3

    def test_witness_wider_than_the_cap_is_not_measured(self, monkeypatch):
        # 256 points: at most 64 columns. Rank 64 is recovered and measured;
        # past it the factorisation gives up and the sums run, with no
        # residual computed
        rng = np.random.default_rng(570)
        assert metric._witness_columns(256) == 64 and metric._witness_columns(1000) == 250
        low = metric._euclidean(rng.normal(size=(256, 64)))
        high = metric._euclidean(rng.normal(size=(256, 255)))
        assert metric._gram_witness(low).shape == (256, 64)
        assert metric._gram_witness(high) is None
        columns, sums = [], []
        euclidean, check = metric._euclidean, metric._check_triangles
        monkeypatch.setattr(metric, "_euclidean", lambda c: columns.append(c.shape[1]) or euclidean(c))
        monkeypatch.setattr(metric, "_check_triangles", lambda d: sums.append(len(d)) or check(d))
        assert not metric._rounding_certified(high, rng.normal(size=(256, 65)))
        assert columns == []
        for d, want_columns, want_sums in ((low, [64], []), (high, [], [256])):
            columns.clear()
            space = SampledSpace.from_distance_matrix(d, mesh=1.0)
            assert space.dist.tobytes() == d.tobytes()
            assert (columns, sums) == (want_columns, want_sums)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_euclidean_has_the_broadcast_bytes(self, m):
        # the column-by-column sums add in the order numpy sums a short last axis
        rng = np.random.default_rng(560 + m)
        for case in range(12):
            count = int(rng.integers(1, 70))
            scale = 10.0 ** rng.uniform(-200.0, 200.0)
            c = rng.uniform(-1.0, 1.0, size=(count, m)) * 10.0 ** rng.uniform(-3.0, 3.0, size=m)
            for points in (c, scale * c, near_line(rng, count, m, scale), np.round(64 * c)):
                with np.errstate(all="ignore"):  # squares past the float range are inf in both
                    assert metric._euclidean(points).tobytes() == broadcast_euclidean(points).tobytes()

    @pytest.mark.parametrize(
        "coords",
        [np.array([[0.0], [1.0], [2.0]]), [[0.0], [1.0], [5.0]], [[0.0], [1.0, 2.0], [3.0]]],
        ids=["float-array", "list", "ragged"],
    )
    def test_direct_construction_checks_a_non_metric(self, coords):
        bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        with pytest.raises(InputError, match="^triangle inequality violated at points 0, 2$"):
            SampledSpace(dist=bad, coords=coords, mesh=1.0)


# ---------------------------------------------------------------------------
# the verifier's star-refinement and v-mapping checks


def reference_star_verdict(space, balls, st):
    """The builder's route (:func:`reference_met_star`) on one result stage."""
    return reference_met_star(*star_case(space, balls, st))


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
    """The builder's route: the met stage cover of ``_stage_covers`` (V meet the delta-ball
    preimage cover, deduplicated by support), then the point-star test.

    A met cover that cannot be built (a grid too fine to index, a sample
    point no grid ball reaches, an empty meet) certifies nothing: False.
    """
    try:
        w = ball_preimage_cover(line_space(f.shape[0]), f, delta)
        return is_point_star_refinement(cover_u, dedupe_by_support(meet(Cover(cover_v), w)))
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
        cases = [random_star_case(rng, d) for _ in range(60)]
        verdicts = star_verdicts(cases)
        assert verdicts == [reference_met_star(*case) for case in cases]
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_small_blocks(self, monkeypatch, chunk):
        # one cell per block, and blocks that end inside a star's box
        monkeypatch.setattr(harness, "_CHUNK_FLOATS", chunk)
        rng = np.random.default_rng(1320)
        cases = [random_star_case(rng, 2) for _ in range(20)]
        assert star_verdicts(cases) == [reference_met_star(*case) for case in cases]

    def test_cell_off_the_middle(self):
        # the middle cell of the star's box, (3, 1)/5, is 0.322 from image 2;
        # the cell (4, 2)/5 is within 0.3 of all three
        f = np.array([[0.85, 0.13], [0.52, 0.4], [0.79, 0.46]])
        assert np.linalg.norm(f[2] - [0.6, 0.2]) > 0.3
        assert (np.linalg.norm(f - [0.8, 0.4], axis=1) < 0.3).all()
        cover_u, cover_v = Cover(np.ones((1, 3))), np.ones((2, 3))
        cases = [(cover_u, cover_v, f, 0.3), (cover_u, cover_v, f, 0.25)]
        assert star_verdicts(cases) == [True, False]
        assert [reference_met_star(*case) for case in cases] == [True, False]

    def test_stage_verdicts_are_independent(self, golden_runs):
        # a grid too fine to index, boxes that do not meet and a star outside
        # V each fail their own stage of a stack, between stages that pass
        space, n, r = golden_runs[0]
        balls = pair_schedule(space, len(r.stages))[0]
        good = [star_case(space, balls, st) for st in r.stages]
        cover_u, cover_v, f, delta = good[0]
        outside_v = cover_v.copy()
        outside_v[:, 3] = 0.0
        # one-point stars on grid points: only the grid too fine to index fails them
        singles, halves = Cover(np.eye(len(f))), np.full(f.shape, 0.5)
        good.append((singles, np.ones_like(cover_v), halves, 0.3))
        bad = [(cover_u, cover_v, f, 1e-300), (cover_u, cover_v, f, 1e-6),
               (cover_u, outside_v, f, delta), (singles, np.ones_like(cover_v), halves, 1e-300)]
        assert not any(reference_met_star(*case) for case in bad)
        assert all(reference_met_star(*case) for case in good)
        cases = [good[0], bad[0], good[1], bad[1], good[2], bad[2], good[4], bad[3], good[3]]
        assert star_verdicts(cases) == [True, False] * 4 + [True]


def star_case(space, balls, st):
    """(cover_u, cover_v rows, f, delta) of one result stage."""
    inner, outer = st.pair_code
    cover_v = np.vstack((ball_cozero(space, balls[outer]), complement_cozero(space, balls[inner])))
    return st.cover_u, cover_v, st.f, st.delta


def stacked_star_verdicts(cases):
    """The batched star check of cases that share p and d, as one stack of stages whose
    member supports are zero-padded to the largest member count."""
    k, p = max(case[0].size for case in cases), cases[0][2].shape[0]
    sup = np.zeros((len(cases), k, p), dtype=bool)
    for row, (cover_u, _, _, _) in zip(sup, cases):
        row[: cover_u.size] = cover_u.supports()
    return harness._stars_in_met_covers(sup, np.stack([case[1] for case in cases]),
                                        np.stack([case[2] for case in cases]),
                                        np.array([case[3] for case in cases])).tolist()


def star_verdicts(cases):
    """Each case's verdict as a stack of one stage; stacking the cases of one sample size
    together gives the same verdicts."""
    alone = [stacked_star_verdicts([case])[0] for case in cases]
    together = [None] * len(cases)
    for p in {case[2].shape[0] for case in cases}:
        rows = [i for i, case in enumerate(cases) if case[2].shape[0] == p]
        for i, verdict in zip(rows, stacked_star_verdicts([cases[i] for i in rows])):
            together[i] = verdict
    assert together == alone
    return alone


# ---------------------------------------------------------------------------
# the verifier's structural checks, one stage at a time


def reference_cube_excess(points):
    return float(max(0.0, (-points).max(initial=0.0), (points - 1.0).max(initial=0.0)))


def reference_stage_report(r, space, n, sigma_of=least_sigma, eta_of=eta, eta_prime_of=eta_prime):
    """The bytes of verify_result's report from a stage loop that measures each stage on its
    own arrays. Its sigma is ``sigma_of`` of its vertices and anchors, and its spans are
    ``eta_of`` and ``eta_prime_of`` of its vertices, as the verifier's stage loop called them
    before its scans were batched: a GeneralPositionError from either fails both span
    checks. The star check takes the builder's route (:func:`reference_star_verdict`) and
    the v-mapping check the per-point loop (:func:`reference_v_mapping`). The input must
    be valid: nothing here raises."""
    balls, pairs, _ = pair_schedule(space, len(r.stages))
    planes = enumerate_hyperplanes(n, len(r.stages))
    images = np.linalg.norm(r.f[None] - r.f[:, None], axis=2)
    checks = []

    def add(name, passed, margin, location):
        margin = -math.inf if math.isnan(margin) else float(margin)
        checks.append(CertificateCheck(name, bool(passed), margin, location))

    prev = None
    for st in r.stages:
        loc = f"stage {st.t}"
        sigma, subset = sigma_of(np.vstack([st.vertices, st.anchors]), RANK_TOL)
        try:
            spans = eta_of(st.vertices, n), eta_prime_of(st.vertices, st.hyperplane, n)
        except GeneralPositionError:
            spans = None
        if prev is not None:
            ok = bool(np.array_equal(prev.f_next, st.f)) and prev.delta_next == st.delta
            add("chain", ok, 0.0 if ok else -1.0, loc)
        ok = tuple(st.pair_code) == pairs[st.t]
        add("pair-schedule", ok, 0.0 if ok else -1.0, loc)
        ok = st.hyperplane == planes[st.t]
        add("hyperplane-schedule", ok, 0.0 if ok else -1.0, loc)
        excess = max(reference_cube_excess(a) for a in (st.f, st.f_next, st.vertices, st.anchors))
        add("in-cube", excess <= CUBE_TOL, CUBE_TOL - excess, loc)
        uncovered = st.cover_u.uncovered_point()
        add("covering", uncovered is None, 0.0 if uncovered is None else -1.0,
            loc if uncovered is None else f"{loc}, point {uncovered}")
        if uncovered is None:
            add("order", order_of(st.cover_u) <= n, float(n - order_of(st.cover_u)), loc)
        else:
            add("order", False, -1.0, loc)
        ok = reference_star_verdict(space, balls, st)
        add("star-refinement", ok, 0.0 if ok else -1.0, loc)
        picks = _stage_vertices(st.cover_u)
        prox = float(np.linalg.norm(st.vertices - st.f[picks], axis=1).max())
        add("vertex-proximity", prox < st.delta, st.delta - prox, loc)
        anchor_err = float(st.hyperplane.equation_violation(st.anchors).max())
        add("anchors-on-plane", anchor_err == 0.0, -anchor_err, loc)
        add("general-position", subset is None, sigma - RANK_TOL,
            loc if subset is None else f"{loc}, subset {subset}")
        if uncovered is None:
            kap = kappa_map(st.cover_u, st.vertices)
            kdiff = float(np.abs(kap.values - st.f_next).max())
            add("kappa-values", kdiff <= CUBE_TOL, CUBE_TOL - kdiff, loc)
            wsum = float(np.abs(kap.weights.sum(axis=1) - 1.0).max())
            wneg = float((-kap.weights).max())
            add("kappa-weights", wsum <= 1e-12 and wneg <= 0.0, 1e-12 - max(wsum, wneg), loc)
        else:
            add("kappa-values", False, -1.0, loc)
            add("kappa-weights", False, -1.0, loc)
        if spans is not None:
            for name, got, want in zip(("eta", "eta-prime"), spans, (st.eta, st.eta_prime)):
                add(name, got == want, -0.0 if got == want else -abs(got - want), loc)
        else:
            add("eta", False, -1.0, loc)
            add("eta-prime", False, -1.0, loc)
        want = min(st.delta, st.eta / 8.0, st.eta_prime / 4.0) / 3.0
        ok = st.delta_next == want and st.delta_next <= st.delta / 3.0
        if st.t == 0:
            ok = ok and st.delta == r.delta0 == DELTA0
        add("delta-schedule", ok, st.delta / 3.0 - st.delta_next, loc)
        contraction = float(np.linalg.norm(st.f_next - st.f, axis=1).max())
        add("contraction", contraction < 3.0 * st.delta and contraction == st.contraction,
            3.0 * st.delta - contraction, loc)
        clearance = float(st.hyperplane.distance_to_point(st.f_next).min())
        add("stage-clearance", clearance >= st.eta_prime - HULL_TOL, clearance - st.eta_prime, loc)
        add("v-mapping", *reference_v_mapping(r, space, balls, st))
        prev = st
    ok = bool(np.array_equal(r.stages[-1].f_next, r.f))
    add("final-chain", ok, 0.0 if ok else -1.0, f"stage {r.stages[-1].t}")
    for st, av in zip(r.stages, r.avoided):
        loc = f"stage {st.t}"
        ok = av.hyperplane == st.hyperplane and av.eta_prime == st.eta_prime
        add("avoided-schedule", ok, 0.0 if ok else -1.0, loc)
        dists = av.hyperplane.distance_to_point(r.f)
        worst = int(dists.argmin())
        margin = float(dists[worst]) - st.eta_prime / 2.0
        add("line-avoiding", margin > 0.0 and float(dists[worst]) == av.distance_margin,
            margin, f"{loc}, point {worst}")
        eqs = av.hyperplane.equation_violation(r.f)
        eq_worst = int(eqs.argmin())
        add("equation-margin",
            float(eqs[eq_worst]) > 0.0 and float(eqs[eq_worst]) == av.equation_margin,
            float(eqs[eq_worst]), f"{loc}, point {eq_worst}")
    if space.size > 1:
        iu = np.triu_indices(space.size, k=1)
        flat = int(images[iu].argmin())
        x, y = int(iu[0][flat]), int(iu[1][flat])
        margin = float(images[iu].min())
        add("injectivity", margin > 0.0 and r.injectivity_margin == margin, margin,
            f"points ({x},{y})")
    else:
        add("injectivity", r.injectivity_margin is None
            or math.isinf(r.injectivity_margin), math.inf, "single point")
    return metric._write_json(CertificateReport(tuple(checks)).to_json_dict())


def unfiltered_stage_report(r, space, n):
    """:func:`reference_stage_report` over the scans that decompose every system."""
    return reference_stage_report(r, space, n, reference_least_sigma, reference_eta,
                                  reference_eta_prime)


def with_stage(r, t, change):
    """r with ``change`` applied to the JSON document of stage t."""
    doc = result_to_json_dict(r)
    change(doc["stages"][t])
    return result_from_json_dict(doc)


@pytest.fixture(scope="module")
def structural_cases(golden_runs, corpus, tampered_reports):
    """{label: (space, n, result, reference bytes)}: the golden and corpus runs, every
    STAGE_TAMPERS and TAMPERS case, and an uncovered point and a grid too fine to index,
    each reference built once at the default block size."""
    runs = {f"golden {i}": run for i, run in enumerate(golden_runs)}
    runs.update((f"corpus {i}", run) for i, run in enumerate(corpus[0]) if run[2] is not None)
    for kind in TAMPERS:
        rng = np.random.default_rng(1300 + TAMPERS.index(kind))
        for i in 0, 2:
            space, n, r = golden_runs[i]
            for t in 0, int(rng.integers(1, len(r.stages))):
                runs[f"{kind} {i} {t}"] = space, n, tampered(r, kind, t, rng)
    space, n, r = golden_runs[0]

    def drop7(st):
        for member in st["cover_u"]["members"]:
            member["values"].pop("7", None)

    runs["uncovered point"] = space, n, with_stage(r, 0, drop7)
    four = SampledSpace.from_points([[0.0], [0.333], [0.667], [1.0]], mesh=0.5)
    fine = with_stage(nobeling_embed(four, n=1, T=2, seed=0), 0, lambda st: st.update(delta=1e-300))
    runs["too-fine grid"] = four, 1, fine
    cases = {label: (space, n, r, reference_stage_report(r, space, n))
             for label, (space, n, r) in runs.items()}
    line = golden_runs[1]
    cases.update((f"stage tampers {key}", (line[0], line[1], bad, want))
                 for key, (bad, want) in tampered_reports.items())
    return cases


class TestStackedChecks:
    """verify_result measures each structural check once over all stages; its report has the
    bytes of the loop that measured them stage by stage, at every block size."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows are the point
    def test_matches_per_stage_reference(self, structural_cases):
        counts = set()
        for label, (space, n, r, want) in structural_cases.items():
            assert report_bytes(r, space, n) == want, label
            counts.add(len({st.cover_u.size for st in r.stages}))
        assert max(counts) > 1  # stages with different member counts
        checks = {label: json.loads(case[3])["checks"] for label, case in structural_cases.items()}
        assert {"name": "covering", "passed": False, "margin": -1.0,
                "location": "stage 0, point 7"} in checks["uncovered point"]
        assert {"name": "star-refinement", "passed": False, "margin": -1.0,
                "location": "stage 0"} in checks["too-fine grid"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows are the point
    @pytest.mark.parametrize("chunk", [1, 9, 50, 600])
    def test_stage_blocks(self, monkeypatch, structural_cases, chunk):
        # one stage per block up to 50 floats; 600 holds three 8-point stages
        # (8 * 8 * 3 floats each), so 16 stages end in a block of one
        space, n, r, want = structural_cases[f"stage tampers {tuple(STAGE_TAMPERS[-1].items())}"]
        blocks = []
        real = harness._stars_in_met_covers

        def recording(sup, cover_v, f, delta):
            blocks.append(len(f))
            return real(sup, cover_v, f, delta)

        # the scans' own block sizes are test_tampered_stages' concern
        monkeypatch.setattr(harness, "_CHUNK_FLOATS", chunk)
        monkeypatch.setattr(harness, "_stars_in_met_covers", recording)
        assert report_bytes(r, space, n) == want
        assert blocks == ([3] * 5 + [1] if chunk == 600 else [1] * 16)


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


def assert_same_star_refinement(cover):
    got, got_witness = star_refinement(cover)
    want, want_witness = reference_star_refinement(cover)
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got_witness == want_witness
    return got


class TestStarRefinementMeet:
    """The star refinement as k meet steps gives the members, member order and
    witness of the per-point signature enumeration."""

    @pytest.mark.parametrize("make, k_max", [(random_value_cover, 5), (random_ball_cover, 6)],
                             ids=["value", "ball"])
    def test_seeded_square_covers(self, make, k_max):
        orders = []
        for seed in range(2000, 2060):
            rng = np.random.default_rng(seed)
            space = square_space(rng, count=20)
            cover = make(space, int(rng.integers(1, k_max + 1)), rng)
            orders.append(order_of(assert_same_star_refinement(cover)))
        assert min(orders) == 0 and max(orders) >= 15

    @pytest.mark.parametrize("seed", [2015, 2031])
    def test_criterion_2_order_15(self, seed):
        # the criterion-2 instances whose refinements reach order 15
        rng = np.random.default_rng(seed)
        space = square_space(rng, count=20)
        cover = random_value_cover(space, int(rng.integers(1, 6)), rng)
        assert order_of(assert_same_star_refinement(cover)) == 15

    @pytest.mark.parametrize("T", [4, 16])
    def test_stage_covers_on_the_line(self, monkeypatch, T):
        covers, mets = embedding._stage_covers, []

        def recording(*args):
            cover_v, met = covers(*args)
            mets.append(met)
            return cover_v, met

        monkeypatch.setattr(embedding, "_stage_covers", recording)
        nobeling_embed(line_space(8), n=1, T=T, seed=0)
        assert len(mets) == T
        for c in mets:
            assert_same_star_refinement(c)

    def test_partition_stages_skip_the_star_refinement(self, monkeypatch):
        # on the 16-stage line only stage 0's met cover is not a partition
        stage, calls = embedding.embedding_stage, []

        def staged(t, *args):
            calls.append((t, []))
            return stage(t, *args)

        def recording(c):
            calls[-1][1].append(c)
            return star_refinement(c)

        monkeypatch.setattr(embedding, "embedding_stage", staged)
        monkeypatch.setattr(embedding, "star_refinement", recording)
        nobeling_embed(line_space(8), n=1, T=16, seed=0)
        assert [(t, len(refined)) for t, refined in calls] == [(t, int(t == 0)) for t in range(16)]
        assert_same_star_refinement(calls[0][1][0])


def assert_same_nerve(cover):
    got, want = nerve_of(cover), reference_nerve_of(cover)
    assert got.vertex_count == want.vertex_count
    assert got.facets == want.facets
    assert_same_faces(got)
    return got


def assert_same_faces(k):
    faces = reference_sorted_faces(k)
    assert k.sorted_faces() == faces
    assert k.simplices == frozenset(map(frozenset, faces))
    assert export_complex(k) == reference_export_complex(k)


def cover_calculus_pass():
    """Every cover one pass of the benchmark's cover-calculus workload takes the nerve of.

    The first four instances of each shape in the acceptance generators'
    seed streams (ball covers with 1..6 members from seed 1000, value covers
    with 1..5 from seed 2000, seed 2003 skipped), each with its ball-pair
    cover and target order: the open shrinking, the star refinement (value
    covers), the reduced cover and its meet with the ball pair.
    """
    for make, first, bound in ((random_ball_cover, 1000, 7), (random_value_cover, 2000, 6)):
        for k in range(1, bound):
            found, seed = 0, first
            while found < 4:
                rng = np.random.default_rng(seed)
                space = square_space(rng, count=20)
                if int(rng.integers(1, bound)) == k and seed != 2003:
                    found += 1
                    cover = make(space, k, rng)
                    center = int(rng.integers(0, 20))
                    outer = float(rng.uniform(0.3, 0.9))
                    inner = outer * float(rng.uniform(0.3, 0.8))
                    n = int(rng.integers(0, 2))
                    pair = Cover((ball_cozero(space, Ball(center=center, radius=outer)),
                                  complement_cozero(space, Ball(center=center, radius=inner))))
                    yield seed, closed_shrinking(cover).open_shrink
                    if make is random_value_cover:
                        yield seed, star_refinement(cover)[0]
                    reduced = reduce_order(space, cover, n, separator_oracle)
                    yield seed, reduced
                    yield seed, meet(pair, reduced)
                seed += 1


def random_complex(rng, vertex_count):
    """A few facets of 1..9 random vertices, one of them holding the last vertex."""
    facets = []
    for _ in range(int(rng.integers(1, 6))):
        size = int(rng.integers(1, min(9, vertex_count) + 1))
        facets.append(frozenset(rng.choice(vertex_count, size=size, replace=False).tolist()))
    facets.append(frozenset({vertex_count - 1}))
    return SimplicialComplex(vertex_count, frozenset(facets))


class TestNerveMasks:
    """The digit-marked face text and the byte writer give the facets, face order
    and bytes of the tuple sets and ``json.dumps``."""

    def test_cover_calculus_pass(self):
        orders = {}
        for seed, cover in cover_calculus_pass():
            orders[seed] = max(orders.get(seed, -1), assert_same_nerve(cover).dim)
        assert len(orders) == 44
        assert orders[2015] == orders[2031] == 15

    @pytest.mark.parametrize(
        "vertex_count",
        [1, 10, 11, 15, 16, 17, 63, 64, 65] + list(range(99, 131)) + [999, 1000, 1001]
        + [9999, 10000, 10001])
    def test_random_complexes(self, vertex_count):
        # crossing the one- to five-digit labels, so faces mix digit-count marks
        rng = np.random.default_rng(7100 + vertex_count)
        for _ in range(3):
            assert_same_faces(random_complex(rng, vertex_count))

    @pytest.mark.parametrize("facets", [
        [{0, 9, 10, 999_999}, {5, 99_999, 100_000}],
        [{3, 10**30, 10**31, 10**43, 10**47}, {10**30 - 1, 10**31, 10**47 + 5}],
    ], ids=["million", "past-31-digits"])
    def test_sparse_complex(self, facets):
        # few facets on a huge vertex range; past 31 digits the marks leave ASCII
        k = SimplicialComplex(max(map(max, facets)) + 1, frozenset(map(frozenset, facets)))
        assert_same_faces(k)

    @pytest.mark.parametrize("vertex_count", [0, 5])
    def test_empty_complex(self, vertex_count):
        k = SimplicialComplex(vertex_count, frozenset())
        assert k.sorted_faces() == []
        assert k.simplices == frozenset()
        assert export_complex(k) == reference_export_complex(k)

    def test_point_in_no_member(self):
        # point 1 lies in no member; point 3 only in member 2
        cover = Cover([[1.0, 0.0, 0.5, 0.0], [0.2, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        assert cover.uncovered_point() == 1
        k = assert_same_nerve(cover)
        assert k.facets == {frozenset({0, 1}), frozenset({2})}
