"""Re-verification of embedding results.

Everything here recomputes from raw stage data; stored margins and
booleans are treated as claims to be checked, never as evidence. Each
failing check carries a location (stage, point, or pair) sufficient to
reproduce it in isolation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .covers import _box_cells, _grid_boxes, _grid_steps
from .embedding import (
    CUBE_TOL,
    DELTA0,
    HULL_TOL,
    RANK_TOL,
    EmbeddingResult,
    enumerate_hyperplanes,
    kappa_map,
    pair_schedule,
    _least_sigmas,
    _span_job,
    _widest_first,
)
from .errors import CertificateError, InputError
from .metric import _CHUNK_FLOATS, SampledSpace, _null_if_inf


@dataclass(frozen=True)
class CertificateCheck:
    """One verified claim: signed margin, negative means violated."""

    name: str
    passed: bool
    margin: float
    location: str


@dataclass(frozen=True)
class CertificateReport:
    checks: tuple[CertificateCheck, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CertificateCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        # a check's keys are its fields, in field order
        checks = [{**asdict(c), "margin": _null_if_inf(c.margin)} for c in self.checks]
        return {"overall": self.overall, "checks": checks}


def _plane_offsets(x: np.ndarray, coords: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """x_{c_i} - r_i per plane: (T, rows, d) points against T planes' (T, n+1) coords and levels."""
    return np.take_along_axis(x, coords[:, None, :], axis=2) - levels[:, None, :]


def _stars_in_met_covers(sup: np.ndarray, cover_v: np.ndarray, f: np.ndarray,
                         delta: np.ndarray) -> np.ndarray:
    """Per stage: whether the star of every point of its cover U lies in one member of V meet W.

    Stage s has the (k, p) member supports ``sup[s]`` of U (zero-padded to one
    member count), the two rows ``cover_v[s]`` of its ball-pair cover V, the
    images ``f[s]`` and the scale ``delta[s]``; W is the cover by preimages of the
    delta-balls around the grid points c / m, c in {0..m}^d,
    m = max(1, ceil(sqrt(d) / delta)). A star S lies in a member of the meet when
    it lies in one V member and some grid point g has |f(y) - g| < delta for
    every y in S, where the ramps max(0, (delta - |f(y) - g|) / delta) are
    positive. Such a g lies in the grid box of every y in S, so only the
    intersection of those boxes is measured, for every point star of every
    stage together: first its middle cell, then, for the stars that
    leaves open, every cell, in blocks of at most ``_CHUNK_FLOATS`` floats.
    Each stage's verdict is its own: a grid finer than 2^62 steps per axis, an
    empty box or a star outside V fails only that stage.
    """
    count, p, d = f.shape
    supf = sup.astype(float)
    # row x of stage s: the star of x; a point in no member has an empty star,
    # which lies in every V member and every grid box, and passes
    stars = supf.transpose(0, 2, 1) @ supf > 0.0
    # a star that leaves every V member
    astray = (stars[:, :, None, :] & ~(cover_v > 0.0)[:, None, :, :]).any(axis=3).all(axis=2)
    ok = ~astray.any(axis=1)
    m = np.ones(count, dtype=np.int64)
    for s in range(count):
        try:
            m[s] = _grid_steps(d, float(delta[s]))
        except CertificateError:
            ok[s] = False
    lo, hi = _grid_boxes(f, delta[:, None, None], m[:, None, None])
    lo = np.where(stars[..., None], lo[:, None], 0).max(axis=2)
    hi = np.where(stars[..., None], hi[:, None], m[:, None, None, None]).min(axis=2)
    ok &= ~(lo > hi).any(axis=(1, 2))
    stage, point = np.nonzero(np.repeat(ok[:, None], p, axis=1))

    def fits(rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
        s = stage[rows]
        near = (np.linalg.norm(f[s] - (cells / m[s, None])[:, None], axis=2)
                < delta[s, None])
        return (near | ~stars[s, point[rows]]).all(axis=1)

    # the middle cell settles most stars; lo + hi can pass int64 near m = 2^62
    lo, hi = lo[stage, point], hi[stage, point]
    found = fits(np.arange(len(stage)), lo + (hi - lo) // 2)
    todo = np.flatnonzero(~found)
    for rows, cells in _box_cells(lo[todo], hi[todo], max(1, _CHUNK_FLOATS // (p * d))):
        owner = todo[rows]
        found[owner[fits(owner, cells)]] = True
    ok[stage[~found]] = False
    return ok


def verify_result(r: EmbeddingResult, space: SampledSpace, n: int) -> CertificateReport:
    """Recheck every stage and final invariant of an embedding result.

    Raises on malformed input (wrong n, a map, vertex or anchor array of
    the wrong shape or holding a non-finite value, a radii_depth other than
    the one the stage count schedules, a stage index or pair code outside its
    range, a stage at position i whose index is not i); returns a report
    whose checks, in deterministic order, cover the stage chain, ball-pair
    and hyperplane schedules, cover properties, vertex placement and
    general position, the kappa recomputation, the delta
    schedule, the contraction and clearance bounds, the small-ball
    (V-mapping) property of the final map, hyperplane avoidance, and
    injectivity.

    Every stage, and then every avoided entry, is validated before any
    check runs, so a malformed stage raises, in stage order, and then a
    malformed avoided list or plane, before anything is measured; a NaN or
    infinite entry of a stage's ``f``, ``f_next``, ``vertices`` or
    ``anchors``, or of the final map, is an :class:`InputError` naming it.
    Then each check is one array expression over the stacked stages: one
    scan measures the least sigma of every stage (vertices and anchors), one
    scan every stage's span job, which measures eta and eta' together as the
    builder's does (:func:`~dimlab.embedding._span_job`), and the other per-stage
    checks run over (T, p, d) stacks, member rows concatenated across
    stages, and blocks of stages for the (p, p) star and v-mapping tests.
    Only the kappa recomputation and the scalar schedule checks run stage
    by stage. The stage loop then appends the checks; each stage's values are the bytes a check of that
    stage alone gives, and its star verdict does not depend on other
    stages. A stage whose spans meet or touch the hyperplane fails both
    ``eta`` and ``eta-prime``.
    """
    if r.n != n:
        raise InputError(f"result was built for n={r.n}, not n={n}")
    if not r.stages:
        raise InputError("result has no stages")
    if r.f.shape != (space.size, 2 * n + 1):
        raise InputError("final map shape does not match the sample")
    if not np.isfinite(r.f).all():
        raise InputError("final map holds a non-finite value")
    d = 2 * n + 1
    balls, pairs, depth = pair_schedule(space, len(r.stages))
    if r.radii_depth != depth:
        raise InputError(f"result has radii_depth {r.radii_depth}, but its "
                         f"{len(r.stages)} stages schedule balls at depth {depth}")
    planes = enumerate_hyperplanes(n, len(r.stages))
    # images[x, y] = |f(y) - f(x)|, for the v-mapping and injectivity checks
    images = np.linalg.norm(r.f[None] - r.f[:, None], axis=2)
    checks: list[CertificateCheck] = []

    def add(name: str, passed: bool, margin: float, location: str) -> None:
        # a margin that cannot be measured (NaN) counts as violated without bound
        margin = -math.inf if math.isnan(margin) else float(margin)
        checks.append(CertificateCheck(name, bool(passed), margin, location))

    span_jobs = []
    for at, st in enumerate(r.stages):
        loc = f"stage {st.t}"
        if not 0 <= st.t < len(r.stages):
            raise InputError(f"{loc} outside 0..{len(r.stages) - 1}")
        # stage t handles pair t and plane t: a repeated or reordered index
        # would leave a scheduled pair and plane unhandled
        if st.t != at:
            raise InputError(f"stage at position {at} records t={st.t}")
        if not all(0 <= i < len(balls) for i in st.pair_code):
            raise InputError(f"{loc}: pair_code {list(st.pair_code)} names a ball "
                             f"outside 0..{len(balls) - 1}")
        if st.cover_u.sample_size != space.size:
            raise InputError(f"{loc}: cover_u covers {st.cover_u.sample_size} points, "
                             f"not {space.size}")
        for name, rows in (("f", space.size), ("f_next", space.size),
                           ("vertices", st.cover_u.size), ("anchors", n + 1)):
            value = getattr(st, name)
            if value.shape != (rows, d):
                raise InputError(f"{loc}: {name} has shape {value.shape}, not {(rows, d)}")
            if not np.isfinite(value).all():
                raise InputError(f"{loc}: {name} holds a non-finite value")
        empty = np.flatnonzero(~st.cover_u.supports().any(axis=1))
        if empty.size:
            raise InputError(f"{loc}: cover_u member {int(empty[0])} is empty")
        span_jobs.append(_span_job(st.vertices, n, st.hyperplane))
    if len(r.avoided) != len(r.stages):
        raise InputError("result must record one avoided hyperplane per stage")
    for i, av in enumerate(r.avoided):
        if av.hyperplane.ambient_dim != d:
            raise InputError(f"avoided {i}: hyperplane has ambient dimension "
                             f"{av.hyperplane.ambient_dim}, not {d}")
    # two scans over every stage: sigma, then eta and eta' together
    sigmas = _least_sigmas([np.vstack([st.vertices, st.anchors]) for st in r.stages], RANK_TOL)
    spans = _widest_first(span_jobs)

    # the stages stacked: (T, p, d) maps, (T, n+1, d) anchors, and member rows
    # (supports, vertices) concatenated, stage s's from starts[s]
    count, p = len(r.stages), space.size
    f = np.stack([st.f for st in r.stages])
    f_next = np.stack([st.f_next for st in r.stages])
    anchors = np.stack([st.anchors for st in r.stages])
    sizes = [st.cover_u.size for st in r.stages]
    starts = np.cumsum([0] + sizes[:-1])
    sup = np.concatenate([st.cover_u.supports() for st in r.stages])
    vertices = np.concatenate([st.vertices for st in r.stages])
    delta = np.array([st.delta for st in r.stages])
    etas = np.array([st.eta for st in r.stages])
    coords = np.array([st.hyperplane.coords for st in r.stages])
    levels = np.array([st.hyperplane._levels for st in r.stages])

    chain = ((f_next[:-1] == f[1:]).all(axis=(1, 2))
             & (np.array([st.delta_next for st in r.stages[:-1]]) == delta[1:])).tolist()
    excess = np.maximum(-vertices, vertices - 1.0).max(axis=1)
    excess = np.maximum.reduceat(excess, starts)
    for a in (f, f_next, anchors):
        excess = np.maximum(excess, np.maximum(-a, a - 1.0).max(axis=(1, 2)))
    excess = np.maximum(excess, 0.0).tolist()
    covered = np.logical_or.reduceat(sup, starts, axis=0)
    uncovered = [None if ok else point for ok, point in
                 zip(covered.all(axis=1).tolist(), (~covered).argmax(axis=1).tolist())]
    order = (np.add.reduceat(sup, starts, axis=0, dtype=np.intp).max(axis=1) - 1).tolist()
    # picks: the least-index point of each member, as the builder places vertices
    picks = sup.argmax(axis=1)
    owner = np.repeat(np.arange(count), sizes)
    with np.errstate(all="ignore"):  # vertices near +-1e308 give an inf proximity
        prox = np.linalg.norm(vertices - f[owner, picks], axis=1)
    prox = np.maximum.reduceat(prox, starts).tolist()
    anchor_err = np.abs(_plane_offsets(anchors, coords, levels)).max(axis=(1, 2)).tolist()
    contraction = np.linalg.norm(f_next - f, axis=2).max(axis=1).tolist()
    off = _plane_offsets(f_next, coords, levels)
    clearance = np.sqrt((off * off).sum(axis=-1)).min(axis=1).tolist()

    # the two ball-pair cover rows of each stage: the outer ball, the complement
    # of the closed inner ball
    inner = [balls[st.pair_code[0]] for st in r.stages]
    outer = [balls[st.pair_code[1]] for st in r.stages]
    r_in = np.array([b.radius for b in inner])[:, None]
    r_out = np.array([b.radius for b in outer])[:, None]
    d_in = space.dist[[b.center for b in inner]]
    d_out = space.dist[[b.center for b in outer]]
    cover_v = np.stack((np.minimum(1.0, np.maximum(0.0, (r_out - d_out) / r_out)),
                        np.minimum(1.0, np.maximum(0.0, d_in - r_in))), axis=1)

    # the (p, p) tests in blocks of stages: star refinement, and the v-mapping
    # of small image balls into one member of the stage pair cover
    padded = np.zeros((count, max(sizes), p), dtype=bool)
    padded[owner, np.arange(len(owner)) - starts[owner]] = sup
    star_ok, vmap = [], []
    step = max(1, _CHUNK_FLOATS // (p * p * max(d, 2)))
    for blk in (slice(s, s + step) for s in range(0, count, step)):
        star_ok += _stars_in_met_covers(padded[blk], cover_v[blk], f[blk], delta[blk]).tolist()
        pre = images < (etas[blk] / 4.0)[:, None, None]  # row x: the points imaged near f(x)
        inside = ~(pre[:, :, None, :] & ~(cover_v[blk] > 0.0)[:, None]).any(axis=3)
        good = pre.any(axis=2) & inside.any(axis=2)
        low = np.where(pre[:, :, None, :], cover_v[blk][:, None], np.inf).min(axis=3)
        margin = np.where(inside, low, -np.inf).max(axis=2).min(axis=1)
        vmap += zip(good.all(axis=1).tolist(), (~good).argmax(axis=1).tolist(), margin.tolist())

    rows = zip(r.stages, sigmas, spans, excess, uncovered, order, star_ok,
               prox, anchor_err, contraction, clearance, vmap)
    for s, (st, (sigma, subset), (eta_re, etap_re), exc, unc, order_s, star_s, prox_s,
            anchor_s, contraction_s, clear_s, (vm_ok, vm_point, vm_margin)) in enumerate(rows):
        loc = f"stage {st.t}"
        if s:
            ok = chain[s - 1]
            add("chain", ok, 0.0 if ok else -1.0, loc)
        ok = tuple(st.pair_code) == pairs[st.t]
        add("pair-schedule", ok, 0.0 if ok else -1.0, loc)
        ok = st.hyperplane == planes[st.t]
        add("hyperplane-schedule", ok, 0.0 if ok else -1.0, loc)
        add("in-cube", exc <= CUBE_TOL, CUBE_TOL - exc, loc)

        add("covering", unc is None, 0.0 if unc is None else -1.0,
            loc if unc is None else f"{loc}, point {unc}")
        if unc is None:
            add("order", order_s <= n, float(n - order_s), loc)
        else:
            add("order", False, -1.0, loc)
        add("star-refinement", star_s, 0.0 if star_s else -1.0, loc)
        add("vertex-proximity", prox_s < st.delta, st.delta - prox_s, loc)
        add("anchors-on-plane", anchor_s == 0.0, -anchor_s, loc)

        add("general-position", subset is None, sigma - RANK_TOL,
            loc if subset is None else f"{loc}, subset {subset}")

        if unc is None:  # kappa is defined only on a covering
            kap = kappa_map(st.cover_u, st.vertices)
            kdiff = float(np.abs(kap.values - st.f_next).max())
            add("kappa-values", kdiff <= CUBE_TOL, CUBE_TOL - kdiff, loc)
            wsum = float(np.abs(kap.weights.sum(axis=1) - 1.0).max())
            wneg = float((-kap.weights).max())
            add("kappa-weights", wsum <= 1e-12 and wneg <= 0.0,
                1e-12 - max(wsum, wneg), loc)
        else:
            add("kappa-values", False, -1.0, loc)
            add("kappa-weights", False, -1.0, loc)

        if eta_re[1] is None and etap_re[1] is None:
            # equal values, infinite ones too, are -0.0 apart
            for name, (got, _), want in (("eta", eta_re, st.eta),
                                         ("eta-prime", etap_re, st.eta_prime)):
                add(name, got == want, -0.0 if got == want else -abs(got - want), loc)
        else:  # a meeting or touching pair fails both
            add("eta", False, -1.0, loc)
            add("eta-prime", False, -1.0, loc)

        want = min(st.delta, st.eta / 8.0, st.eta_prime / 4.0) / 3.0
        ok = st.delta_next == want and st.delta_next <= st.delta / 3.0
        if st.t == 0:
            ok = ok and st.delta == r.delta0 == DELTA0
        add("delta-schedule", ok, st.delta / 3.0 - st.delta_next, loc)

        add("contraction", contraction_s < 3.0 * st.delta and contraction_s == st.contraction,
            3.0 * st.delta - contraction_s, loc)
        add("stage-clearance", clear_s >= st.eta_prime - HULL_TOL, clear_s - st.eta_prime, loc)
        if vm_ok:
            add("v-mapping", True, vm_margin, loc)
        else:
            add("v-mapping", False, 0.0, f"{loc}, point {vm_point}")

    ok = bool(np.array_equal(r.stages[-1].f_next, r.f))
    add("final-chain", ok, 0.0 if ok else -1.0, f"stage {r.stages[-1].t}")

    # the final map against every avoided plane at once: (T, p, n+1) offsets
    off = _plane_offsets(np.broadcast_to(r.f, (count, p, d)),
                         np.array([av.hyperplane.coords for av in r.avoided]),
                         np.array([av.hyperplane._levels for av in r.avoided]))
    dists = np.sqrt((off * off).sum(axis=-1))
    eqs = np.abs(off).max(axis=-1)
    worst, eq_worst = dists.argmin(axis=1).tolist(), eqs.argmin(axis=1).tolist()
    dist_min, eq_min = dists.min(axis=1).tolist(), eqs.min(axis=1).tolist()
    for st, av, w, dist, ew, eq in zip(r.stages, r.avoided, worst, dist_min, eq_worst, eq_min):
        loc = f"stage {st.t}"
        ok = av.hyperplane == st.hyperplane and av.eta_prime == st.eta_prime
        add("avoided-schedule", ok, 0.0 if ok else -1.0, loc)
        margin = dist - st.eta_prime / 2.0
        add("line-avoiding", margin > 0.0 and dist == av.distance_margin,
            margin, f"{loc}, point {w}")
        add("equation-margin", eq > 0.0 and eq == av.equation_margin, eq, f"{loc}, point {ew}")

    if space.size > 1:
        iu = np.triu_indices(space.size, k=1)
        flat = int(images[iu].argmin())
        x, y = int(iu[0][flat]), int(iu[1][flat])
        margin = float(images[iu].min())
        stored_ok = r.injectivity_margin == margin
        add("injectivity", margin > 0.0 and stored_ok, margin, f"points ({x},{y})")
    else:
        add("injectivity", r.injectivity_margin is None
            or math.isinf(r.injectivity_margin), math.inf, "single point")
    return CertificateReport(tuple(checks))


def verify_nobeling_membership(r: EmbeddingResult) -> CertificateReport:
    """Check every image point clears every handled hyperplane's equations.

    For each avoided hyperplane, every point must violate at least one of
    its defining equations, by at least the recorded per-plane margin.
    :func:`verify_result`'s ``equation-margin`` check asks for equality
    with that margin, so it implies this one.
    """
    checks: list[CertificateCheck] = []
    for t, av in enumerate(r.avoided):
        eqs = av.hyperplane.equation_violation(r.f)
        worst = int(eqs.argmin())
        margin = float(eqs[worst])
        passed = margin > 0.0 and margin >= av.equation_margin
        checks.append(
            CertificateCheck(
                "rational-avoidance", passed, margin, f"stage {t}, point {worst}"
            )
        )
    return CertificateReport(tuple(checks))
