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

from .covers import (
    Cover,
    _box_cells,
    _grid_boxes,
    _grid_steps,
    _point_stars,
    _stars_within,
    order_of,
)
from .embedding import (
    CUBE_TOL,
    DELTA0,
    HULL_TOL,
    RANK_TOL,
    EmbeddingResult,
    StageState,
    enumerate_hyperplanes,
    kappa_map,
    pair_schedule,
    _least_sigmas,
    _span_job,
    _stage_vertices,
    _widest_first,
)
from .errors import CertificateError, InputError
from .metric import _CHUNK_FLOATS, SampledSpace, _null_if_inf, ball_cozero, complement_cozero


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


def _cube_excess(points: np.ndarray) -> float:
    points = np.asarray(points, dtype=float)
    return float(max(0.0, (-points).max(initial=0.0), (points - 1.0).max(initial=0.0)))


def _stars_in_met_cover(cover_u: Cover, cover_v: np.ndarray, f: np.ndarray, delta: float) -> bool:
    """Whether the star of every point of ``cover_u`` lies in one member of V meet W.

    V is the stage's ball-pair cover (the rows of ``cover_v``) and W the
    cover by preimages of the delta-balls around the grid points c / m,
    c in {0..m}^d, m = max(1, ceil(sqrt(d) / delta)). A star S lies in a
    member of the meet when it lies in one V member and some grid point g
    has |f(y) - g| < delta for every y in S, where the ramps
    max(0, (delta - |f(y) - g|) / delta) are positive. Such a g lies in the
    grid box of every y in S, so only the intersection of those boxes is
    measured, for the distinct nonempty stars together: first its middle
    cell, then, for the stars that leaves open, every cell, in blocks of at
    most ``_CHUNK_FLOATS`` floats. A grid finer than 2^62 steps per axis fails.
    """
    stars = _point_stars(cover_u)
    if not _stars_within(stars, cover_v > 0.0):
        return False
    p, d = f.shape
    try:
        m = _grid_steps(d, delta)
    except CertificateError:
        return False
    lo, hi = _grid_boxes(f, delta, m)
    lo = np.where(stars[:, :, None], lo, 0).max(axis=1)
    hi = np.where(stars[:, :, None], hi, m).min(axis=1)
    if (lo > hi).any():
        return False

    def fits(owner: np.ndarray, cells: np.ndarray) -> np.ndarray:
        near = np.linalg.norm(f[None] - (cells / m)[:, None], axis=2) < delta
        return (near | ~stars[owner]).all(axis=1)

    # the middle cell settles most stars; lo + hi can pass int64 near m = 2^62
    found = fits(np.arange(len(stars)), lo + (hi - lo) // 2)
    todo = np.flatnonzero(~found)
    for rows, cells in _box_cells(lo[todo], hi[todo], max(1, _CHUNK_FLOATS // (p * d))):
        owner = todo[rows]
        found[owner[fits(owner, cells)]] = True
    return bool(found.all())


def verify_result(r: EmbeddingResult, space: SampledSpace, n: int) -> CertificateReport:
    """Recheck every stage and final invariant of an embedding result.

    Raises on malformed input (wrong n, a map, vertex or anchor array of
    the wrong shape, a radii_depth other than the one the stage count
    schedules, a stage index or pair code outside its range); returns a
    report whose checks, in deterministic order, cover the stage chain,
    ball-pair and hyperplane schedules, cover properties, vertex placement
    and general position, the kappa recomputation, the delta schedule, the
    contraction and clearance bounds, the small-ball (V-mapping) property
    of the final map, hyperplane avoidance, and injectivity.

    Every stage, and then every avoided entry, is validated before any
    check runs, so a malformed stage raises, in stage order, and then a
    malformed avoided list or plane, before anything is measured. Then one scan
    measures the least sigma of every stage (vertices and anchors) and one
    scan the eta and eta' spans of every stage, and the stage loop reads
    their results; each stage's values are the bytes a scan of that stage
    alone gives. A stage whose spans meet or touch the hyperplane fails
    both ``eta`` and ``eta-prime``.
    """
    if r.n != n:
        raise InputError(f"result was built for n={r.n}, not n={n}")
    if not r.stages:
        raise InputError("result has no stages")
    if r.f.shape != (space.size, 2 * n + 1):
        raise InputError("final map shape does not match the sample")
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
    for st in r.stages:
        loc = f"stage {st.t}"
        if not 0 <= st.t < len(r.stages):
            raise InputError(f"{loc} outside 0..{len(r.stages) - 1}")
        if not all(0 <= i < len(balls) for i in st.pair_code):
            raise InputError(f"{loc}: pair_code {list(st.pair_code)} names a ball "
                             f"outside 0..{len(balls) - 1}")
        for name, rows in (("f", space.size), ("f_next", space.size),
                           ("vertices", st.cover_u.size), ("anchors", n + 1)):
            shape = getattr(st, name).shape
            if shape != (rows, d):
                raise InputError(f"{loc}: {name} has shape {shape}, not {(rows, d)}")
        empty = np.flatnonzero(~st.cover_u.supports().any(axis=1))
        if empty.size:
            raise InputError(f"{loc}: cover_u member {int(empty[0])} is empty")
        span_jobs += [_span_job(st.vertices, n), _span_job(st.vertices, n, st.hyperplane)]
    if len(r.avoided) != len(r.stages):
        raise InputError("result must record one avoided hyperplane per stage")
    for i, av in enumerate(r.avoided):
        if av.hyperplane.ambient_dim != d:
            raise InputError(f"avoided {i}: hyperplane has ambient dimension "
                             f"{av.hyperplane.ambient_dim}, not {d}")
    # one scan per quantity over every stage: sigma, then eta and eta' together
    sigmas = _least_sigmas([np.vstack([st.vertices, st.anchors]) for st in r.stages], RANK_TOL)
    spans = _widest_first(span_jobs)

    prev: StageState | None = None
    for st, (sigma, subset), eta_re, etap_re in zip(r.stages, sigmas, spans[::2], spans[1::2]):
        loc = f"stage {st.t}"
        if prev is not None:
            ok = bool(np.array_equal(prev.f_next, st.f)) and prev.delta_next == st.delta
            add("chain", ok, 0.0 if ok else -1.0, loc)
        ok = tuple(st.pair_code) == pairs[st.t]
        add("pair-schedule", ok, 0.0 if ok else -1.0, loc)
        ok = st.hyperplane == planes[st.t]
        add("hyperplane-schedule", ok, 0.0 if ok else -1.0, loc)

        excess = max(
            _cube_excess(st.f),
            _cube_excess(st.f_next),
            _cube_excess(st.vertices),
            _cube_excess(st.anchors),
        )
        add("in-cube", excess <= CUBE_TOL, CUBE_TOL - excess, loc)

        uncovered = st.cover_u.uncovered_point()
        add("covering", uncovered is None, 0.0 if uncovered is None else -1.0,
            loc if uncovered is None else f"{loc}, point {uncovered}")
        if uncovered is None:
            add("order", order_of(st.cover_u) <= n, float(n - order_of(st.cover_u)), loc)
        else:
            add("order", False, -1.0, loc)
        inner, outer = st.pair_code
        cover_v = np.vstack(
            (ball_cozero(space, balls[outer]), complement_cozero(space, balls[inner]))
        )
        ok = _stars_in_met_cover(st.cover_u, cover_v, st.f, st.delta)
        add("star-refinement", ok, 0.0 if ok else -1.0, loc)

        picks = _stage_vertices(st.cover_u)
        prox = float(np.linalg.norm(st.vertices - st.f[picks], axis=1).max())
        add("vertex-proximity", prox < st.delta, st.delta - prox, loc)
        anchor_err = float(st.hyperplane.equation_violation(st.anchors).max())
        add("anchors-on-plane", anchor_err == 0.0, -anchor_err, loc)

        add("general-position", subset is None, sigma - RANK_TOL,
            loc if subset is None else f"{loc}, subset {subset}")

        if uncovered is None:  # kappa is defined only on a covering
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

        contraction = float(np.linalg.norm(st.f_next - st.f, axis=1).max())
        add("contraction", contraction < 3.0 * st.delta and contraction == st.contraction,
            3.0 * st.delta - contraction, loc)
        clearance = float(st.hyperplane.distance_to_point(st.f_next).min())
        add("stage-clearance", clearance >= st.eta_prime - HULL_TOL,
            clearance - st.eta_prime, loc)

        # small image balls pull back into one member of the stage pair cover
        pre = images < st.eta / 4.0  # row x: the points imaged near f(x)
        inside = ~(pre[:, None, :] & ~(cover_v > 0.0)).any(axis=2)
        bad = np.flatnonzero(~(pre.any(axis=1) & inside.any(axis=1)))
        if bad.size:
            add("v-mapping", False, 0.0, f"{loc}, point {int(bad[0])}")
        else:
            low = np.where(pre[:, None, :], cover_v, np.inf).min(axis=2)
            add("v-mapping", True, float(np.where(inside, low, -np.inf).max(axis=1).min()), loc)
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
