"""The four benchmark workloads: inputs, one operation, and its checks.

Each workload turns the workload seed into a list of inputs (``inputs``),
runs one operation on one input through the public ``dimlab`` API
(``operate``), checks the outputs with the benchmark's own brute force
(``check``) and digests them (``fingerprint``). ``operate`` looks every
library function up on the ``dimlab`` package at call time, so the span
recorder's wrappers see the calls when tracing is on.

``operate(dl, item, lap)`` calls ``lap(phase)`` as each phase ends; the
runner times the phases. ``produce`` is the call that makes the workload's
result; ``consume`` is the work that reads it back:

- embed-*: produce = nobeling_embed; consume = parse + verify_result +
  verify_nobeling_membership (serialising sits between the two and counts
  only toward the whole operation);
- cover-calculus: produce = shrinking, star refinement (value covers),
  order reduction, meet and order of one cover; consume = nerve_of +
  export_complex on every cover produced;
- sample-large: produce = both SampledSpace constructions + pair_schedule;
  consume = ball cover, shrinking, order reduction, order and nerve.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

# ---------------------------------------------------------------------------
# input recipes, matching the acceptance-suite generators draw for draw


def square_points(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=(count, 2))


def pairwise(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def ball_cover_spec(dist: np.ndarray, k: int, rng: np.random.Generator) -> list[tuple[int, float]]:
    """(center, radius) of a covering k-ball family, the acceptance recipe.

    Every point gets an owner ball; a ball is centred on one of its points
    with radius its farthest owned point plus padding, so the union covers.
    """
    p = dist.shape[0]
    owners = np.concatenate([np.arange(k), rng.integers(0, k, size=p - k)])
    rng.shuffle(owners)
    while len(set(owners.tolist())) < k:
        owners = np.concatenate([np.arange(k), rng.integers(0, k, size=p - k)])
        rng.shuffle(owners)
    diameter = float(dist.max())
    spec = []
    for i in range(k):
        owned = np.nonzero(owners == i)[0]
        center = int(rng.choice(owned))
        reach = float(dist[center, owned].max())
        spec.append((center, reach + float(rng.uniform(0.05, 0.3)) * (diameter + 1.0)))
    return spec


def value_cover_matrix(p: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random [0, 1] values, zeroed below 0.35, holes patched: the acceptance recipe."""
    g = rng.uniform(0.0, 1.0, size=(k, p))
    g[g < 0.35] = 0.0
    hole = ~(g > 0.0).any(axis=0)
    for x in np.nonzero(hole)[0]:
        g[rng.integers(0, k), x] = rng.uniform(0.5, 1.0)
    return g


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# brute-force checks on supports (independent of the functions under test)


def covers_all(sup: np.ndarray) -> bool:
    return bool(sup.any(axis=0).all())


def refines(v: np.ndarray, u: np.ndarray) -> bool:
    """Every row of v is contained in some row of u."""
    return all(any(not (row & ~big).any() for big in u) for row in v if row.any())


def max_multiplicity(sup: np.ndarray) -> int:
    return int(sup.sum(axis=0).max())


# ---------------------------------------------------------------------------
# embed workloads


@dataclass
class EmbedCase:
    points: np.ndarray
    mesh: float
    n: int
    T: int
    seeds: int  # one pass embeds with nobeling_embed seeds 0..seeds-1


# A nobeling_embed seed changes how the images fall on the lattice of
# ball_preimage_cover, and with it the cost of an embed by +-20% (grid) to
# +-40% (line). Seeds drawn per workload seed would make the figures follow
# the draw. Every run therefore embeds the same seeds, in whole passes; the
# workload seed sets their order. embed-grid is not in BENCHMARK.json: a run
# holds one pass of three ~5.6 s operations, too few to be steady.
EMBED_CASES = {
    "embed-grid": lambda: EmbedCase(
        np.column_stack([g.ravel() for g in np.meshgrid(np.linspace(0.0, 1.0, 4),
                                                        np.linspace(0.0, 1.0, 3))]),
        0.5, 2, 2, 3),
    "embed-line": lambda: EmbedCase(np.linspace(0.0, 1.0, 8)[:, None],
                                    1.0 / 7.0, 1, 16, 8),
}


class EmbedWorkload:
    def __init__(self, name: str) -> None:
        self.name = name

    def inputs(self, dl, seed: int) -> list:
        case = EMBED_CASES[self.name]()
        space = dl.SampledSpace.from_points(case.points, mesh=case.mesh)
        order = np.random.default_rng(seed).permutation(case.seeds)
        return [(case, space, int(s)) for s in order]

    def key(self, item) -> str:
        return f"seed={item[2]}"

    def warm_up(self, items):
        """A one-stage embed of the first input: every code path, a fraction of the cost."""
        case, space, s = items[0]
        return replace(case, T=1), space, s

    def operate(self, dl, item, lap):
        case, space, s = item
        result = dl.nobeling_embed(space, n=case.n, T=case.T, oracle=dl.separator_oracle, seed=s)
        lap("produce")
        data = dl.result_to_json_bytes(result)
        lap("serialize")
        parsed = dl.result_from_json_bytes(data)
        report = dl.verify_result(parsed, space, case.n)
        membership = dl.verify_nobeling_membership(parsed)
        lap("consume")
        return {"data": data, "parsed": parsed, "report": report, "membership": membership}

    def check(self, dl, item, out) -> list[str]:
        problems = []
        if not out["report"].overall:
            bad = out["report"].failures()[0]
            problems.append(f"verify_result failed: {bad.name} at {bad.location}")
        if not out["membership"].overall:
            problems.append("verify_nobeling_membership failed")
        if dl.result_to_json_bytes(out["parsed"]) != out["data"]:
            problems.append("JSON round trip changed the result bytes")
        return problems

    def fingerprint(self, out) -> str:
        return hashlib.sha256(out["data"]).hexdigest()


# ---------------------------------------------------------------------------
# cover calculus

# One operation is one cover. The inputs are fixed: the first four instances
# of each shape (ball covers with 1..6 members, value covers with 1..5) in
# the acceptance generators' seed streams (ball covers: criterion-1
# instances, seeds 1000, 1001, ...; value covers: criterion-2 instances,
# seeds 2000, 2001, ...). Five-member value covers star-refine up to order 15
# (2^16 faces per point); their nerves cost 0.01-10 s, by the number of
# distinct order-15 point patterns, against ~10 ms for any other cover. Every
# run takes the same pass of inputs, so the draw cannot set the figures; the
# workload seed sets their order. Seed 2003 is skipped: its 10 s nerve would
# let a run repeat no input, and seeds 2015 and 2031 (~2 s each) already
# carry order-15 nerves.
SHAPES = [("ball", k) for k in range(1, 7)] + [("value", k) for k in range(1, 6)]
HEAVY = ("value", 5)
STREAMS = {"ball": (1000, 7), "value": (2000, 6)}  # first seed, bound of the k draw
SKIPPED_SEEDS = frozenset({2003})
PER_SHAPE = 4


@dataclass
class CoverInput:
    key: str
    points: np.ndarray
    kind: str
    spec: object  # list of (center, radius) for balls, value matrix otherwise
    pair: tuple[int, float, float]  # centre, inner radius, outer radius
    n: int


def generator_instances(kind: str, k: int, count: int) -> list[CoverInput]:
    """The first ``count`` k-member instances of an acceptance generator's stream.

    Instance seed s draws 20 square points, then k, then the cover, as the
    acceptance generators do; the second (ball-pair) cover and the target
    order n in {0, 1} are drawn after them from the same generator.
    """
    base, bound = STREAMS[kind]
    out = []
    s = base
    while len(out) < count:
        rng = np.random.default_rng(s)
        points = square_points(rng, 20)
        if int(rng.integers(1, bound)) == k and s not in SKIPPED_SEEDS:
            if kind == "ball":
                spec = ball_cover_spec(pairwise(points), k, rng)
            else:
                spec = value_cover_matrix(20, k, rng)
            center = int(rng.integers(0, 20))
            outer = float(rng.uniform(0.3, 0.9))
            inner = outer * float(rng.uniform(0.3, 0.8))
            out.append(CoverInput(f"{kind}-{k}/seed={s}", points, kind, spec,
                                  (center, inner, outer), int(rng.integers(0, 2))))
        s += 1
    return out


class CoverCalculus:
    def inputs(self, dl, seed: int) -> list:
        items = [ci for kind, k in SHAPES for ci in generator_instances(kind, k, PER_SHAPE)]
        order = np.random.default_rng(seed).permutation(len(items))
        return [items[i] for i in order]

    def key(self, item) -> str:
        return item.key

    def warm_up(self, items):
        """The first input that is not a five-member value cover."""
        return next(ci for ci in items if not ci.key.startswith("%s-%d/" % HEAVY))

    def operate(self, dl, item: CoverInput, lap):
        space = dl.SampledSpace.from_points(item.points, mesh=0.5)
        if item.kind == "ball":
            cover = dl.Cover(tuple(dl.ball_cozero(space, dl.Ball(center=c, radius=r))
                                   for c, r in item.spec))
        else:
            cover = dl.Cover.from_matrix(item.spec)
        center, inner, outer = item.pair
        pair = dl.Cover((dl.ball_cozero(space, dl.Ball(center=center, radius=outer)),
                         dl.complement_cozero(space, dl.Ball(center=center, radius=inner))))
        shrink = dl.closed_shrinking(cover)
        produced = [shrink.open_shrink]
        starred = None
        if item.kind == "value":
            # as in criterion 2; the padded ball covers overlap almost
            # everywhere, and their star refinements reach order 60 and more
            starred, _ = dl.star_refinement(cover)
            produced.append(starred)
        reduced = dl.reduce_order(space, cover, item.n, dl.separator_oracle)
        # meeting the reduced cover keeps the meet's order at most 2n + 1,
        # so only the star refinement can blow up the nerve
        met = dl.meet(pair, reduced)
        order = dl.order_of(met)
        produced += [reduced, met]
        lap("produce")
        nerves = [dl.nerve_of(c) for c in produced]
        exports = [dl.export_complex(cx) for cx in nerves]
        lap("consume")
        return {"cover": cover, "shrink": shrink, "starred": starred, "pair": pair,
                "reduced": reduced, "met": met, "order": order,
                "produced": produced, "nerves": nerves, "exports": exports}

    def fingerprint(self, out) -> str:
        return digest(*out["exports"])

    def check(self, dl, item: CoverInput, out) -> list[str]:
        problems = []
        u = out["cover"].supports()
        shrink = out["shrink"]
        w = shrink.open_shrink.supports()
        f_sets = np.zeros_like(u)
        for i, members in enumerate(shrink.closed_shrink):
            f_sets[i, sorted(members)] = True
        if (w & ~f_sets).any() or (f_sets & ~u).any() or not covers_all(f_sets):
            problems.append("closed shrinking is not nested W <= F <= U with F covering")
        if out["starred"] is not None:
            v = out["starred"].supports()
            for j in range(v.shape[0]):
                star = v[(v & v[j]).any(axis=1)].any(axis=0)
                if not any(not (star & ~row).any() for row in u):
                    problems.append(f"star of refinement member {j} fits in no input member")
                    break
        red = out["reduced"].supports()
        if not covers_all(red) or not refines(red, u) or max_multiplicity(red) > item.n + 1:
            problems.append(f"reduce_order output fails cover/refine/order <= {item.n}")
        met = out["met"].supports()
        pair = out["pair"].supports()
        if not covers_all(met) or not refines(met, red) or not refines(met, pair):
            problems.append("meet does not cover or refine both inputs")
        if out["order"] != max_multiplicity(met) - 1:
            problems.append("order_of disagrees with the brute-force multiplicity")
        for c, cx in zip(out["produced"], out["nerves"]):
            if cx.dim != max_multiplicity(c.supports()) - 1:
                problems.append(f"nerve dimension {cx.dim} != multiplicity - 1")
                break
        return problems


# ---------------------------------------------------------------------------
# large sample


@dataclass
class SampleInput:
    key: str
    points: np.ndarray
    balls: list[tuple[int, float]]


class SampleLarge:
    samples = 8
    points = 256
    pairs = 64
    members = 6

    def inputs(self, dl, seed: int) -> list:
        items = []
        for i in range(self.samples):
            rng = np.random.default_rng([seed, i])
            pts = square_points(rng, self.points)
            items.append(SampleInput(f"op={i}", pts, ball_cover_spec(pairwise(pts), self.members, rng)))
        return items

    def key(self, item) -> str:
        return item.key

    def warm_up(self, items):
        return items[0]

    def operate(self, dl, item: SampleInput, lap):
        space = dl.SampledSpace.from_points(item.points, mesh=0.5)
        again = dl.SampledSpace.from_distance_matrix(space.dist, mesh=0.5)
        balls, pairs, depth = dl.pair_schedule(space, self.pairs)
        lap("produce")
        cover = dl.Cover(tuple(dl.ball_cozero(space, dl.Ball(center=c, radius=r))
                               for c, r in item.balls))
        shrink = dl.closed_shrinking(cover)
        reduced = dl.reduce_order(space, cover, 1, dl.separator_oracle)
        order = dl.order_of(reduced)
        nerve = dl.nerve_of(reduced)
        lap("consume")
        return {"space": space, "again": again, "balls": balls, "pairs": pairs, "cover": cover,
                "shrink": shrink, "reduced": reduced, "order": order, "nerve": nerve}

    def check(self, dl, item, out) -> list[str]:
        problems = []
        space = out["space"]
        if not np.array_equal(space.dist, out["again"].dist):
            problems.append("from_points and from_distance_matrix give different dist")
        if not np.allclose(space.dist, pairwise(item.points), rtol=0.0, atol=1e-12):
            problems.append("SampledSpace distances differ from the brute-force matrix")
        balls, pairs = out["balls"], out["pairs"]
        if len(pairs) != self.pairs:
            problems.append(f"pair_schedule returned {len(pairs)} pairs, not {self.pairs}")
        for q, m in pairs:
            bq, bm = balls[q], balls[m]
            if not space.dist[bq.center, bm.center] < bm.radius - bq.radius:
                problems.append(f"pair ({q}, {m}) is not strictly included")
                break
        u = out["cover"].supports()
        f_sets = np.zeros_like(u)
        for i, members in enumerate(out["shrink"].closed_shrink):
            f_sets[i, sorted(members)] = True
        if (f_sets & ~u).any() or not covers_all(f_sets):
            problems.append("closed shrinking F is not inside U or does not cover")
        red = out["reduced"].supports()
        if not covers_all(red) or not refines(red, u) or max_multiplicity(red) > 2:
            problems.append("reduce_order output fails cover/refine/order <= 1")
        if out["order"] != max_multiplicity(red) - 1:
            problems.append("order_of disagrees with the brute-force multiplicity")
        if out["nerve"].dim != max_multiplicity(red) - 1:
            problems.append("nerve dimension != multiplicity - 1")
        return problems

    def fingerprint(self, out) -> str:
        faces = sorted(sorted(f) for f in out["nerve"].simplices)
        return digest(out["space"].dist.tobytes(), repr(out["pairs"]).encode(),
                      out["reduced"].matrix.tobytes(), repr(faces).encode())


WORKLOADS = {
    "embed-grid": lambda: EmbedWorkload("embed-grid"),
    "embed-line": lambda: EmbedWorkload("embed-line"),
    "cover-calculus": CoverCalculus,
    "sample-large": SampleLarge,
}
