"""Span recorder for the traced benchmark run, kept outside the library.

Tracing replaces each public function listed in ``TRACED`` by a wrapper in
every ``dimlab`` module namespace that bound it (so calls made through
``harness``'s imports from ``embedding``, or ``embedding``'s imports from
``covers`` and ``dimension``, are seen too). A wrapper records one span:
name, start, end, parent span and the operation it belongs to. Spans stay
in memory and are written out when the run ends.

Counts are either taken from a call's arguments and result at the layer
boundary (``.calls``, ``.members``, ``.export_bytes``) or computed
afterwards from recorded arguments (``.cells``, ``eta.pairs``,
``nerve.faces``). Computed counts are labelled as such in the report; the
library counts nothing itself.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import defaultdict
from itertools import product

# (module, attribute, span name, kind); kind "span" records a span, "count"
# only counts calls (used where a function runs ~10^5 times per operation).
TRACED = [
    ("metric", "enumerate_balls", "metric.enumerate_balls", "span"),
    ("metric", "strictly_included", "metric.strictly_included", "count"),
    ("covers", "meet", "covers.meet", "span"),
    ("covers", "dedupe_by_support", "covers.dedupe_by_support", "span"),
    ("covers", "closed_shrinking", "covers.closed_shrinking", "span"),
    ("covers", "star_refinement", "covers.star_refinement", "span"),
    ("covers", "is_point_star_refinement", "covers.is_point_star_refinement", "span"),
    ("covers", "order_of", "covers.order_of", "span"),
    ("dimension", "reduce_order", "dimension.reduce_order", "span"),
    ("dimension", "separator_oracle", "dimension.separator_oracle", "span"),
    ("dimension", "shrink_to_empty_intersection", "dimension.shrink_to_empty_intersection", "span"),
    ("nerve", "nerve_of", "nerve.nerve_of", "span"),
    ("nerve", "export_complex", "nerve.export_complex", "span"),
    ("embedding", "ball_preimage_cover", "embedding.ball_preimage_cover", "span"),
    ("embedding", "eta", "embedding.eta", "span"),
    ("embedding", "eta_prime", "embedding.eta_prime", "span"),
    ("embedding", "general_position", "embedding.general_position", "span"),
    ("embedding", "kappa_map", "embedding.kappa_map", "span"),
    ("embedding", "enumerate_hyperplanes", "embedding.enumerate_hyperplanes", "span"),
    ("embedding", "embedding_stage", "embedding.embedding_stage", "span"),
    ("embedding", "pair_schedule", "embedding.pair_schedule", "span"),
    ("embedding", "nobeling_embed", "embedding.nobeling_embed", "span"),
    ("embedding", "result_to_json_bytes", "embedding.serialize", "span"),
    ("embedding", "result_from_json_bytes", "embedding.parse", "span"),
    ("harness", "verify_result", "harness.verify_result", "span"),
    ("harness", "verify_nobeling_membership", "harness.verify_nobeling_membership", "span"),
]
MODULES = ["", ".metric", ".covers", ".dimension", ".nerve", ".embedding", ".harness", ".cli"]
SAMPLED_SPACE = "metric.SampledSpace"
ROOT = "operation"
# Spans that only hold other calls: their self time is not any layer's.
WRAPPERS = (ROOT, "embedding.nobeling_embed")


class Recorder:
    """Holds spans and boundary notes of one traced run."""

    def __init__(self) -> None:
        # span: [name, parent index, start ns, end ns, operation index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[tuple[int, str], int] = defaultdict(int)  # (operation, name)
        self.notes: list[tuple[int, str, object]] = []  # (operation, name, note)
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, self.op]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if note is not None:
                self.notes.append((self.op, name, note(args, kwargs, out)))
            return out

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[(self.op, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def operation(self, index: int):
        """Mark one traced operation with its root span."""
        self.op = index
        rec = [ROOT, -1, time.perf_counter_ns(), 0, index]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[3] = time.perf_counter_ns()
            self.stack.pop()
            self.op = -1

    # -- installing --------------------------------------------------------

    def install(self, dimlab) -> None:
        """Replace every traced name in every dimlab module namespace."""
        import importlib

        modules = [importlib.import_module("dimlab" + m) for m in MODULES]
        for mod_name, attr, name, kind in TRACED:
            home = importlib.import_module("dimlab." + mod_name)
            orig = getattr(home, attr)
            if kind == "count":
                new = self._counter(name, orig)
            else:
                new = self._wrap(name, orig, NOTES.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, new)
        space_cls = dimlab.SampledSpace
        for attr in ("__init__", "from_points", "from_distance_matrix"):
            raw = space_cls.__dict__[attr]
            self._saved.append((space_cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(space_cls, attr, classmethod(self._wrap(SAMPLED_SPACE, raw.__func__)))
            else:
                setattr(space_cls, attr, self._wrap(SAMPLED_SPACE, raw))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start_ns": start, "end_ns": end, "op": op}) + "\n")


# ---------------------------------------------------------------------------
# notes taken at layer boundaries


def _note_preimage(args, kwargs, out):
    f = args[1] if len(args) > 1 else kwargs["f"]
    delta = args[2] if len(args) > 2 else kwargs["delta"]
    return {"f": [list(map(float, row)) for row in f], "delta": float(delta), "members": out.size}


def _note_eta(args, kwargs, out):
    vertices = args[0] if args else kwargs["vertices"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"s": len(vertices), "n": int(n)}


NOTES = {
    "embedding.ball_preimage_cover": _note_preimage,
    "embedding.eta": _note_eta,
    "covers.dedupe_by_support": lambda a, k, out: {"in": (a[0] if a else k["c"]).size,
                                                   "out": out.size},
    "nerve.nerve_of": lambda a, k, out: {"faces": len(out.simplices)},
    "nerve.export_complex": lambda a, k, out: {"bytes": len(out)},
    "embedding.serialize": lambda a, k, out: {"bytes": len(out)},
}


def lattice_cells(f, delta: float) -> int:
    """Union of the per-image-row lattice boxes under ball_preimage_cover's rule.

    The grid has m + 1 points per axis with m = ceil(sqrt(d)/delta); row c
    spans floor((c - delta) m) .. ceil((c + delta) m) per axis, clamped to
    0..m. Computed here from the recorded arguments, not counted by the
    library.
    """
    d = len(f[0])
    m = max(1, math.ceil(math.sqrt(d) / delta))
    cells: set[tuple[int, ...]] = set()
    for row in f:
        axes = [range(max(0, math.floor((c - delta) * m)), min(m, math.ceil((c + delta) * m)) + 1)
                for c in row]
        cells.update(product(*axes))
    return len(cells)


def eta_pairs(s: int, n: int) -> int:
    """Closed-form count of the disjoint subset pairs eta compares.

    Pairs (A, B) of disjoint vertex subsets with 1 <= |A| <= |B| <= n + 1,
    unordered when |A| = |B|.
    """
    top = min(n + 1, s)
    total = 0
    for a in range(1, top + 1):
        for b in range(a, top + 1):
            ordered = math.comb(s, a) * math.comb(s - a, b)
            total += ordered // 2 if a == b else ordered
    return total


# ---------------------------------------------------------------------------
# aggregation


def _child_ns(spans):
    """Per span, the time its direct children cover (children never overlap)."""
    child_ns = [0] * len(spans)
    for name, parent, start, end, op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return child_ns


def layer_metrics(rec: Recorder, ops: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as means per traced operation.

    ``<name>_s`` is the time inside the function's spans, counting a span
    nested in a span of the same name once; ``.self_s`` subtracts the time
    covered by child spans. Counts are per operation as well.
    """
    op_set = set(ops)
    count = max(1, len(ops))
    spans = rec.spans
    child_ns = _child_ns(spans)
    incl: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    root_ns = 0
    wrapper_self_ns = 0
    for i, (name, parent, start, end, op) in enumerate(spans):
        if op not in op_set:
            continue
        dur = end - start
        if name in WRAPPERS:
            wrapper_self_ns += dur - child_ns[i]
        if name == ROOT:
            root_ns += dur
            continue
        calls[name] += 1
        self_ns[name] += dur - child_ns[i]
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][1]
        if not nested:
            incl[name] += dur

    notes: dict[str, list] = defaultdict(list)
    for op, name, note in rec.notes:
        if op in op_set:
            notes[name].append(note)

    cells_cache: dict[tuple, int] = {}
    cells = 0
    members = 0
    for note in notes["embedding.ball_preimage_cover"]:
        key = (note["delta"], tuple(map(tuple, note["f"])))
        if key not in cells_cache:
            cells_cache[key] = lattice_cells(note["f"], note["delta"])
        cells += cells_cache[key]
        members += note["members"]

    def per_op_s(ns: int) -> float:
        return ns / 1e9 / count

    out: dict[str, tuple[float, str]] = {}
    timed = [
        "embedding.ball_preimage_cover", "embedding.eta", "embedding.eta_prime",
        "embedding.general_position", "embedding.kappa_map", "embedding.enumerate_hyperplanes",
        "embedding.pair_schedule", "embedding.serialize", "embedding.parse",
        "covers.meet", "covers.dedupe_by_support", "covers.closed_shrinking",
        "covers.star_refinement", "covers.is_point_star_refinement", "covers.order_of",
        "dimension.reduce_order", "dimension.separator_oracle",
        "nerve.nerve_of", "nerve.export_complex",
        SAMPLED_SPACE, "metric.enumerate_balls",
        "harness.verify_nobeling_membership",
    ]
    for name in timed:
        out[name + "_s"] = (per_op_s(incl[name]), "s")
    out["embedding.embedding_stage.self_s"] = (per_op_s(self_ns["embedding.embedding_stage"]), "s")
    out["harness.verify_result.self_s"] = (per_op_s(self_ns["harness.verify_result"]), "s")
    out["embedding.ball_preimage_cover.calls"] = (calls["embedding.ball_preimage_cover"] / count, "count")
    out["embedding.ball_preimage_cover.cells"] = (cells / count, "count")
    out["embedding.ball_preimage_cover.members"] = (members / count, "count")
    out["embedding.ball_preimage_cover.useful_ratio"] = (members / cells if cells else 0.0, "ratio")
    out["embedding.eta.pairs"] = (
        sum(eta_pairs(n["s"], n["n"]) for n in notes["embedding.eta"]) / count, "count")
    out["embedding.result_bytes"] = (
        sum(n["bytes"] for n in notes["embedding.serialize"]) / count, "bytes")
    out["covers.dedupe.members_in"] = (
        sum(n["in"] for n in notes["covers.dedupe_by_support"]) / count, "count")
    out["covers.dedupe.members_out"] = (
        sum(n["out"] for n in notes["covers.dedupe_by_support"]) / count, "count")
    out["dimension.shrink_to_empty_intersection.calls"] = (
        calls["dimension.shrink_to_empty_intersection"] / count, "count")
    out["nerve.faces"] = (sum(n["faces"] for n in notes["nerve.nerve_of"]) / count, "count")
    out["nerve.export_bytes"] = (
        sum(n["bytes"] for n in notes["nerve.export_complex"]) / count, "bytes")
    strict = sum(v for (op, name), v in rec.calls.items()
                 if op in op_set and name == "metric.strictly_included")
    out["metric.strictly_included.calls"] = (strict / count, "count")
    out["trace.op_s"] = (per_op_s(root_ns), "s")
    share = (lambda ns: ns / root_ns if root_ns else 0.0)
    out["trace.coverage"] = (share(root_ns - wrapper_self_ns), "ratio")
    out["trace.lattice_eta_share"] = (
        share(incl["embedding.ball_preimage_cover"] + incl["embedding.eta"]), "ratio")
    return out


# Counts the benchmark computes rather than takes from a call; reports label them.
COMPUTED = ("embedding.ball_preimage_cover.cells", "embedding.eta.pairs", "nerve.faces")
