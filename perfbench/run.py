"""dimlab benchmark: one closed-loop caller, one process, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload embed-line --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

The library is imported from ``src/`` of the checkout. Set-up (a fresh
interpreter importing dimlab, plus input generation) is repeated
``SETUP_REPEATS`` times and its median reported. One untimed warm-up
operation follows; then operations run back to back, in whole passes over
the workload's fixed list of inputs, until ``--seconds`` have passed; each
is checked and fingerprinted outside its timer.

The host this runs on may slow every operation by up to 2x for seconds to
minutes at a time. A fixed computation that never calls dimlab
(``reference.reference_loop``) is therefore timed next to every timing:
in the timed loop between phases of operations, at most ``REF_EVERY``
seconds of operation apart; around every input generation; and in the
fresh interpreter right after its import. Each timing is scaled by
``REF_S`` over the reference time next to it (for a phase, the mean of the
references just before and after it; see ``Timeline``), so the timing
metrics are seconds at the host speed where the reference takes ``REF_S``.
The raw figures are kept in the result file.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` each input runs once untraced and once traced (alternating
which goes first), the fingerprints of the two must agree, and the last line
carries the per-layer metrics of the traced runs. Human-readable lines,
the environment record and files under ``.perfbench/`` (results, spans,
fingerprints) come first. Exit status: 0 when every check held, 1 when a
check failed, 2 when the library cannot be found or loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from reference import REF_S, time_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
TAIL_BEYOND = 10
REF_EVERY = 0.1  # seconds of operations between two reference timings, at most
REF = "reference"
GOLDEN = HERE / "golden.json"
OUT_DIR = Path(".perfbench")


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library(root: Path):
    src = root / "src"
    if not (src / "dimlab" / "__init__.py").is_file():
        fail_setup(f"no dimlab package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    try:
        import dimlab
    except Exception as exc:  # any import failure means there is nothing to measure
        fail_setup(f"cannot import dimlab: {exc!r}")
    return dimlab


def source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "dimlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# environment record


def blas_threads():
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy has no dict mode; the record is informative only
        pass
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "git_commit": git_commit(root),
        "src_hash": source_hash(root),
    }


# ---------------------------------------------------------------------------
# set-up


# times the import, then the reference twice in the same process (the
# first call pays numpy's first-use costs), for the host speed of its CPU
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import dimlab\n"
    "took = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from reference import time_reference\n"
    "time_reference()\n"
    "print(took, time_reference())\n"
)


def import_seconds(root: Path) -> tuple[float, float]:
    """Seconds to import dimlab in a fresh interpreter, and its reference time after."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(root / "src"), str(HERE)],
                         capture_output=True, text=True, timeout=60, check=True)
    took, ref = out.stdout.strip().splitlines()[-1].split()
    return float(took), float(ref)


def measure_setup(root: Path, dl, workload, seed: int):
    """Median normalised set-up time, its raw samples, and the inputs."""
    samples, raw = [], []
    items = None
    ref = time_reference()
    for _ in range(SETUP_REPEATS):
        imp, imp_ref = import_seconds(root)
        t0 = time.perf_counter()
        items = workload.inputs(dl, seed)
        gen = time.perf_counter() - t0
        after = time_reference()
        samples.append(imp * REF_S / imp_ref + gen * 2.0 * REF_S / (ref + after))
        raw.append(imp + gen)
        ref = after
    return statistics.median(samples), raw, items


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile).

    None with fewer than 2 * TAIL_BEYOND samples, where that percentile
    would be the median or below it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND values above
    return ordered[rank - 1], 100.0 * rank / n


# ---------------------------------------------------------------------------
# the run


class Timeline:
    """Phase times of a run's operations, in order, with reference timings between them.

    ``operate`` calls ``lap(phase)`` as each phase of an operation ends. With
    ``reference`` on, ``time_reference`` runs at a lap once ``REF_EVERY``
    seconds have passed since the last reference, outside every phase, and
    once more by ``close``; each phase is then normalised by the reference
    times just before and just after it.
    """

    def __init__(self, reference: bool) -> None:
        self.events: list[tuple] = []  # (operation, phase, seconds); operation REF for a reference
        self.reference = reference
        self.op = -1
        self.mark = self.last_ref = time.perf_counter()
        if reference:
            self._take_reference()

    def _take_reference(self) -> None:
        self.events.append((REF, "", time_reference()))
        self.mark = self.last_ref = time.perf_counter()

    def begin(self, op: int) -> None:
        self.op = op
        self.mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.events.append((self.op, phase, now - self.mark))
        self.mark = now
        if self.reference and now - self.last_ref >= REF_EVERY:
            self._take_reference()

    def close(self) -> None:
        if self.reference and self.events[-1][0] != REF:
            self._take_reference()

    def references(self) -> list[float]:
        return [sec for op, _, sec in self.events if op == REF]

    def phases(self, normalised: bool) -> dict[int, dict[str, float]]:
        """Per operation, seconds per phase, raw or normalised (after ``close``)."""
        out: dict[int, dict[str, float]] = defaultdict(dict)
        pending: list[tuple] = []
        before = 0.0
        for op, phase, sec in self.events:
            if op == REF:
                for p_op, p_phase, p_sec in pending:
                    out[p_op][p_phase] = p_sec * 2.0 * REF_S / (before + sec)
                pending.clear()
                before = sec
            elif normalised:
                pending.append((op, phase, sec))
            else:
                out[op][phase] = sec
        return out


class Run:
    def __init__(self, root: Path, dl, workload) -> None:
        self.root, self.dl, self.workload = root, dl, workload
        self.fingerprints: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def note_fingerprint(self, key: str, value: str, label: str) -> None:
        seen = self.fingerprints.setdefault(key, value)
        if seen != value:
            self.problems.append(f"{label}: fingerprint of {key} changed between executions")

    def execute(self, item, label: str, timeline: Timeline, recorder=None, index: int = -1) -> bool:
        """One operation plus its checks, timed on ``timeline``; False on failure.

        With a recorder, tracing is installed around the operation only, so
        the benchmark's own checks stay outside every span.
        """
        w = self.workload
        try:
            timeline.begin(index)
            if recorder is None:
                out = w.operate(self.dl, item, timeline.lap)
            else:
                recorder.install(self.dl)
                try:
                    with recorder.operation(index):
                        out = w.operate(self.dl, item, timeline.lap)
                finally:
                    recorder.uninstall()
            issues = w.check(self.dl, item, out)
            if label != "warm-up":
                self.note_fingerprint(w.key(item), w.fingerprint(out), label)
        except Exception as exc:  # an operation that raises is a failed operation
            issues = [f"{type(exc).__name__}: {exc}"]
        if issues:
            self.problems.append(f"{label} {w.key(item)}: {issues[0]}")
            return False
        return True

    def loop(self, items, seconds: float, body) -> None:
        """Run body(i, item) in whole passes over the inputs until ``seconds`` have passed."""
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or i % len(items):
            body(i, items[i % len(items)])
            i += 1

    def untraced(self, items, seconds: float):
        """Phase times of every operation that passed, normalised and raw, and the references."""
        timeline = Timeline(reference=True)
        ok: list[tuple[int, str]] = []

        def body(i, item):
            self.attempted += 1
            if self.execute(item, "op", timeline, index=i):
                ok.append((i, self.workload.key(item)))
            else:
                self.failed += 1

        self.loop(items, seconds, body)
        timeline.close()
        norm, raw = timeline.phases(normalised=True), timeline.phases(normalised=False)
        return ([(key, norm[i]) for i, key in ok], [raw[i] for i, _ in ok],
                timeline.references())

    def traced(self, items, seconds: float):
        rec = spans.Recorder()
        plain, traced = Timeline(reference=False), Timeline(reference=False)
        traced_ops: list[int] = []

        def body(i, item):
            self.attempted += 1
            order = (False, True) if i % 2 == 0 else (True, False)
            ok = True
            for on in order:
                if on:
                    ok &= self.execute(item, "traced op", traced, rec, i)
                else:
                    ok &= self.execute(item, "untraced op", plain, index=i)
            if ok:
                traced_ops.append(i)
            else:
                self.failed += 1

        self.loop(items, seconds, body)
        untraced_produce = [plain.phases(False)[i]["produce"] for i in traced_ops]
        overhead = [traced.phases(False)[i]["produce"] - p
                    for i, p in zip(traced_ops, untraced_produce)]
        return rec, traced_ops, untraced_produce, overhead


def golden_check(dl) -> str | None:
    """The line8 / n=1 / T=4 / seed-0 result must keep its recorded bytes."""
    doc = json.loads(GOLDEN.read_text())
    pts = np.linspace(0.0, 1.0, 8)[:, None]
    space = dl.SampledSpace.from_points(pts, mesh=1.0 / 7.0)
    data = dl.result_to_json_bytes(dl.nobeling_embed(space, n=1, T=4, seed=0))
    got = hashlib.sha256(data).hexdigest()
    if got != doc["line8_n1_T4_seed0_sha256"]:
        return f"line8/n=1/T=4/seed-0 bytes changed: sha256 {got}"
    return None


def merge_fingerprints(run: Run, workload_name: str, seed: int) -> None:
    """Fingerprints of the same inputs under the same source must match across runs."""
    folder = OUT_DIR / "fingerprints"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{workload_name}-seed{seed}-{source_hash(run.root)}.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    for key, value in run.fingerprints.items():
        if stored.get(key, value) != value:
            run.problems.append(f"fingerprint of {key} differs from an earlier run of this seed")
    stored.update(run.fingerprints)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))


def run_one(args) -> int:
    root = Path.cwd()
    dl = load_library(root)
    workload = WORKLOADS[args.workload]()
    env = environment(root)
    setup_s, setup_samples, items = measure_setup(root, dl, workload, args.seed)

    run = Run(root, dl, workload)
    if not run.execute(workload.warm_up(items), "warm-up", Timeline(reference=False)):
        run.failed += 1
        run.attempted += 1

    metrics: dict[str, tuple[float, str]] = {}
    details: dict = {"raw_setup_samples_s": setup_samples}
    if not args.trace:
        records, raw, refs = run.untraced(items, args.seconds)
        if records:
            ops = [sum(r.values()) for _, r in records]
            by_input: dict[str, list[float]] = defaultdict(list)
            for (key, _), op in zip(records, ops):
                by_input[key].append(op)
            pass_s = sum(statistics.median(v) for v in by_input.values())
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s": (statistics.median(ops), "s"),
                "ops_per_s": (len(by_input) / pass_s, "1/s"),
                "produce_s": (statistics.median(r["produce"] for _, r in records), "s"),
                "consume_s": (statistics.median(r["consume"] for _, r in records), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            raw_ops = [sum(r.values()) for r in raw]
            details.update({"ops": len(ops), "op_times_s": ops, "op_s.tail": tail(ops),
                            "raw_op_times_s": raw_ops, "raw_op_s": statistics.median(raw_ops),
                            "raw_ops_per_s": len(raw_ops) / sum(raw_ops), "raw_phases_s": raw,
                            "reference_s": refs, "reference_median_s": statistics.median(refs)})
    else:
        rec, traced_ops, untraced_produce, overhead = run.traced(items, args.seconds)
        if traced_ops:
            metrics = spans.layer_metrics(rec, traced_ops)
            metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
            metrics["trace.untraced_produce_s"] = (statistics.median(untraced_produce), "s")
            details.update({"ops": len(traced_ops), "overhead_s": overhead})
            span_dir = OUT_DIR / "spans"
            span_dir.mkdir(parents=True, exist_ok=True)
            rec.write(span_dir / f"{args.workload}-seed{args.seed}.jsonl")

    if args.workload.startswith("embed-"):
        problem = golden_check(dl)
        if problem:
            run.problems.append(problem)
    merge_fingerprints(run, args.workload, args.seed)

    correct = run.failed == 0 and not run.problems and bool(metrics)
    failed_fraction = run.failed / max(1, run.attempted)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        label = "computed " if name in spans.COMPUTED else ""
        print(f"metric {name} = {value:.6g} {unit} {label}".rstrip())
    if "ops" in details and not args.trace:
        print(f"note {details['ops']} operations; reference_loop median "
              f"{details['reference_median_s']:.6g} s against REF_S {REF_S} s; raw op_s "
              f"{details['raw_op_s']:.6g} s, raw ops_per_s {details['raw_ops_per_s']:.6g} 1/s")
        if details["op_s.tail"] is None:
            print(f"note op_s.tail not reported: {details['ops']} operations, "
                  f"fewer than {2 * TAIL_BEYOND}")
        else:
            value, pct = details["op_s.tail"]
            print(f"metric op_s.tail = {value:.6g} s (p{pct:.1f} of all {details['ops']} "
                  f"operations, {TAIL_BEYOND} beyond it; not a bounded metric)")
    print(f"metric failed_fraction = {failed_fraction:.6g} ratio "
          f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems[:20]:
        print(f"problem {problem}")

    result_dir = OUT_DIR / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    (result_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "failed_fraction": failed_fraction, "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details, "fingerprints": run.fingerprints,
    }, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints every metric."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith(("metric ", "note ", "problem ")):
                print(f"[{name}] {line}")
        if proc.returncode != 0:
            print(f"[{name}] exit {proc.returncode} {proc.stderr.strip()[-500:]}")
            status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
