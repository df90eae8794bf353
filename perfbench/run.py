"""Benchmark of the quatforms engine and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and needs no install.  Workloads (see ``workloads.py`` and
``README.md``): classify-exceptional, classify-classical, analyze-mixed and
cli-cold.  Each run is one process, single-threaded, closed loop: the next
op starts when the previous one has returned.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` wraps the public functions of every package module (from the
benchmark's own files, see ``tracer.py``), runs each unit of ops once
untraced and once traced, and reports the per-layer metrics of the set-up
plus the first traced unit, the tracing overhead and how much of the timed
wall time the layer self times account for.

Every op's output is checked after the op, outside its timing; a failed
check or an exception counts as a failed op.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A longer
record, with the run environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import Scaler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 11  # fresh processes per run; setup_s is their median
FLOOR_PROBES = 5  # bare interpreter starts per run; cli.interpreter_s
TAIL_BEYOND = 10  # op_tail_ms leaves at least this many samples above it


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program failing a check)."""


# ---------------------------------------------------------------------------
# Ops and samples
# ---------------------------------------------------------------------------


class Sample:
    __slots__ = ("label", "seconds", "raw_seconds", "problem", "candidates", "stderr",
                 "import_s")

    def __init__(self, label, seconds, problem=None, candidates=0, stderr=b""):
        self.label = label
        self.seconds = seconds  # scaled to reference host speed by hostspeed.Scaler
        self.raw_seconds = seconds
        self.problem = problem
        self.candidates = candidates
        self.stderr = stderr
        self.import_s = None  # set for traced CLI children


def run_op(op, tracer=None, scaler=None, collect=False) -> Sample:
    """Time one op, then check it.

    With ``tracer`` the op runs with the tracer installed; with ``scaler``
    the host speed is also sampled during the op, and the time that takes
    is left out of the op's time.  ``collect`` runs the cyclic collector
    first, so the op does not pay for garbage left by earlier ops and
    checks (on E6 classify that garbage moved a call by up to 30%).
    """
    if collect:
        gc.collect()
    if tracer is not None:
        tracer.install()
    stolen = 0.0
    if scaler is not None:
        scaler.arm()
    t0 = perf_counter()
    try:
        result = op.call() if tracer is None else tracer.span("bench.op", op.call)
    except Exception as exc:  # the program failed this op; count it, keep going
        problem, result = f"{type(exc).__name__}: {exc}", None
    else:
        problem = None
    finally:
        if scaler is not None:
            stolen = scaler.disarm()
        t1 = perf_counter()
    if tracer is not None:
        tracer.uninstall()
    candidates = 0
    if problem is None:
        try:
            problem = op.check(result)
            candidates = op.candidates(result)
        except Exception as exc:  # a malformed result can break the check itself
            problem = f"check raised {type(exc).__name__}: {exc}"
    stderr = result[2] if isinstance(result, tuple) and len(result) == 3 else b""
    return Sample(op.label, t1 - t0 - stolen, problem, candidates, stderr)


# ---------------------------------------------------------------------------
# Environment and set-up probes
# ---------------------------------------------------------------------------


def time_process(argv: list[str], env: dict, marker: bytes | None) -> float:
    """Seconds from spawning argv to its marker line (or to its exit)."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        if marker is not None:
            line = proc.stdout.readline()
            t1 = perf_counter()
        out, err = proc.communicate(timeout=120)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if marker is None:
        t1, line = perf_counter(), marker
    if proc.returncode != 0 or (marker is not None and line.strip() != marker):
        raise BenchError(f"{' '.join(argv[1:])} failed ({proc.returncode}): "
                         f"{err.decode(errors='replace').strip()[-500:]}")
    return t1 - t0


def setup_samples(workload: str, env: dict) -> list[Sample]:
    argv = [sys.executable, str(HERE / "child.py"), "setup", workload]
    scaler = Scaler()
    samples = []
    for _ in range(SETUP_PROBES):
        samples.append(Sample("setup", time_process(argv, env, b"ready")))
        scaler.add(samples[-1])
        scaler.point()
    return samples


def interpreter_floor(env: dict) -> float:
    argv = [sys.executable, "-c", "pass"]
    return statistics.median(time_process(argv, env, None) for _ in range(FLOOR_PROBES))


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "quatforms").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def latency_summary(samples: list[Sample], by_type: bool) -> dict:
    """op_p50_ms and op_tail_ms, with the percentile and sample count used.

    A classify call's latency is set by its type, and a run holds few calls
    per type, so the classify workloads summarize each type by its median
    call and report the median and the slowest of those.  Elsewhere the tail
    is the highest percentile that leaves TAIL_BEYOND samples above it.
    """
    if by_type:
        per_type: dict[str, list[float]] = {}
        for s in samples:
            per_type.setdefault(s.label, []).append(s.seconds)
        medians = sorted(statistics.median(v) for v in per_type.values())
        return {"p50": statistics.median(medians), "tail": medians[-1],
                "tail_rule": f"slowest of {len(medians)} per-type medians",
                "n": len(samples)}
    lat = sorted(s.seconds for s in samples)
    n = len(lat)
    if n > TAIL_BEYOND:
        idx = n - TAIL_BEYOND - 1
        rule = f"p{100.0 * (idx + 1) / n:.2f} ({TAIL_BEYOND} samples above)"
    else:
        idx, rule = n - 1, "max (too few samples for a percentile)"
    return {"p50": statistics.median(lat), "tail": lat[idx], "tail_rule": rule, "n": n}


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(wl, units, setup, in_process) -> tuple[dict, list[str]]:
    """The end-to-end metrics.  Rates are the median over units of each
    unit's rate (ops or candidates over the seconds its ops took), which
    keeps a burst of contention on a shared machine to one unit."""
    samples = [s for u in units for s in u]
    n = len(samples)
    failed = sum(1 for s in samples if s.problem)
    busy = [sum(s.seconds for s in u) for u in units]
    ops_rate = statistics.median(len(u) / b for u, b in zip(units, busy))
    cand = [sum(s.candidates for s in u) for u in units]
    cand_rate = statistics.median(c / b for c, b in zip(cand, busy))
    lat = latency_summary(samples, by_type=wl.name.startswith("classify"))
    values = {
        "setup_s": (statistics.median(x.seconds for x in setup), "s",
                    f"median of {len(setup)} fresh processes"),
        "ops_per_s": (ops_rate, "1/s",
                      f"median of {len(units)} units, {n} ops; {wl.describe()}"),
        "candidates_per_s": (cand_rate, "1/s",
                             f"{sum(cand)} toral candidates in {sum(busy):.3f} s"),
        "op_p50_ms": (lat["p50"] * 1e3, "ms", f"{lat['n']} samples"),
        "op_tail_ms": (lat["tail"] * 1e3, "ms", lat["tail_rule"]),
        "peak_rss_mb": (peak_rss_mb(in_process), "MB",
                        "ru_maxrss of " + ("this process" if in_process else "the largest child")),
        "ok_ratio": ((n - failed) / n, "ratio", f"{failed} of {n} ops failed"),
    }
    lines = [f"{k} = {v:.6g} {u}  ({note})" for k, (v, u, note) in values.items()]
    return {k: {"value": v, "unit": u} for k, (v, u, _n) in values.items()}, lines


LAYER_FUNCS = (
    # name, fields reported
    ("rootsys.pairing_with_coroot", ("calls", "self_s")),
    ("rootsys.build_root_system", ("calls", "total_s")),
    ("rootsys.quaternionic_decomposition", ("total_s",)),
    ("subsys.Subsystem", ("calls", "self_s")),
    ("subsys.base_of", ("self_s",)),
    ("subsys.recognize", ("calls", "self_s")),
    ("involution.centralizer_roots", ("calls", "self_s")),
    ("involution.centralizer", ("total_s",)),
    ("involution.pairing", ("calls",)),
    ("complexform.analyze", ("calls", "total_s", "self_s")),
    ("complexform.step6_count", ("self_s",)),
    ("classify.classify_equal_rank", ("total_s", "self_s")),
    ("classify.golden_for_type", ("calls", "total_s")),
    ("cases.run_case", ("total_s",)),
)
CLI_VERBS = ("roots", "decompose", "analyze", "classify", "table", "cases")
FIELD_INDEX = {"calls": 0, "total_s": 1, "self_s": 2}


def per_layer(snap: dict, extra: dict) -> dict:
    agg, counters = snap["agg"], snap["counters"]
    edges = {(p, c): n for p, c, n in snap["edges"]}
    out: dict[str, tuple[float, str]] = {}
    for name, fields in LAYER_FUNCS:
        row = agg.get(name, [0, 0.0, 0.0])
        for f in fields:
            out[f"{name}.{f}"] = (row[FIELD_INDEX[f]], "count" if f == "calls" else "s")
    out["subsys.Subsystem.roots_checked"] = (counters.get("subsys.Subsystem.roots_checked", 0), "count")
    cer = "classify.classify_equal_rank"
    candidates = edges.get((cer, "involution.pairing"), 0)
    screened = edges.get((cer, "involution.centralizer_roots"), 0)
    analyzed = edges.get((cer, "complexform.analyze"), 0)
    forms = counters.get("classify.forms_found", 0)
    out["classify.candidates"] = (candidates, "count")
    out["classify.circle_rejected"] = (candidates - screened, "count")
    out["classify.dim_rejected"] = (screened - analyzed, "count")
    out["classify.analyzed"] = (analyzed, "count")
    out["classify.forms_found"] = (forms, "count")
    out["classify.analyze_yield"] = (forms / analyzed if analyzed else 0.0, "ratio")
    for verb in CLI_VERBS:
        out[f"cli.run.{verb}.total_s"] = (agg.get(f"cli.run.{verb}", [0, 0.0, 0.0])[1], "s")
    out.update(extra)
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def layer_self_sum(snap: dict) -> float:
    return sum(row[2] for name, row in snap["agg"].items() if not name.startswith("bench."))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_unit(ops, scaler: Scaler, run) -> list[Sample]:
    samples = []
    for op in ops:
        scaler.before_op()
        samples.append(run(op))
        scaler.add(samples[-1])
    return samples


def measure(wl, seconds: float, scaler: Scaler, in_process: bool) -> list[list[Sample]]:
    """Whole units of ops until ``seconds`` have passed; samples per unit."""
    def run(op) -> Sample:
        return run_op(op, scaler=scaler if scaler.in_op else None, collect=in_process)

    units: list[list[Sample]] = []
    deadline = perf_counter() + seconds
    while True:
        units.append(run_unit(wl.unit(len(units)), scaler, run))
        if perf_counter() >= deadline:
            scaler.point()
            return units


def measure_traced(wl, seconds: float, tracer, in_process: bool, scaler: Scaler):
    """Paired units (untraced, then traced); per-layer data from the first pair."""
    plain: list[Sample] = []
    traced: list[Sample] = []
    first = None

    def run_traced(op) -> Sample:
        tracer.trace_id += 1
        if in_process:
            return run_op(op, tracer, collect=True)
        op_span = tracer._next_id
        s = tracer.span("bench.op", run_op, op)
        merge_child(tracer, s, op_span)
        return s

    deadline = perf_counter() + seconds
    k = 0
    while True:
        plain.extend(run_unit(wl.unit(k), scaler, lambda op: run_op(op, collect=in_process)))
        before = tracer.snapshot()
        unit_samples = run_unit(wl.unit(k, traced=True), scaler, run_traced)
        traced.extend(unit_samples)
        if first is None:
            after = tracer.snapshot()
            first = {
                "snap": after,
                "self_sum_s": layer_self_sum(after) - layer_self_sum(before),
                "wall_s": sum(s.raw_seconds for s in unit_samples),
                "import_s": [s.import_s for s in unit_samples if s.import_s is not None],
            }
        k += 1
        if perf_counter() >= deadline:
            scaler.point()
            return plain, traced, first, k


def merge_child(tracer, sample: Sample, op_span: int) -> None:
    """Fold a traced CLI child's payload (its last stderr line) into tracer."""
    tail = sample.stderr.rstrip().rsplit(b"\n", 1)[-1]
    try:
        payload = json.loads(tail)
    except ValueError:
        sample.problem = sample.problem or "traced CLI child sent no span payload"
        return
    tracer.merge(payload, parent=op_span)
    sample.import_s = payload["import_s"]


def write_record(name: str, record: dict, spans=None) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(OUT / f"{name}.spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, pid, trace, span_name, a, b in spans:
                fh.write(json.dumps({"id": sid, "parent": pid, "trace": trace,
                                     "name": span_name, "start": a, "end": b}) + "\n")


def main(argv: list[str] | None = None) -> int:
    from workloads import NAMES

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quatforms" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no quatforms source under {SRC}; run from a source checkout\n")
        return 2
    try:
        return run(args)
    except BenchError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 2


def run(args) -> int:
    import child
    import workloads

    env = workloads.child_env()
    in_process = args.workload != "cli-cold"
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed)}
    setup = setup_samples(args.workload, env)
    floor = interpreter_floor(env)
    record["environment"]["cli.interpreter_s"] = floor

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    state = None
    if in_process:
        import quatforms

        if not Path(quatforms.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported quatforms from {quatforms.__file__}, not {SRC}")
        if tracer is not None:
            tracer.install()
            state = tracer.span("bench.setup", child.setup, args.workload)
            tracer.uninstall()
        else:
            state = child.setup(args.workload)
    wl = workloads.make(args.workload, state, args.seed)

    # In-op host-speed samples only where they cannot distort what is
    # measured: not in a CLI parent (they would compete with the child for
    # the CPUs) and not while tracing (they would land in layer self times).
    scaler = Scaler(in_op=in_process and not args.trace)
    if not args.trace:
        unit_samples = measure(wl, args.seconds, scaler, in_process)
        units = len(unit_samples)
        samples = [s for u in unit_samples for s in u]
        metrics, lines = end_to_end(wl, unit_samples, setup, in_process)
    else:
        samples, traced, first, units = measure_traced(wl, args.seconds, tracer, in_process,
                                                       scaler)
        plain_s = sum(s.seconds for s in samples)
        traced_s = sum(s.seconds for s in traced)
        import_s = first["import_s"]
        extra = {
            "cli.interpreter_s": (floor, "s"),
            "cli.import_s": (statistics.median(import_s) if import_s else 0.0, "s"),
            "trace.overhead": (traced_s / plain_s - 1.0, "ratio"),
            "trace.wall_s": (first["wall_s"], "s"),
            "trace.self_sum_s": (first["self_sum_s"], "s"),
            "trace.coverage": (first["self_sum_s"] / first["wall_s"], "ratio"),
        }
        metrics = per_layer(first["snap"], extra)
        samples = samples + traced
        lines = [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        lines.append(f"(per-layer figures: set-up plus the first traced unit; "
                     f"{units} unit pairs, overhead over all of them)")

    failed = [s for s in samples if s.problem]
    record["environment"]["host_speed"] = scaler.speed()
    record.update({"units": units, "metrics": metrics,
                   "setup_samples_s": [x.seconds for x in setup],
                   "setup_samples_raw_s": [x.raw_seconds for x in setup],
                   "op_seconds_raw": sum(s.raw_seconds for s in samples),
                   "op_seconds_scaled": sum(s.seconds for s in samples),
                   "failures": [f"{s.label}: {s.problem}" for s in failed[:20]]})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_record(name, record, tracer.spans if tracer is not None else None)

    print(f"workload {args.workload}, seed {args.seed}, {units} units, "
          f"{len(samples)} ops, {len(failed)} failed")
    print("environment: " + json.dumps(record["environment"]))
    for s in failed[:5]:
        print(f"FAILED {s.label}: {s.problem}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
