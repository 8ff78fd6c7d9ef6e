"""Seeded end-to-end and per-layer benchmark of the albx library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the library is imported from
./src.  One process, one closed-loop caller, no threads.  Set-up (the
albx import plus the workload's curves, files and fixtures) is repeated
SETUP_REPS times from a fresh import and its median reported.  The
timed phase then runs whole operation cycles for about S seconds and
at least MIN_OPS operations.  Every output is
checked afterwards by perfbench/checks.py; an operation that raised or
failed its check counts as failed.

Every operation belongs to a stratum (a fixture, a curve and cycle
size, a symbol kind, ...) whose inputs share their shape and size, and
every cycle visits each stratum equally often.  The timing metrics are
geometric means over strata of the per-stratum mean, median and 90th
percentile, so each stratum weighs the same however long its
operations take, and a heavy stratum's few samples cannot decide a
pooled percentile.  Before timing, one untimed warm-up pass (at most
WARMUP_S seconds of a cycle made from its own seed) brings each code
path through its first calls.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every cycle
twice, untraced and then with the library layers wrapped
(perfbench/layers.py), and prints the per-layer metrics and the tracing
overhead.

The last stdout line is the JSON result.  A record with the machine,
every operation's SHA-256 and the metrics goes to
.perfbench_out/<workload>-seed<N>-trace<T>.json, and traced runs also
write their spans next to it.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
from pathlib import Path
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

from layers import PROBE_OP, SETUP_OP, Tracer
from speed import SpeedClock
from workloads import WORKLOADS

SETUP_REPS = 5
MIN_OPS = 100
WARMUP_S = 3.0
DIGEST_OPS = 100  # the output digest covers this many leading operations
MODULES = (
    "arith", "chow", "cli", "curve", "fixtures", "funcfield",
    "infdiv", "linalg", "motive", "sampling", "symbols",
)


def fresh_import():
    """Drop every loaded albx module and import the package again."""
    for name in [n for n in sys.modules if n == "albx" or n.startswith("albx.")]:
        del sys.modules[name]
    for name in MODULES:
        importlib.import_module(f"albx.{name}")
    return SimpleNamespace(**{n: sys.modules[f"albx.{n}"] for n in MODULES})


def run_ops(workload, m, state, inputs, records, clock, tracer=None):
    """Time each operation of one cycle and append it to records as
    (input, output or None, error or None, duration ns, start ns).
    Reference samples for `clock` are taken between operations."""
    for inp in inputs:
        clock.sample()
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = workload.run(m, state, inp)
            else:
                out = tracer.op(len(records), workload.run, m, state, inp)
            err = None
        except (Exception, SystemExit) as exc:  # a failed operation, not a failed run
            out, err = None, f"{type(exc).__name__}: {exc}"
        records.append((inp, out, err, time.perf_counter_ns() - t0, t0))
        # start every operation from a collected heap, as a fresh CLI
        # process would, and keep the stored outputs out of later
        # collections
        gc.collect()
        gc.freeze()


def run_phase(workload, m, state, rng_seed, seconds, min_ops, clock, tracer=None):
    """Whole cycles of operations for about `seconds`, and until at
    least `min_ops` untraced operations were made.

    A new cycle starts only if it is expected to end nearer to `seconds`
    than stopping now would.  With a tracer every cycle runs twice,
    untraced and then traced on the same inputs, so that the tracing
    overhead is measured under the same machine conditions.  An untimed
    warm-up of at most WARMUP_S seconds, on a cycle from its own seed,
    runs first.  Returns (untraced, traced, cycles).
    """
    warm, warm_rng, warm_start = [], random.Random(f"{rng_seed}:warmup"), time.perf_counter()
    for inp in workload.cycle(state, warm_rng, 0):
        if time.perf_counter() - warm_start > WARMUP_S:
            break
        run_ops(workload, m, state, [inp], warm, clock)
    rng = random.Random(rng_seed)
    untraced, traced = [], []
    start = time.perf_counter()
    cycles, last = 0, 0.0
    while time.perf_counter() - start + last / 2 < seconds or len(untraced) < min_ops:
        cycle_start = time.perf_counter()
        inputs = workload.cycle(state, rng, cycles)
        run_ops(workload, m, state, inputs, untraced, clock)
        if tracer is not None:
            with tracer.installed():
                run_ops(workload, m, state, inputs, traced, clock, tracer)
        cycles += 1
        last = time.perf_counter() - cycle_start
    clock.sample(force=True)
    gc.unfreeze()
    return untraced, traced, cycles


def scaled(records, clock):
    """Records with each duration at the reference speed."""
    return [(inp, out, err, clock.scale(t0, ns)) for inp, out, err, ns, t0 in records]


def check_records(workload, state, records):
    """(digests, failure reasons, maximum sizes) of a phase's records."""
    digests, failures, sizes = [], [], {}
    for i, (inp, out, err, *_) in enumerate(records):
        text = f"error {err}" if err is not None else workload.text(inp, out)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        if err is not None:
            failures.append(f"op {i}: raised {err}")
            continue
        try:
            reason, op_sizes = workload.check(state, inp, out)
        except Exception as exc:  # malformed output is a wrong answer
            reason, op_sizes = f"check raised {type(exc).__name__}: {exc}", {}
        if reason:
            failures.append(f"op {i}: {reason}")
        for key, value in op_sizes.items():
            sizes[key] = max(sizes.get(key, 0), value)
    return digests, failures, sizes


def prefix_digest(digests):
    return hashlib.sha256("".join(digests[:DIGEST_OPS]).encode()).hexdigest()


def p90(ms):
    return statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]


def by_stratum(workload, records):
    strata = {}
    for inp, _, _, ns, *_ in records:
        strata.setdefault(workload.stratum(inp), []).append(ns / 1e6)
    return strata


def timing_metrics(workload, records):
    """Operations per second and per-operation ms, every stratum
    weighing the same: geometric means over strata of the mean, the
    median and the 90th percentile of each stratum's operation times."""
    strata = by_stratum(workload, records).values()
    gmean = statistics.geometric_mean
    return {
        "ops_per_s": 1e3 / gmean([statistics.fmean(ms) for ms in strata]),
        "op_ms_p50": gmean([statistics.median(ms) for ms in strata]),
        "op_ms_p90": gmean([p90(ms) for ms in strata]),
    }


def stratum_table(workload, records):
    """Per-stratum sample count, median and p90, for the record."""
    return {
        str(name): {"n": len(ms), "p50_ms": statistics.median(ms), "p90_ms": p90(ms)}
        for name, ms in by_stratum(workload, records).items()
    }


def pooled_metrics(records):
    """The same figures pooled over all operations, for the record."""
    ms = [r[3] / 1e6 for r in records]
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90(ms),
    }


def git_commit(root):
    """HEAD of a git checkout at root, read without running git."""
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
    return None


def machine(root):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((root / "src" / "albx").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "albx_source_sha256": source.hexdigest(),
    }


def measure(args, root, workdir, out_dir):
    workload = WORKLOADS[args.workload]()
    setup_seed = f"{args.seed}:{workload.name}:setup"
    clock = SpeedClock()
    setup_ns = []
    for _ in range(SETUP_REPS):
        gc.collect()
        clock.sample(force=True)
        t0 = time.perf_counter_ns()
        m = fresh_import()
        state = workload.setup(m, random.Random(setup_seed), workdir)
        setup_ns.append((t0, time.perf_counter_ns() - t0))
        clock.sample(force=True)
    setup_s = [clock.scale(t0, ns) / 1e9 for t0, ns in setup_ns]
    src = root / "src"
    if not Path(m.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"albx was imported from {m.cli.__file__}, not {src}")
    workload.prepare_checks(m, state)
    ops_seed = f"{args.seed}:{workload.name}:ops"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(root),
        "setup_s_samples": setup_s,
        "setup_s_raw": [ns / 1e9 for _, ns in setup_ns],
    }
    gc.collect()
    if not args.trace:
        raw, _, cycles = run_phase(workload, m, state, ops_seed, args.seconds, MIN_OPS, clock)
        records = scaled(raw, clock)
        digests, failures, _ = check_records(workload, state, records)
        metrics = timing_metrics(workload, records)
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: (v, units[k]) for k, v in metrics.items()}
        record.update(
            ops=len(records), cycles=cycles, pooled=pooled_metrics(records),
            raw_metrics=timing_metrics(workload, raw), op_ms_raw=[r[3] / 1e6 for r in raw],
            strata=stratum_table(workload, records),
        )
    else:
        tracer = Tracer()
        with tracer.installed():
            # one more set-up, so that the layers it calls are traced too
            tracer.op(SETUP_OP, workload.setup, m, random.Random(setup_seed), workdir)
        records, traced, cycles = run_phase(
            workload, m, state, ops_seed, args.seconds, 1, clock, tracer
        )
        records, traced = scaled(records, clock), scaled(traced, clock)
        probes = {}
        with tracer.installed():
            for label, probe in getattr(workload, "probes", lambda m: [])(m):
                try:
                    tracer.op(PROBE_OP, probe)
                    probes[label] = "ok"
                except Exception as exc:  # expected today; see CurveStructure.probes
                    probes[label] = f"{type(exc).__name__}: {exc}"
        digests, failures, sizes = check_records(workload, state, records)
        traced_digests, traced_failures, traced_sizes = check_records(workload, state, traced)
        failures += traced_failures
        if traced_digests != digests:
            failures.append("traced outputs differ from untraced outputs")
        untraced_rate = timing_metrics(workload, records)["ops_per_s"]
        traced_rate = timing_metrics(workload, traced)["ops_per_s"]
        metrics = tracer.aggregate(len(traced))
        for key in ("unit_degree", "cycle_support", "truncation"):
            metrics[f"bench.max_{key}"] = (max(sizes.get(key, 0), traced_sizes.get(key, 0)), "count")
        metrics["bench.traced.ops"] = (len(traced), "count")
        metrics["bench.spans"] = (tracer.span_count(), "count")
        metrics["bench.untraced.ops_per_s"] = (untraced_rate, "1/s")
        metrics["bench.traced.ops_per_s"] = (traced_rate, "1/s")
        metrics["bench.trace.ops_per_s_ratio"] = (traced_rate / untraced_rate, "ratio")
        spans_path = out_dir / f"{workload.name}-seed{args.seed}-spans.jsonl.gz"
        tracer.write(spans_path)
        record.update(
            ops=len(records) + len(traced), cycles=cycles, probes=probes,
            spans_file=spans_path.name,
        )
        records = records + traced
    record.update(
        failed=len(failures),
        failures=failures[:20],
        digest_ops=min(DIGEST_OPS, len(digests)),
        digest=prefix_digest(digests),
        op_digests=digests,
        op_ms=[r[3] / 1e6 for r in records],
        speed=clock.summary(),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{len(records)} ops in {cycles} cycles, {len(failures)} failed, "
        f"digest of first {record['digest_ops']} ops {record['digest'][:16]}, record {path.name}"
    )
    for reason in failures[:5]:
        print(f"  failure: {reason}")
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": record["metrics"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "albx" / "__init__.py").is_file():
        print(f"error: no albx sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        result = measure(args, root, workdir, out_dir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
