"""specforms benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload tied-forms --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from `src/` of
that checkout and nowhere else. The run generates its inputs from
--seed, warms up, then sends a fixed number of whole cycles of requests
(a closed loop, one client at a time), as many as take --seconds at the
reference speed, checking each result outside its timed region. The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced in
a row of worker processes (see WORKERS) and scaled to a reference machine
speed (see REFERENCE_PROBE_S).
With --trace 1 the layer functions are wrapped (bench/tracer.py), a fixed
number of traced cycles set by --seconds runs, and the metrics are per layer;
the run fails its self-check if a span the workload must reach recorded
no calls. A run record (machine, versions, settings, speed probe, per
request-kind latencies) is printed as a `record` line and written to
bench/results/, together with the raw spans of a traced run.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402
from tracer import Tracer, calibrate_overhead, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# An untraced run splits its requests, in order, into this many equal
# slices, each run by a fresh process, one process after another, and
# reports timings over all of them; setup_s is the median of their
# set-ups. Each process carries a speed bias of its own that the speed
# probe does not see: on the host this benchmark was built on, the same
# work in different processes differed by 9% (coefficient of variation)
# and up to 45% at equal probe readings, while it varied 3-4% within one
# process.
WORKERS = 6
# An untraced run stops sending requests STOP_AFTER_S after it started (a
# much slower program still ends in time; the record shows the requests
# run), and gives up on a worker still running after HARD_LIMIT_S.
STOP_AFTER_S = 120.0
HARD_LIMIT_S = 170.0
# Timings are reported at a reference machine speed. The host this
# benchmark was built on runs other tenants' work on shared cores: one
# fixed request repeated for a minute spread 36% (quartile distance over
# median) in wall time and CPU time alike, and the host's speed moved by
# half within an hour. A fixed loop of small dense eigendecompositions
# (numpy only, no program code), timed before a worker's first request,
# before a request once PROBE_EVERY_S have passed since the last reading,
# and after the last request, tracks that slowdown: across ten processes
# running the same moving-segment requests it cut the variation of their
# time (coefficient of variation) from 9.3% to 5.8%, where a pure-Python
# loop cut it only to 8.3%, the program's mix of interpreter and small
# LAPACK calls slowing more than a tight loop does. Every time of a run
# is scaled by REFERENCE_PROBE_S / (median probe time of the run). The run's median is used, not a median
# over a few seconds: those have too few readings, and scaling per cycle
# doubled the spread of tied-forms throughput across seeds; it also
# discounts a probe timed next to the driver sweep's worker pool, which
# reads the pool's threads winding down. Raw times are in the record.
# A request's time is its wall time or the process's CPU time over it,
# whichever is less, and so is a probe's. On the build host the process
# also waited, runnable, for a CPU the host gave to other work: in runs of
# identical requests, wall minus CPU time reached 1 s on a 0.4-s request,
# in spells no probe reading caught, and moved whole-run throughput by up
# to 30% while CPU time moved 3%. For single-threaded work the lesser is
# the CPU time, which leaves that wait out; where the program's threads
# overlap, CPU time exceeds wall time and the wall time counts.
REFERENCE_PROBE_S = 0.008
PROBE_LOOPS = 300
PYTHON_LOOPS = 150_000
PROBE_EVERY_S = 0.3
# Tail latency is the sample with exactly TAIL_BEYOND samples above it:
# the highest percentile that still rests on that many.
TAIL_BEYOND = 10
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def import_program():
    """Import specforms from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "specforms" / "__init__.py").is_file():
        raise SystemExit(f"error: no specforms sources under {src}")
    sys.path.insert(0, str(src))
    import specforms
    import specforms.cli  # noqa: F401  (the driver-sweep entry point)

    if Path(specforms.__file__).resolve().parent != (src / "specforms").resolve():
        raise SystemExit(f"error: specforms imported from {specforms.__file__}, not {src}")
    return specforms


def _probe_matrix():
    g = np.random.default_rng(0).standard_normal((4, 8)).view(complex)
    return (g + g.conj().T) / 2.0


PROBE_MATRIX = _probe_matrix()


def speed_probe():
    """Seconds (the lesser of wall and CPU time) for a fixed loop of small
    eigendecompositions: a reading of machine speed for the kind of work
    the program does."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    for _ in range(PROBE_LOOPS):
        lam, u = np.linalg.eigh(PROBE_MATRIX)
        (u * lam) @ u.conj().T
        np.sum(np.abs(lam) ** 2.5)
    return min(time.perf_counter() - t0, time.process_time() - c0)


def python_probe():
    """Seconds for a fixed pure-Python loop, recorded before and after a run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PYTHON_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info(np):
    """OpenBLAS version and its runtime thread count, as far as visible."""
    info = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["runtime_threads"] = int(fn())
                    break
    except OSError:
        pass
    return info


def environment(np, scipy, sf_threads_seen):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(np),
        "git_sha": git_sha(),
        "SF_THREADS": sf_threads_seen,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def tail_latency(latencies):
    """(value, percentile, samples above) of the highest percentile with
    TAIL_BEYOND samples above it; the median when there are too few."""
    data = sorted(latencies)
    n = len(data)
    if n <= TAIL_BEYOND:
        return statistics.median(data), 50.0, n // 2
    return data[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def untraced(tracer):
    """Context in which no spans are recorded (warm-up and checks)."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def set_up(args, traced):
    """Import, input generation and warm-up; returns (state, raw seconds)."""
    program = import_program()
    tracer = Tracer().install() if traced else None
    workload = WORKLOADS[args.workload](program)
    stream = workload.stream(args.seed)
    cycle_s = workload.traced_cycle_s if traced else workload.cycle_s
    pool = [next(stream) for _ in range(max(1, round(args.seconds / cycle_s)))]
    with untraced(tracer):
        workload.warm_up()
    return (tracer, workload, pool), time.perf_counter() - _STARTED


def requests_of(pool):
    """The pool's requests in order, each as (cycle index, request)."""
    return [(index, request) for index, cycle in enumerate(pool) for request in cycle]


def worker(args):
    """One untraced worker process: set up, then run slice `args.worker` of
    `args.workers` of the pool's requests; prints its report as JSON."""
    (_, workload, pool), setup_s = set_up(args, False)
    state = json.loads(sys.stdin.read() or "null")
    if state is not None:
        workload.adopt(state)
    if workload.name == "driver-sweep":
        os.environ.pop("SF_THREADS", None)  # drivers run at program defaults
    items = requests_of(pool)
    n = len(items)
    mine = items[args.worker * n // args.workers : (args.worker + 1) * n // args.workers]
    rows, probes = run_requests(workload, mine, False, None, args.deadline)
    report = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
        "probes": probes,
    }
    print(json.dumps(report))
    return 0


def run_workers(args, workload):
    """Run the worker processes one after another; returns their reports."""
    shared = json.dumps(workload.shared())
    count = max(1, round(args.seconds / workload.cycle_s))
    workers = min(WORKERS, count * len(workload.panel()))
    deadline = time.time() + STOP_AFTER_S - (time.perf_counter() - _STARTED)
    reports = []
    for index in range(workers):
        if reports and time.time() >= deadline:
            break
        cmd = [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--worker", str(index),
            "--workers", str(workers),
            "--deadline", repr(deadline),
        ]
        left = max(1.0, HARD_LIMIT_S - (time.perf_counter() - _STARTED))
        done = subprocess.run(
            cmd, cwd=ROOT, input=shared, capture_output=True, text=True, timeout=left
        )
        if done.returncode != 0:
            raise SystemExit(f"error: worker {index} failed: {done.stderr.strip()[-500:]}")
        reports.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return reports


def run_requests(workload, items, traced, tracer, deadline=None):
    """Every (cycle index, request) in `items`; stops early once the wall
    clock passes `deadline` (time.time()), after at least one request.

    Returns (rows, probes): one row per request, (label, latency_s, cpu_s,
    ok, error, cycle), and the speed-probe readings in seconds taken before
    the first request, before a request once PROBE_EVERY_S have passed
    since the last one, and after the last request (untraced runs only).
    """
    rows = []
    probes = []
    clock = time.perf_counter
    cpu = time.process_time
    probed = None
    for index, request in items:
        if rows and deadline is not None and time.time() >= deadline:
            break
        if not traced and (probed is None or clock() - probed >= PROBE_EVERY_S):
            probes.append(speed_probe())
            probed = clock()
        c0 = cpu()
        t0 = clock()
        try:
            result = workload.call(request)
            error = None
        except Exception as exc:  # a raising request is a failed request
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        c1 = cpu()
        ok = False
        if error is None:
            try:
                with untraced(tracer):
                    ok = bool(workload.check(request, result))
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if not ok and error is None:
            error = "result disagrees with the independent route"
        rows.append((request.label, t1 - t0, c1 - c0, ok, error, index))
    if not traced:
        probes.append(speed_probe())
    return rows, probes


def timing_metrics(rows, probes, per_cycle_sample):
    """End-to-end timings at the reference speed, over every request run.

    Returns (evals_per_s, latency samples, cpu_per_eval_s). A request's
    latency is the lesser of its wall and CPU time (see REFERENCE_PROBE_S);
    all times are scaled by REFERENCE_PROBE_S over the median of the run's
    probe readings. The latency samples are the scaled request latencies,
    or the scaled cycle latencies when `per_cycle_sample`.
    """
    scale = REFERENCE_PROBE_S / statistics.median(probes)
    latencies = [scale * min(row[1], row[2]) for row in rows]
    evals_per_s = sum(row[3] for row in rows) / sum(latencies)
    cpu_per_eval = scale * sum(row[2] for row in rows) / len(rows)
    if per_cycle_sample:
        cycles = {}
        for row, latency in zip(rows, latencies):
            cycles[row[5]] = cycles.get(row[5], 0.0) + latency
        samples = list(cycles.values())
    else:
        samples = latencies
    return evals_per_s, samples, cpu_per_eval


def by_label(rows):
    """Raw wall-time summary per request kind."""
    out = {}
    for row in rows:
        out.setdefault(row[0], []).append(row[1])
    return {
        label: {"n": len(v), "median_ms": 1e3 * statistics.median(v), "max_ms": 1e3 * max(v)}
        for label, v in sorted(out.items())
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--deadline", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    traced = args.trace == 1
    if args.worker is not None:
        return worker(args)

    sf_threads_seen = os.environ.get("SF_THREADS")
    if traced:
        (tracer, workload, pool), _ = set_up(args, True)
        if workload.name == "driver-sweep":
            os.environ.pop("SF_THREADS", None)  # drivers run at program defaults
        rows, probes = run_requests(workload, requests_of(pool), True, tracer)
        if sf_threads_seen is not None:
            os.environ["SF_THREADS"] = sf_threads_seen
    else:
        workload = WORKLOADS[args.workload](import_program())
        python_before = python_probe()
        reports = run_workers(args, workload)
        python_after = python_probe()
        rows = [tuple(row) for report in reports for row in report["rows"]]
        probes = [probe for report in reports for probe in report["probes"]]

    import scipy

    attempted = len(rows)
    failures = [(row[0], row[4]) for row in rows if not row[3]]
    timed_s = sum(row[1] for row in rows)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np, scipy, sf_threads_seen),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "cycles": len({row[5] for row in rows}),
        "timed_s": timed_s,
        "by_label": by_label(rows),
    }
    correct = not failures
    RESULTS.mkdir(exist_ok=True)

    if traced:
        tracer.uninstall()
        metrics, bases = layer_metrics(tracer, timed_s, calibrate_overhead())
        missing = [
            name for name in workload.expected_spans if bases["calls"].get(name, 0) == 0
        ]
        record["trace"] = {"bases": bases, "missing_spans": missing}
        correct = correct and not missing
        tracer.save_spans(RESULTS / f"spans-{workload.name}-seed{args.seed}.npz")
    else:
        record["speed_probe_s"] = {
            "before": probes[0],
            "after": probes[-1],
            "median": statistics.median(probes),
            "min": min(probes),
            "max": max(probes),
        }
        record["python_loop_s"] = {"before": python_before, "after": python_after}
        # Times at the reference machine speed (see REFERENCE_PROBE_S).
        evals_per_s, samples, cpu_per_eval = timing_metrics(
            rows, probes, workload.sample_is_cycle
        )
        tail, tail_q, beyond = tail_latency(samples)
        record["workers"] = [
            {
                "setup_s": report["setup_s"],
                "peak_rss_mb": report["peak_rss_mb"],
                "requests": len(report["rows"]),
            }
            for report in reports
        ]
        record["latency_tail"] = {"percentile": tail_q, "samples_beyond": beyond, "n": len(samples)}
        record["cycle_s_at_reference"] = attempted / record["cycles"] / evals_per_s
        record["raw"] = {
            "evals_per_s": (attempted - len(failures)) / timed_s,
            "cpu_per_eval_ms": 1e3 * sum(row[2] for row in rows) / attempted,
        }
        metrics = {
            "setup_s": statistics.median(report["setup_s"] for report in reports)
            * REFERENCE_PROBE_S
            / statistics.median(probes),
            "evals_per_s": evals_per_s,
            "latency_p50_ms": 1e3 * statistics.median(samples),
            "latency_tail_ms": 1e3 * tail,
            "cpu_per_eval_ms": 1e3 * cpu_per_eval,
            "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in reports),
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print("record " + json.dumps(record, default=str))
    record["requests"] = [
        {"label": row[0], "wall_s": row[1], "cpu_s": row[2], "cycle": row[5]} for row in rows
    ]
    record["probes_s"] = probes
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": out_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
