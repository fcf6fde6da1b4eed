"""Closed-loop benchmark of qecentropy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends each request only after the previous one has finished; the
benchmark starts no threads and pins BLAS to one thread.  Workloads:

  numrange  rank-k numerical ranges, dfs_exists, entropy_vs_p and the SVG path
  grouping  the min-entropy-code pipeline: range, extremal lambda, grouping code
  kraus     code analysis and recovery on Pauli channels; entropy routes
  cli       python -m qecentropy.cli child processes on seeded JSON files

A run draws one round of requests from the seed and measures whole passes
over it until ``--seconds`` have passed, at least 3 passes are done and at
least 100 requests attempted; untraced library passes each run in a fresh
worker interpreter, one after another.  Each latency, and each set-up time,
is scaled to seconds at a fixed reference speed by a short piece of
reference work timed between requests, around it (see speed.py), and each
request's latency is its median over the passes: on a shared machine the
speed changes from one second to the next, and a slow or a fast spell does
not move the result.  The unscaled figures are printed as comments.
Per-layer busy times and shares are unscaled.
Every output is checked outside the timed part.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it runs one pass to warm
up, then untraced and traced passes in turn in-process, requires identical
outputs, and reports per-layer busy time, counts and shares from spans
recorded around each public call.  Spans are written to .perfbench_out/ at
the end of the run.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time

# Set before numpy is first imported, here and in every child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from speed import speed_scale  # noqa: E402  (imports numpy, so after the BLAS setting)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_REQUESTS = 100
MIN_PASSES = 3
SETUP_REPEATS = 5
SPEED_SAMPLES = 3  # reference-work timings whose median gives one speed scale
# Request boundaries on each side whose speed scales set a request's scale:
# the nearest ones for a request run in this process, which runs on the core
# that the reference work gauged; more for a child process, which the system
# may run on the other core, so that it gets the speed of the machine.
SPEED_WINDOW = 1
SPEED_WINDOW_CHILD = 8
PROBE_REPEATS = 3
SMOKE_REQUESTS = 7
WORKER_TIMEOUT_S = 40
WORKLOADS = ("numrange", "grouping", "kraus", "cli")

# Spans recorded around public calls; each gives <name>.busy_s and <name>.share.
LAYER_SPANS = (
    "numerics.unitary_eigen",
    "binary_unitary.numerical_range",
    "binary_unitary.extremal_lambda",
    "binary_unitary.dfs_exists",
    "binary_unitary.entropy_vs_p",
    "binary_unitary.constituent_hulls",
    "binary_unitary.grouping_code",
    "binary_unitary.biunitary_code_entropy",
    "cli.render_region_svg",
    "channel.validate_channel",
    "channel.choi_gram",
    "code.kl_check",
    "code.classify_code",
    "code.build_recovery",
    "code.sigma_equals_lambda_check",
    "entropy.entropy_exchange",
    "entropy.purification_exchange_entropy",
    "entropy.lindblad_omega",
    "entropy.check_lindblad_bounds",
    "catalog.all_instances",
    "catalog.evaluate_instance",
    "serialization.parse",
    "serialization.to_json",
    "serialization.dumps",
)
CALL_COUNTS = ("binary_unitary.numerical_range", "binary_unitary.grouping_code")
# Counters recorded next to the spans: name -> unit.  "computed" ones are
# derived from input sizes: subsets = C(N, k-1), first_level_combos =
# C(N-1, N/k-1), kraus_pairs = m^2.
COUNTERS = {
    "binary_unitary.numerical_range.subsets": "computed",
    "binary_unitary.constituent_hulls.hulls": "count",
    "cli.render_region_svg.bytes_out": "bytes",
    "binary_unitary.grouping_code.no_partition": "count",
    "binary_unitary.grouping_code.first_level_combos": "computed",
    "code.kl_check.not_correctable": "count",
    "channel.kraus_pairs": "computed",
    "serialization.bytes_in": "bytes",
    "serialization.bytes_out": "bytes",
}


def blas_threads() -> str:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*blas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return str(getter())
    return f"unknown (OPENBLAS_NUM_THREADS={BLAS_THREADS})"


def fingerprint(out) -> str:
    return hashlib.sha256(pickle.dumps(out)).hexdigest()


class Stats:
    """Latencies and failures of repeated passes over one fixed round of requests."""

    def __init__(self, labels):
        self.labels = list(labels)
        self.passes: list[list[float]] = []  # scaled request latencies of each pass that ran
        self.raw: list[list[float]] = []  # the same, unscaled
        self.fingerprints: list[list[str]] = []
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.tried = 0  # passes tried, including any whose worker crashed

    def add(self, part: dict) -> None:
        """Merge one pass, as returned by run_pass."""
        self.tried += 1
        self.attempted += len(part["latencies"])
        self.raw.append(part["latencies"])
        self.passes.append([x * s for x, s in zip(part["latencies"], part["scales"])])
        self.failures += [tuple(f) for f in part["failures"]]
        if part.get("fingerprints") is not None:
            self.fingerprints.append(part["fingerprints"])

    def fail_pass(self, reason: str) -> None:
        """A pass that returned nothing: every request of the round failed."""
        self.tried += 1
        self.attempted += len(self.labels)
        self.failures += [(label, reason) for label in self.labels]

    def per_request(self, passes=None) -> list[float]:
        """Each request's median latency over the passes."""
        return [statistics.median(column) for column in zip(*(passes or self.passes))]

    def all_latencies(self) -> list[float]:
        return [x for latencies in self.passes for x in latencies]


def run_pass(requests, tracer, keep_fingerprints: bool = False, window: int = SPEED_WINDOW) -> dict:
    """One closed-loop pass over the requests; only ``request.run`` is timed.
    The speed scale is measured between requests, and each request's scale
    is the median of the ones measured at the nearest ``window`` request
    boundaries before it and after it."""
    latencies, gauges, failures, fingerprints = [], [speed_scale(SPEED_SAMPLES)], [], []
    for req in requests:
        tracer.begin_request()
        t0 = time.perf_counter()
        try:
            with tracer.span("request"):
                out = req.run(tracer)
        except Exception as exc:  # an unexpected exception is a failed request
            out, reason = None, f"{type(exc).__name__}: {exc}"
        else:
            reason = None
        latencies.append(time.perf_counter() - t0)
        gauges.append(speed_scale(SPEED_SAMPLES))
        if reason is None:
            try:
                reason = req.check(out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append((req.label, reason))
        if keep_fingerprints:
            fingerprints.append(fingerprint(out))
    scales = [statistics.median(gauges[max(0, i + 1 - window):i + 1 + window])
              for i in range(len(latencies))]
    return {"latencies": latencies, "scales": scales, "failures": failures,
            "fingerprints": fingerprints if keep_fingerprints else None}


def measure(one_pass, stats: Stats, seconds: float, min_passes: int, min_requests: int) -> None:
    """Closed loop over whole passes until ``seconds`` have passed, at least
    ``min_passes`` passes have been tried and ``min_requests`` attempted."""
    start = time.perf_counter()
    while (stats.tried < min_passes or stats.attempted < min_requests
           or time.perf_counter() - start < seconds):
        one_pass(stats)


def worker_pass(argv):
    """One pass in a fresh interpreter.

    Passes in separate processes keep one process's memory placement out
    of every sample of a request.  A worker that crashes, hangs or prints
    no result fails the whole pass."""
    def one_pass(stats: Stats) -> None:
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=WORKER_TIMEOUT_S)
            part = json.loads(proc.stdout.splitlines()[-1])
        except subprocess.CalledProcessError as exc:
            stats.fail_pass(f"worker exited {exc.returncode}: {exc.stderr.strip()[-300:]}")
        except subprocess.TimeoutExpired:
            stats.fail_pass(f"worker still running after {WORKER_TIMEOUT_S} s")
        except (ValueError, IndexError):
            stats.fail_pass("worker printed no result")
        else:
            stats.add(part)
    return one_pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for the smoke test: first requests of the round, one pass, one set-up")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)  # one untraced pass
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qecentropy", "__init__.py")):
        print(f"error: no qecentropy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Byte-compile once so every child process and set-up import reads cached bytecode.
    compileall.compile_dir(os.path.join(SRC, "qecentropy"), quiet=1)

    import numpy

    import cliwork
    import workloads
    from tracing import Tracer

    env = cliwork.child_env(SRC)
    conditions = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": numpy.__version__,
    }
    size = SMOKE_REQUESTS if args.smoke else None
    min_passes, min_requests = (1, 1) if args.smoke else (MIN_PASSES, MIN_REQUESTS)
    repeats = 1 if args.smoke else SETUP_REPEATS
    os.makedirs(OUT, exist_ok=True)
    off = Tracer(False)

    if args.workload == "cli":
        workdir = os.path.join(OUT, f"cli-{args.seed}")

        def setup():
            cliwork.write_inputs(args.seed, workdir)
            cliwork.time_child([sys.executable, "-m", "qecentropy.cli", "catalog", "list"], env)
    else:
        make, warmup = getattr(workloads, f"{args.workload}_round"), getattr(workloads, f"{args.workload}_warmup")

        def setup():
            for req in warmup(args.seed):
                req.run(off)
            return make(args.seed, 0)[:size]

        if args.worker:
            print(json.dumps(run_pass(setup(), off)))
            return 0

    # Set-up: package import in a fresh interpreter, input generation and
    # warm-up, scaled by the mean speed scale before and after it.
    setup_samples, raw_setup = [], []
    for _ in range(repeats):
        before = speed_scale(SPEED_SAMPLES)
        t0 = time.perf_counter()
        cliwork.time_child([sys.executable, "-c", "import qecentropy.cli"], env)
        requests = setup()
        raw_setup.append(time.perf_counter() - t0)
        setup_samples.append(raw_setup[-1] * (before + speed_scale(SPEED_SAMPLES)) / 2)
    setup_s = statistics.median(setup_samples)
    print(f"# setup_samples_s={[round(x, 4) for x in setup_samples]} "
          f"unscaled={[round(x, 4) for x in raw_setup]}")

    if args.workload == "cli":
        expected = cliwork.expected_outputs(workdir)
        requests = (cliwork.replay_round(workdir, expected) if args.trace
                    else cliwork.child_round(workdir, SRC, expected))[:size]
    labels = [req.label for req in requests]

    print("# " + " ".join(f"{k}={v}" for k, v in conditions.items()))
    if not args.trace:
        stats = Stats(labels)
        if args.workload == "cli":
            one_pass = lambda st: st.add(run_pass(requests, off, window=SPEED_WINDOW_CHILD))  # noqa: E731
        else:
            one_pass = worker_pass([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                                    "--seed", str(args.seed), "--seconds", "0", "--worker"]
                                   + (["--smoke"] if args.smoke else []))
        measure(one_pass, stats, args.seconds, min_passes, min_requests)
        if not stats.passes:
            print("error: no pass ran; " + "; ".join(sorted({r for _, r in stats.failures})), file=sys.stderr)
            return 1
        # The requests run in child processes: CLI children or pass workers.
        metrics = end_to_end(stats, setup_s, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
        failures = stats.failures
        attempted = stats.attempted
        report_run(stats)
        print(f"error_rate {len(failures) / attempted!r} ratio ({len(failures)} of {attempted})")
    else:
        # One discarded pass first, so that neither mode pays for first use;
        # then untraced and traced passes in the order plain, traced, traced,
        # plain, so that a change in machine speed and the head start of
        # running the same inputs second reach both modes alike.
        run_pass(requests, off)
        tracer = Tracer(True)
        plain, traced = Stats(labels), Stats(labels)

        def one_pass(_):
            for stats, tr in ((plain, off), (traced, tracer), (traced, tracer), (plain, off)):
                stats.add(run_pass(requests, tr, keep_fingerprints=True))

        measure(one_pass, plain, args.seconds, 1, 1)
        failures = plain.failures + traced.failures
        reference = plain.fingerprints[0]
        failures += [(label, "traced output differs from untraced output")
                     for prints in traced.fingerprints
                     for label, a, b in zip(labels, reference, prints) if a != b]
        failures += [(label, "untraced output differs between passes")
                     for prints in plain.fingerprints[1:]
                     for label, a, b in zip(labels, reference, prints) if a != b]
        attempted = plain.attempted + traced.attempted
        interp = statistics.median(cliwork.time_child([sys.executable, "-c", "pass"], env)
                                   for _ in range(PROBE_REPEATS))
        imported = statistics.median(cliwork.time_child([sys.executable, "-c", "import qecentropy.cli"], env)
                                     for _ in range(PROBE_REPEATS))
        metrics = per_layer(tracer, plain, traced, interp, imported - interp, args.workload == "cli")
        report_run(traced)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(path, conditions)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")

    for label, reason in failures[:20]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def report_run(stats: Stats) -> None:
    latencies = stats.all_latencies()
    slowest = max(range(len(latencies)), key=latencies.__getitem__)
    print(f"# requests={stats.attempted} passes={stats.tried} round={len(stats.labels)} "
          f"max_request_s={latencies[slowest]!r} ({stats.labels[slowest % len(stats.labels)]})")


def latency_summary(lat: list[float]) -> tuple[float, float, float]:
    """Throughput, median and 90th percentile of per-request latencies."""
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    return len(lat) / sum(lat), statistics.median(lat), p90


def end_to_end(stats: Stats, setup_s: float, peak_rss_mb: float) -> dict:
    """Latency percentiles and throughput of each request's median latency over the passes."""
    lat = stats.per_request()
    throughput, p50, p90 = latency_summary(lat)
    above = sum(x > p90 for x in lat)
    print(f"# latency samples={len(lat)} requests, each the median of {len(stats.passes)} passes; "
          f"{above} requests ({above * len(stats.passes)} samples) above p90")
    print("# unscaled: throughput_rps=%r latency_p50_s=%r latency_p90_s=%r"
          % latency_summary(stats.per_request(stats.raw)))
    return {
        "throughput_rps": {"value": throughput, "unit": "requests/s"},
        "latency_p50_s": {"value": p50, "unit": "s"},
        "latency_p90_s": {"value": p90, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def per_layer(tracer, plain: Stats, traced: Stats, interp: float, import_s: float,
              child_processes: bool) -> dict:
    """Busy time, calls and shares per span name, counters, start-up probes and
    the tracing overhead.  Shares are of the traced requests' total time; for
    the cli workload that total also counts one interpreter start-up and
    package import per command, which the in-process replay does not pay."""
    busy = tracer.busy()
    unknown = set(busy) - set(LAYER_SPANS) - {"request"}
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")
    startup_total = traced.attempted * (interp + import_s) if child_processes else 0.0
    # Spans and probes are unscaled, so the shares are of unscaled time.
    total = sum(x for latencies in traced.raw for x in latencies) + startup_total
    metrics = {}
    for name in LAYER_SPANS:
        seconds_busy, _ = busy.get(name, (0.0, 0))
        metrics[f"{name}.busy_s"] = {"value": seconds_busy, "unit": "s"}
        metrics[f"{name}.share"] = {"value": seconds_busy / total, "unit": "ratio"}
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = {"value": busy.get(name, (0.0, 0))[1], "unit": "count"}
    for name, unit in COUNTERS.items():
        metrics[name] = {"value": tracer.counters.get(name, 0), "unit": unit}
    metrics["cli.interpreter_s"] = {"value": interp, "unit": "s"}
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    metrics["cli.startup.share"] = {"value": startup_total / total, "unit": "ratio"}
    # Traced over untraced throughput, both from per-request median latencies.
    ratio = sum(plain.per_request()) / sum(traced.per_request())
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
