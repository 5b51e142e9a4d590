"""Benchmark of the `entwit reproduce` experiments, run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see workloads.py): fig56-scatter, example1-sdp-small,
isotropic-d4-sdp, heisenberg-n8. Each is closed loop: one fresh
interpreter at a time runs one `entwit` command (bench/child.py) and the
next starts when it has exited. Repetitions start while they are expected
to end within S seconds; every figure is a median over them. Child
processes run with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1.

Times are reported at reference machine speed. A shared 2-vCPU Intel Xeon
VM was measured slowing down by up to 2x for a minute at a time, which no
median over a run can hide. A thread of this process (SpeedProbe) times a
fixed kernel every PROBE_INTERVAL_S while each child runs; the child's
times are multiplied by PROBE_REF_S over the probe's mean duration during
that child. On a quiet host the factor is about 1. The raw wall-clock
figures are printed too, and reported by --trace 1 as rows_per_s_wall and
machine_speed.

--trace 0 reports the end-to-end metrics:
  rows_per_s   CSV data rows / time of entwit.cli.main(argv), the clock
               starting after the imports
  setup_s      time to `import entwit.cli` (numpy included) in a fresh
               interpreter; the median over every child plus SETUP_PROBES
               import-only children
  peak_rss_mb  maximum resident memory of the child
--trace 1 alternates untraced and traced children and reports the
per-layer metrics of tracer.py, plus cli.csv_digest_match, cpu_s, cpu_util
and trace_overhead_frac.

Every CSV row is checked outside the timed region (workloads.py); the
final JSON line carries the rows attempted and failed, and failed_frac is
printed above it. --smoke shrinks every command for the benchmark's own
tests. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 unless the benchmark
itself could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

# Child processes inherit this; the probe and the checks in this process
# stay single-threaded too.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
# Children of one run must end by then, so that the run ends within 180 s.
RUN_LIMIT_S = 160
SETUP_PROBES = 5
PROBE_INTERVAL_S = 0.05
# Mean SpeedProbe kernel duration on a quiet 2-vCPU Intel Xeon host.
PROBE_REF_S = 1.0e-3

sys.path.insert(0, SRC)

import workloads  # noqa: E402
from tracer import METRIC_UNITS  # noqa: E402

END_TO_END_UNITS = {"rows_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **METRIC_UNITS,
    "cli.csv_digest_match": "frac",
    "rows_per_s_wall": "rows/s",
    "machine_speed": "frac",
    "cpu_s": "s",
    "cpu_util": "frac",
    "trace_overhead_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SpeedProbe:
    """Times a fixed kernel every PROBE_INTERVAL_S: a Python loop, small
    eigendecompositions and a batch of small matrix products, the mix the
    workloads run.

    The kernel runs on a thread of the benchmark process, so it takes about
    3 % of one CPU next to the child and slows down when the host does.
    """

    def __init__(self):
        self.samples = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        batch = rng.standard_normal((128, 16, 16))
        while not self._stop.wait(PROBE_INTERVAL_S):
            t0 = time.perf_counter()
            x = 0
            for i in range(3000):
                x += i * i % 7
            for _ in range(20):
                np.linalg.eigh(a @ a.T)
            for _ in range(3):
                batch @ (batch @ batch)
            self.samples.append((t0, time.perf_counter() - t0))

    def speed(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the mean probe duration in [t0, t1], widened to 0.5 s."""
        mid = (t0 + t1) / 2
        lo, hi = min(t0, mid - 0.25), max(t1, mid + 0.25)
        durations = [d for t, d in self.samples if lo <= t <= hi]
        if not durations:
            raise BenchError("speed probe recorded no samples")
        return PROBE_REF_S / statistics.fmean(durations)


def run_child(argv: list, trace: bool, tag: str, timeout: float = CHILD_TIMEOUT_S) -> tuple:
    """Run one fresh interpreter; return (result dict, CSV text or None)."""
    result_path = os.path.join(WORK, f"{tag}.json")
    csv_path = os.path.join(WORK, f"{tag}.csv")
    for path in (result_path, csv_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, CHILD, result_path, "1" if trace else "0"]
    if argv:
        cmd += [*argv, "--out", csv_path]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    t1 = time.perf_counter()
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path) as fh:
        doc = json.load(fh)
    doc["window"] = (t0, t1)
    os.remove(result_path)
    text = None
    if os.path.exists(csv_path):
        with open(csv_path, newline="") as fh:
            text = fh.read()
        os.remove(csv_path)
    return doc, text


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "blas_threads": 1,
    }


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def measure(wl, seconds: float, trace: bool, reference: dict) -> dict:
    """Run repetitions of the workload for ``seconds``; return the report."""
    argv = wl.argv()
    digest_ref = reference["digests"].get(" ".join(argv))
    setup_only, plain, traced, csv_texts = [], [], [], []
    limit = time.perf_counter() + RUN_LIMIT_S

    def child(child_argv, traced_rep, tag):
        return run_child(child_argv, traced_rep, tag, max(1.0, limit - time.perf_counter()))

    with SpeedProbe() as probe:
        for i in range(SETUP_PROBES):
            setup_only.append(child([], False, f"{wl.name}-setup{i}")[0])
        # Start another repetition only while it is expected to end in time,
        # so that a run lasts about ``seconds`` whatever the repetition length.
        start = time.perf_counter()
        rounds = []
        while not rounds or (time.perf_counter() - start
                             + statistics.median(rounds) <= seconds):
            t0 = time.perf_counter()
            for traced_rep in ((False, True) if trace else (False,)):
                doc, text = child(argv, traced_rep, f"{wl.name}-rep")
                (traced if traced_rep else plain).append(doc)
                csv_texts.append((doc["rc"], text))
            rounds.append(time.perf_counter() - t0)
    children = setup_only + plain + traced
    for doc in children:
        doc["speed"] = probe.speed(*doc["window"])

    # checks run after the timed loop
    wl.prepare(reference)
    attempted = failed = 0
    digests = []
    for rc, text in csv_texts:
        attempted += wl.rows_expected()
        if rc != 0 or text is None:
            failed += wl.rows_expected()
            continue
        failed += wl.check(text)
        digests.append(hashlib.sha256(text.encode()).hexdigest())

    rows = wl.rows_expected()
    dist = {
        "rows_per_s": [rows / (d["main_s"] * d["speed"]) for d in plain],
        "setup_s": [d["import_s"] * d["speed"] for d in children],
        "peak_rss_mb": [d["peak_rss_mb"] for d in plain],
        "rows_per_s_wall": [rows / d["main_s"] for d in plain],
        "machine_speed": [d["speed"] for d in children],
    }
    report = {"argv": argv, "reps": len(plain), "attempted": attempted, "failed": failed,
              "distributions": {k: quartiles(v) + (len(v),) for k, v in dist.items()}}
    if not trace:
        report["metrics"] = {k: statistics.median(dist[k]) for k in END_TO_END_UNITS}
        report["units"] = END_TO_END_UNITS
        return report
    layer = {}
    for key, unit in METRIC_UNITS.items():
        scale = unit in ("s", "ms")
        layer[key] = statistics.median(
            d["trace"].get(key, 0.0) * (d["speed"] if scale else 1.0) for d in traced)
    plain_main = statistics.median(d["main_s"] * d["speed"] for d in plain)
    traced_main = statistics.median(d["main_s"] * d["speed"] for d in traced)
    layer["trace_overhead_frac"] = traced_main / plain_main - 1.0
    layer["rows_per_s_wall"] = statistics.median(dist["rows_per_s_wall"])
    layer["machine_speed"] = statistics.median(dist["machine_speed"])
    layer["cpu_s"] = statistics.median(d["cpu_s"] * d["speed"] for d in plain)
    layer["cpu_util"] = statistics.median(d["cpu_s"] / d["main_s"] for d in plain)
    layer["cli.csv_digest_match"] = (
        sum(dg == digest_ref for dg in digests) / len(csv_texts) if digest_ref else 0.0)
    report["metrics"] = layer
    report["units"] = PER_LAYER_UNITS
    report["missing_hooks"] = sorted({h for d in traced for h in d.get("missing_hooks", [])})
    report["digest_reference"] = digest_ref is not None
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny commands, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "entwit", "cli.py")):
        print(f"no entwit sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    try:
        report = measure(wl, args.seconds, bool(args.trace), workloads.load_reference())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    print(f"workload {wl.name} seed {args.seed} trace {args.trace} "
          f"reps {report['reps']}: entwit {' '.join(report['argv'])}")
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    for name, (q1, med, q3, n) in report["distributions"].items():
        print(f"  {name:<15} median {med:.6g} {units[name]}  "
              f"quartiles {q1:.6g} .. {q3:.6g}  n={n}")
    frac = report["failed"] / report["attempted"]
    print(f"  failed_frac     {frac:.6g} ({report['failed']} of {report['attempted']} rows)")
    if args.trace:
        if report["missing_hooks"]:
            print(f"  missing hooks: {', '.join(report['missing_hooks'])}")
        if not report["digest_reference"]:
            print("  no reference CSV digest for this command")
    print("  env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": report["units"][k]}
                    for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
