"""Benchmark runner for ``uncert``.

Run from the root of a source checkout (the package is imported from
``src/``):

    python3 perfbench/run.py --workload verify-desk --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke            # every workload at a tiny size

One client drives ``uncert`` in this process as a closed loop: each
operation starts when the previous one ends, after one untimed warm-up
operation.  Only calls into public entry points are timed
(``uncert.cli.main``, or ``uncert.observables`` for joint-witness); every
output is checked outside the timed interval.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, which
alternates untraced and traced operations to measure the tracing overhead.
Spans and a full result record are written to ``.perfbench_run/``.

The host's speed drifts by up to 2x over tens of seconds, so times are
reported twice: raw (``setup_wall_s``, ``wall_*``) and divided by the speed
of reference work timed next to each sample (``setup_s``, ``norm_*``; see
:func:`setup_samples` and :class:`HostProbe`).  The divided ones are gated.

BLAS/OpenMP thread counts are pinned to 1 before numpy loads, so
every run is the plain single-threaded baseline.  Only process-local
measurement is used.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path.cwd()
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

SETUP_SAMPLES = 3         # fresh interpreters per run for setup_s
# setup_s is seconds at the host speed where this import takes the nominal time
REFERENCE_IMPORT = ("asyncio, email.parser, http.client, xml.dom.minidom, decimal, "
                    "logging.handlers, urllib.request, zipfile")
REFERENCE_IMPORT_NOMINAL_S = 0.1
IMPORTTIME_SAMPLES = 3    # fresh interpreters per traced run for import.*
CHILD_TIMEOUT_S = 60

# End-to-end metrics on the last output line (BENCHMARK.json's end_to_end);
# the raw setup_wall_s, wall_* and fail_ratio are printed and recorded next to them.
REPORTED = ("setup_s", "norm_p50_s", "norm_tail_s", "norm_units_per_s", "peak_mem_mib")

# Share of the time next to each op spent probing the host's speed.
PROBE_SHARE = 0.05

MEASUREMENT_NOTE = ("process-local measurement only: perf_counter wall time, tracemalloc "
                    "and child interpreters; no CPU pinning, no page-cache drops, no "
                    "cgroup or kernel changes")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(args: list) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {proc.stderr.strip()}")
    return proc


def _timed_import(modules: str) -> float:
    code = ("import time; t0 = time.perf_counter(); "
            f"import {modules}; print(repr(time.perf_counter() - t0))")
    return float(_run_child(["-c", code]).stdout.strip().splitlines()[-1])


def setup_samples(module: str, k: int) -> tuple:
    """Import time of ``module`` in k fresh interpreters, timed inside the child.

    Import speed follows the host's load, and the HostProbe does not track it,
    so each sample sits between two fresh imports of REFERENCE_IMPORT (standard
    library only, separate interpreters).  Returns the samples and, per sample,
    the host factor: the mean reference time over REFERENCE_IMPORT_NOMINAL_S.
    """
    ref = [_timed_import(REFERENCE_IMPORT)]
    samples = []
    for _ in range(k):
        samples.append(_timed_import(module))
        ref.append(_timed_import(REFERENCE_IMPORT))
    factors = [(a + b) / (2 * REFERENCE_IMPORT_NOMINAL_S) for a, b in zip(ref, ref[1:])]
    return samples, factors


def import_breakdown(module: str, k: int) -> dict:
    """Median self import time per top-level package, from ``-X importtime``."""
    line = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)")
    samples = []
    for _ in range(k):
        totals = {"scipy": 0.0, "numpy": 0.0, "uncert": 0.0}
        stderr = _run_child(["-X", "importtime", "-c", f"import {module}"]).stderr
        for m in line.finditer(stderr):
            top = m.group(2).split(".")[0]
            if top in totals:
                totals[top] += int(m.group(1)) * 1e-6
        samples.append(totals)
    return {f"import.{top}_s": statistics.median(s[top] for s in samples)
            for top in ("scipy", "numpy", "uncert")}


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile that still has at least 10
    samples beyond it, but never below the median.  With 20 or fewer samples
    no percentile above the median qualifies and the median is reported."""
    s = sorted(samples)
    n = len(s)
    if n > 20:
        return s[n - 11], 100.0 * (n - 10) / n
    return statistics.median(s), 50.0


def cache_sizes() -> dict:
    """Data/unified cache size per level in bytes, as the kernel reports it."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            if (idx / "type").read_text().strip() == "Instruction":
                continue
            text = (idx / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
            sizes[f"L{(idx / 'level').read_text().strip()}"] = int(text.rstrip("KMG")) * scale
    except (OSError, ValueError):
        pass
    return sizes


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(workload) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    caches = cache_sizes()
    largest = workload.largest_array_bytes
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "cache_bytes": caches,
        "largest_array_bytes_computed": largest,
        "largest_array_vs_L2": round(largest / caches["L2"], 4) if "L2" in caches else None,
        "largest_array_vs_L3": round(largest / caches["L3"], 4) if "L3" in caches else None,
        "measurement": MEASUREMENT_NOTE,
    }


class Ops:
    """Attempted/failed bookkeeping; every operation's output is checked."""

    def __init__(self, workload, check_error):
        self.workload = workload
        self.check_error = check_error
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self) -> float | None:
        """One operation; returns its timed wall seconds, or None if it raised."""
        self.attempted += 1
        try:
            elapsed, output = self.workload.run()
        except Exception as exc:  # an operation that raises counts as failed
            self._fail(f"raised {type(exc).__name__}: {exc}")
            return None
        self.check(self.workload.check, output)
        return elapsed

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except self.check_error as exc:
            self._fail(str(exc))

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


class HostProbe:
    """Times fixed reference work to track the host's speed during a run.

    The host's speed drifts by up to 2x over tens of seconds (other tenants
    share the cores and the memory bus).  Sampled between timed operations,
    the probe measures that drift so the ``norm_*`` metrics can divide it
    out.  A "cpu" probe times interpreter and FFT work (about 28 ms); a "mem"
    probe times two passes over a block larger than the last-level cache
    (about 36 ms), for workloads bound by memory bandwidth.  Each sample
    repeats the probe to cover PROBE_SHARE of the op next to it.
    """

    # typical probe times on the reference host (2-vCPU Xeon VM): norm_* metrics
    # are seconds at the speed where the probe takes exactly this long
    NOMINAL_S = {"cpu": 0.028, "mem": 0.036}

    def __init__(self, kind: str):
        import numpy

        self.kind = kind
        if kind == "cpu":
            signal = numpy.exp(1j * numpy.linspace(0.0, 64.0, 8192))

            def work():
                acc = 0
                for i in range(150_000):
                    acc += i % 7
                for _ in range(60):
                    numpy.cumsum(numpy.abs(numpy.fft.fft(signal)) ** 2)
        else:
            block = numpy.ones(16 << 20)  # 128 MiB

            def work():
                block.sum()
                block.sum()
        self._work = work
        self.samples_s = []

    def sample(self, op_s: float) -> None:
        """Probe for about PROBE_SHARE of ``op_s`` (at least once); record the
        mean time of one probe."""
        reps = max(1, round(PROBE_SHARE * op_s / self.NOMINAL_S[self.kind]))
        t0 = time.perf_counter()
        for _ in range(reps):
            self._work()
        self.samples_s.append((time.perf_counter() - t0) / reps)

    def factors(self) -> list:
        """Per gap between samples: host slowness against the nominal probe time
        (> 1 is a slower host), from the samples on either side."""
        s = self.samples_s
        return [(a + b) / (2 * self.NOMINAL_S[self.kind]) for a, b in zip(s, s[1:])]


def timed_loop(ops: Ops, seconds: float, probe: HostProbe, op_s: float) -> list:
    """Closed loop for ``seconds`` of timed work, a host probe between ops;
    ``op_s`` is the expected op time, which sizes the first probe."""
    probe.sample(op_s)
    times = []
    while not times or sum(times) < seconds:
        t = ops.run()
        if t is None:
            break
        times.append(t)
        probe.sample(t)
    return times


def run_untraced(workload, ops: Ops, seconds: float, setup_k: int) -> tuple:
    setup, setup_factors = setup_samples(workload.entry_module, setup_k)
    setup_norm = [t / f for t, f in zip(setup, setup_factors)]
    warm_s = ops.run()  # warm-up
    if hasattr(workload, "check_mass"):
        ops.check(workload.check_mass)
    tracemalloc.start()
    ops.run()  # memory pass
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    probe = HostProbe(workload.host_probe)
    times = timed_loop(ops, seconds, probe, warm_s or 0.0)
    factors = probe.factors()
    norm = [t / f for t, f in zip(times, factors)]
    units = workload.units * len(times)
    metrics = {"setup_wall_s": (statistics.median(setup), "s", len(setup)),
               "setup_s": (statistics.median(setup_norm), "s", len(setup))}
    metrics.update(timing_metrics(("wall_p50_s", "wall_tail_s", "units_per_s"), times, units))
    metrics.update(timing_metrics(("norm_p50_s", "norm_tail_s", "norm_units_per_s"),
                                  norm, units))
    metrics["peak_mem_mib"] = (peak / 2**20, "MiB", 1)
    metrics["fail_ratio"] = (ops.failed / ops.attempted, "1", ops.attempted)
    tail_pct = tail(times)[1] if times else None
    detail = {"setup_samples_s": setup, "setup_host_factors": setup_factors,
              "wall_samples_s": times, "host_factors": factors,
              "host_probe": probe.kind, "host_probe_samples_s": probe.samples_s,
              "tail_percentile": tail_pct,
              "units_completed": units, "unit": workload.unit_name}
    return metrics, detail


def timing_metrics(names: tuple, samples: list, units: int) -> dict:
    """Median, tail and throughput of op times, each with its sample count."""
    p50, tail_name, rate = names
    n = len(samples)
    if not samples:
        return {name: (float("nan"), unit, 0) for name, unit in
                ((p50, "s"), (tail_name, "s"), (rate, "units/s"))}
    return {p50: (statistics.median(samples), "s", n),
            tail_name: (tail(samples)[0], "s", n),
            rate: (units / sum(samples), "units/s", n)}


def run_traced(workload, ops: Ops, seconds: float, importtime_k: int,
               spans_path: Path) -> tuple:
    from spans import Tracer, layer_metrics

    imports = import_breakdown(workload.entry_module, importtime_k)
    ops.run()  # warm-up
    peak_mib, kept = 0.0, 0.0
    if hasattr(workload, "check_mass"):
        tracemalloc.start()
        ops.check(workload.check_mass)  # one joint_distribution call
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        kept = workload.kept_ratio
    tracer = Tracer()
    plain, traced = [], []
    while not traced or sum(plain) + sum(traced) < seconds:
        t = ops.run()
        tracer.begin_op()
        tracer.install()
        try:
            u = ops.run()
        finally:
            tracer.remove()
        if t is None or u is None:
            break
        plain.append(t)
        traced.append(u)
    metrics = {k: (v, "s", importtime_k) for k, v in imports.items()}
    if traced:
        metrics.update({k: (v, unit, len(traced))
                        for k, (v, unit) in layer_metrics(tracer).items()})
    metrics["observables.joint_distribution.peak_mib"] = (peak_mib, "MiB", 1)
    metrics["observables.joint_distribution.kept_ratio"] = (kept, "1", 1)
    nan = float("nan")
    n = len(traced)
    metrics["trace.untraced_wall_s"] = (statistics.median(plain) if n else nan, "s", n)
    metrics["trace.traced_wall_s"] = (statistics.median(traced) if n else nan, "s", n)
    # adjacent pairs see nearly the same host speed, so compare pair by pair
    metrics["trace.overhead_ratio"] = (
        statistics.median(u / t for t, u in zip(plain, traced)) if n else nan, "1", n)
    tracer.write(spans_path)
    return metrics, {"spans_file": str(spans_path.relative_to(ROOT)),
                     "untraced_samples_s": plain, "traced_samples_s": traced}


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads

    RUN_DIR.mkdir(exist_ok=True)
    workload = workloads.build(name, seed, RUN_DIR, smoke=smoke)
    ops = Ops(workload, workloads.CheckFailed)
    header = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "smoke": smoke, "loop": "closed, 1 client", "inputs": workload.config,
              "env": environment(workload)}
    print(json.dumps(header))
    if trace:
        metrics, detail = run_traced(workload, ops, seconds, 1 if smoke else IMPORTTIME_SAMPLES,
                                     RUN_DIR / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics, detail = run_untraced(workload, ops, seconds, 1 if smoke else SETUP_SAMPLES)
    for key, (value, unit, n) in metrics.items():
        print(f"{key:44s} {value:14.6g} {unit:8s} n={n}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                    if trace or k in REPORTED},
    }
    record = dict(header, detail=detail, errors=ops.errors,
                  samples={k: n for k, (_, _, n) in metrics.items()}, result=result)
    out = RUN_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one of: verify-desk, verify-large, "
                    "scan-lattice, joint-witness")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload (or --workload) at a tiny size, one timed op")
    args = ap.parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads; children inherit it
        os.environ[var] = "1"

    if not (SRC / "uncert" / "__init__.py").is_file():
        print(f"error: no uncert sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import uncert

    if Path(uncert.__file__).resolve().parent != (SRC / "uncert").resolve():
        print(f"error: imported uncert from {uncert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.smoke:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        results = [measure(n, args.seed, 0.0, bool(args.trace), True) for n in names]
        ok = all(r["correct"] for r in results)
        print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results), "metrics": {}}))
        return 0 if ok else 1
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), False)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
