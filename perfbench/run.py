"""Benchmark of ``momreg``: Monte Carlo fits and the verifier suite.

Run from the repository root:

    python3 perfbench/run.py --workload mc_corrupt_d5 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs each of the workload's leading operations once untraced and once with
every layer of ``perfbench/layers.py`` wrapped, and reports per-layer calls,
self time and the tracing overhead.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import os

# BLAS must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 5
# Nominal duration of SpeedReference.measure().  Reported times are scaled
# to a machine on which the reference takes exactly this long.
REF_MS = 4.0
REF_WINDOW = 10  # operations on either side in the rolling reference median

# name -> (unit, better).  Each workload maps the generic names onto its own
# calls and sub-regimes (its `names` table); see README.md.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "aux_ms_p50": ("ms", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "risk_ratio_a": ("ratio", "lower"),
    "risk_ratio_b": ("ratio", "lower"),
    "pass_frac_a": ("fraction", "higher"),
    "pass_frac_b": ("fraction", "higher"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import momreg, build the workload's inputs and exit (times setup_s)",
    )
    return parser.parse_args(argv)


def environment(momreg) -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    backend = getattr(momreg, "active_backend", None)
    if backend is not None:
        env["momreg_backend"] = backend()
    return env


class SpeedReference:
    """A fixed numpy and pure-Python kernel timed next to every operation.

    On a shared virtual machine the speed a process gets can change by up
    to 2x within minutes.  Dividing each operation's time by the reference times
    around it removes that drift; the reference never calls momreg, so a
    change to momreg cannot move it.  Its parts mirror the work of the
    workloads: small d=5 block steps, d=50 block losses over a design the
    size of the d=50 data, a pure-Python arithmetic loop and dict and str
    churn.  Of the mixes tried, this one tracked fit, oracle and verify
    times best across the host's speed changes.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(1712_06788)
        self.X5 = rng.standard_normal((969, 5))
        self.X50 = rng.standard_normal((969, 50))
        self.y = rng.standard_normal(969)
        self.thetas5 = rng.standard_normal((40, 5))
        self.thetas50 = rng.standard_normal((12, 50))
        self.times: list[float] = []
        self.measure()  # first call pays one-off costs
        self.times.clear()

    def measure(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        acc = 0.0
        for theta in self.thetas5:
            losses = np.square(self.X5 @ theta - self.y).reshape(51, 19).mean(axis=1)
            j = int(np.argpartition(losses, 25)[25])
            rows = slice(j * 19, (j + 1) * 19)
            acc += float((self.X5[rows].T @ (self.X5[rows] @ theta - self.y[rows]))[0])
        for theta in self.thetas50:
            losses = np.square(self.X50 @ theta - self.y).reshape(51, 19).mean(axis=1)
            acc += float(np.partition(losses, 25)[25])
        total = 0
        for i in range(12000):
            total += i * i
        counts: dict[int, int] = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
        sorted(counts.items())
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed

    def op_scales(self, first: int) -> list[float]:
        """Scale of each operation timed between measurements i and i + 1,
        for i >= first: nominal over the slower of the rolling median around
        i and the mean of the two measurements bracketing the operation, so
        that a slow spell overlapping the operation's ends is removed too."""
        import numpy as np

        times = np.asarray(self.times)
        scales = []
        for i in range(first, times.size - 1):
            window = float(np.median(times[max(first, i - REF_WINDOW): i + REF_WINDOW + 1]))
            scales.append(REF_MS / 1e3 / max(window, (times[i] + times[i + 1]) / 2))
        return scales


def attempt(wl, op):
    """Run one operation; an exception is a failed operation, not a crash."""
    from workloads import OpResult

    try:
        return wl.run(op)
    except Exception as exc:  # noqa: BLE001 - every failure counts into `failed`
        return OpResult(op[0], False, error=f"{type(exc).__name__}: {exc}")


def measure_setup(args, ref: SpeedReference) -> list[float]:
    """Scaled wall time of fresh processes that import momreg and build
    every input; the scale is the median reference time of the phase."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    first = len(ref.times)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        for _ in range(10):
            ref.measure()
    scale = REF_MS / (1e3 * statistics.median(ref.times[first:]))
    return [t * scale for t in times]


def timed_loop(wl, seconds: float, ref: SpeedReference | None = None):
    """Closed loop: the fixed leading operations, then until `seconds` pass.

    With a reference, it is measured before every operation and after the
    last, and each operation's times are scaled by the reference around it.
    """
    results = []
    first = len(ref.times) if ref is not None else 0
    start = time.perf_counter()
    for i, op in enumerate(wl.schedule()):
        if i >= wl.min_ops and time.perf_counter() - start >= seconds:
            break
        if ref is not None:
            ref.measure()
        results.append(attempt(wl, op))
    if ref is not None:
        ref.measure()
        for res, scale in zip(results, ref.op_scales(first)):
            res.main_s *= scale
            res.aux_s *= scale
    return results


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else math.nan


def end_to_end(wl, results, setup_times) -> dict[str, float]:
    import numpy as np

    main = [r.main_s for r in results if r.ok and math.isfinite(r.main_s)]
    aux = [r.aux_s for r in results if r.ok and math.isfinite(r.aux_s)]
    busy = sum(np.nansum([r.main_s, r.aux_s]) for r in results if r.ok)
    values = {
        "setup_s": float(np.median(setup_times)),
        "op_ms_p50": _percentile(main, 50) * 1e3,
        "op_ms_p90": _percentile(main, 90) * 1e3,
        "aux_ms_p50": _percentile(aux, 50) * 1e3,
        "trials_per_s": sum(r.ok for r in results) / busy if busy > 0 else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values.update(wl.quality(results))
    print(f"{'metric':<14} {'workload name':<28} {'value':>14}  unit      better   samples")
    for key, (unit, better) in END_TO_END.items():
        samples = {"op_ms_p50": len(main), "op_ms_p90": len(main), "aux_ms_p50": len(aux),
                   "setup_s": len(setup_times)}.get(key, "")
        print(f"{key:<14} {wl.names.get(key, key):<28} {values[key]:>14.6g}  {unit:<9} {better:<8} {samples}")
    return values


def traced_run(wl):
    """Leading operations, each once untraced and once traced (interleaved).

    Layer times are scaled by the run's median reference time, as the
    end-to-end times are.
    """
    from layers import Tracer

    tracer = Tracer()
    ref = SpeedReference()
    ops = list(itertools.islice(wl.schedule(), wl.min_ops))
    results = []
    untraced_s = traced_s = 0.0
    for op in ops:
        ref.measure()
        t0 = time.perf_counter()
        results.append(attempt(wl, op))
        untraced_s += time.perf_counter() - t0
        with tracer:
            t0 = time.perf_counter()
            results.append(attempt(wl, op))
            traced_s += time.perf_counter() - t0
    summary = tracer.summary()
    scale = REF_MS / (1e3 * statistics.median(ref.times))
    for row in summary.values():
        row["self_ms"] *= scale
        row["incl_ms"] *= scale
    values = {}
    for layer, row in summary.items():
        for key, val in row.items():
            values[f"{layer}.{key}"] = float(val)
    values["trace.overhead_frac"] = traced_s / untraced_s if untraced_s > 0 else math.nan
    values["trace.layers_absent"] = float(len(tracer.absent))
    total_self = sum(row["self_ms"] for row in summary.values()) or 1.0
    print(f"traced {len(ops)} operations, {tracer.span_count} spans, "
          f"overhead {values['trace.overhead_frac']:.3f}x, absent layers: {tracer.absent or 'none'}")
    print(f"{'layer':<46} {'calls':>9} {'self_ms':>11} {'share':>7} {'incl_ms':>11}")
    for layer, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_ms"]):
        extra = "".join(
            f"  {k}={v:.4g}" for k, v in row.items() if k not in ("calls", "self_ms", "incl_ms")
        )
        print(f"{layer:<46} {row['calls']:>9} {row['self_ms']:>11.1f} "
              f"{row['self_ms'] / total_self:>7.1%} {row['incl_ms']:>11.1f}{extra}")
    return results, values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momreg" / "__init__.py").is_file():
        print(f"error: momreg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import momreg
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    try:
        if args.setup_only:
            return 0
        print("env:", json.dumps(environment(momreg), sort_keys=True))
        warm = attempt(wl, wl.warmup_op())
        if args.trace:
            results, values = traced_run(wl)
        else:
            ref = SpeedReference()
            setup_times = measure_setup(args, ref)
            loop_start = len(ref.times)
            results = timed_loop(wl, args.seconds, ref)
            ref_ms = 1e3 * statistics.median(ref.times[loop_start:])
            print(f"reference kernel: median {ref_ms:.3f} ms against {REF_MS} ms nominal; "
                  f"reported times are scaled by {REF_MS / ref_ms:.4f}")
            values = None
        gate = wl.gate()
        everything = [warm, *results, gate]
        if values is None:
            values = end_to_end(wl, results, setup_times)
    finally:
        wl.close()

    failed = [r for r in everything if not r.ok]
    print(f"operations: {len(everything)} attempted, {len(failed)} failed "
          f"(fail_frac {len(failed) / len(everything):.4g})")
    for r in failed[:5]:
        print(f"  failed {r.kind}: {r.error}", file=sys.stderr)
    if any("violations" in r.quality for r in everything):
        violations = sum(r.quality.get("violations", 0) for r in everything)
        print(f"lemma_violations: {violations}")
    finite = all(math.isfinite(v) for v in values.values())
    if args.trace:
        from layers import per_layer_metric_units

        units = per_layer_metric_units()
    else:
        units = {key: unit for key, (unit, _) in END_TO_END.items()}
    metrics = {
        key: {"value": values[key] if math.isfinite(values[key]) else 0.0, "unit": unit}
        for key, unit in units.items()
    }
    print(json.dumps({
        "correct": not failed and finite,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
