#!/usr/bin/env python3
"""frwave benchmark: one workload per process, closed loop, oracle-checked ops.

    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 [--trace 1]

Run from anywhere; the library is imported from `src/` next to this
directory. With --trace 0 the last stdout line is a JSON object whose
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones (see bench/README.md). `--workload all` runs each workload in its own
child process, one after the other, and prints their summaries.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("verify", "dual", "expand", "transform")
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s_p50", "s"),
              ("op_s_tail", "s"), ("peak_rss_mb", "MB"))
# what the speed probe takes on a 2-CPU x86-64 machine running at full speed
PROBE_NOMINAL_S = 0.015


class SpeedProbe:
    """A fixed reference kernel, independent of frwave, timed around timed work.

    A shared machine's speed can swing by 1.5x within seconds and stay
    there for tens of seconds (a fixed kernel's time moves between two
    levels, for pure Python and FFTs alike), more than a run's median can
    absorb. Timing this kernel right before and right after a piece of work
    and rescaling the work's wall time by PROBE_NOMINAL_S over the mean of
    the two probe times gives the seconds the work would have taken at the
    nominal speed. The kernel mixes what frwave's ops are made of: a
    pure-Python loop, cache-resident FFTs, one FFT larger than the caches,
    and many small-array NumPy calls.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(1 << 14) + 0j
        self.large = rng.standard_normal(1 << 18) + 0j
        self.ramp = np.linspace(0.0, 1.0, 1024)
        self.times: list[float] = []

    def __call__(self) -> float:
        np, small, ramp = self.np, self.small, self.ramp
        start = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i
        for _ in range(4):
            np.fft.ifft(np.fft.fft(small) * small)
        np.fft.fft(self.large)
        for _ in range(100):
            np.sum(np.exp(1j * ramp) * ramp)
        took = time.perf_counter() - start
        self.times.append(took)
        return took

    def timed(self, fn, *args):
        """(result, scaled seconds, wall seconds) of fn(*args)."""
        before = self()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        return result, self.scale(wall, before, self()), wall

    @staticmethod
    def scale(wall: float, *probes: float) -> float:
        return wall * PROBE_NOMINAL_S * len(probes) / sum(probes)


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools to one thread before numpy loads; returns nproc.

    One thread is within nproc everywhere. On a 2-CPU machine a second BLAS
    thread gave these ops no speed-up but two to three times the
    run-to-run variation (the dual ops' coefficient of variation went from
    about 0.12 to 0.23-0.32).
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples above it: (value, percentile, n).

    With 10 or fewer samples no percentile has ten above it; the smallest
    sample, the nearest to one that does, is reported as percentile 0.
    """
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k], 100.0 * max(n - 10, 0) / n, n


def run_ops(ops, seconds: float, group: int, probe: SpeedProbe, tracer=None,
            max_ops: int | None = None) -> list[tuple]:
    """Closed loop: (label, scaled seconds, wall seconds, outcome) per op.

    Runs until `seconds` of wall op time, then to the end of the group in
    flight (the workload's cycle of input classes), so every run has the
    same op mix. Only the library calls are timed, with the speed probe
    right before and after them; the oracle check runs after the clock
    stops. An op that raises is a failed op and the loop goes on.
    """
    records = []
    busy = 0.0
    while ((busy < seconds or len(records) % group) if max_ops is None
           else len(records) < max_ops):
        op = next(ops)
        if tracer is not None:
            tracer.op_id = len(records) + 1
        before = probe()
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:           # a failed op must not end the run
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        took = probe.scale(wall, before, probe())
        busy += wall
        if error is None:
            try:
                outcome = op.check(result)
            except Exception as exc:
                outcome = f"check raised {type(exc).__name__}: {exc}"
        else:
            outcome = error
        records.append((op.label, took, wall, outcome))
    return records


def measure_setup(workload, probe: SpeedProbe) -> tuple[float, list[float], float]:
    """Warm-up cost: cached constructions once, the rest SETUP_REPEATS times.

    Returns (once_s, repeated warm-up durations) in scaled seconds, and the
    same once-plus-median in wall seconds. The library caches the built-in
    mothers for the life of the process, so they are paid once; everything
    else a workload warms up it rebuilds on every call.
    """
    _, once, once_wall = probe.timed(workload.warm_once)
    timed = [probe.timed(workload.warm)[1:] for _ in range(SETUP_REPEATS)]
    wall = once_wall + statistics.median(w for _, w in timed)
    return once, [scaled for scaled, _ in timed], wall


def summarize(records, group: int) -> dict:
    """Throughput and latency of successful ops.

    ops_per_s is successful ops over the op time of the whole groups;
    failed and known-defect ops keep their time in it. A median over the
    groups would jump by a whole op per group with the number of groups
    that hold a known-defect op, which varies with the seed.
    """
    ok = [took for _, took, _, outcome in records if outcome == "ok"]
    whole = records[:len(records) - len(records) % group]
    out = {"ops_per_s": (sum(outcome == "ok" for *_, outcome in whole)
                         / sum(took for _, took, *_ in whole)) if whole else 0.0,
           "groups": len(whole) // group,
           "succeeded": len(ok), "op_s_p50": 0.0, "op_s_tail": 0.0,
           "tail_pct": 0.0, "tail_n": 0}
    if ok:
        out["op_s_p50"] = statistics.median(ok)
        out["op_s_tail"], out["tail_pct"], out["tail_n"] = tail_latency(ok)
    return out


def outcomes(records) -> tuple[dict, list[str]]:
    """Known-defect counts and unexpected failures."""
    known: dict[str, int] = {}
    failures = []
    for label, *_, outcome in records:
        if outcome.startswith("known:"):
            known[outcome[6:]] = known.get(outcome[6:], 0) + 1
        elif outcome != "ok":
            failures.append(f"{label}: {outcome}")
    return known, failures


def run_workload(args) -> int:
    nproc = pin_threads()
    if not (SRC / "frwave" / "__init__.py").is_file():
        print(f"error: frwave sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    start = time.perf_counter()
    fw = importlib.import_module("frwave")
    importlib.import_module("frwave.cli")
    import_wall = time.perf_counter() - start
    if not Path(fw.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported frwave from {fw.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import workloads
    from tracer import PER_LAYER, Tracer

    # NumPy loads with frwave, so the import is probed after it only
    probe = SpeedProbe()
    import_s = probe.scale(import_wall, probe())

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl_cls = workloads.WORKLOADS[args.workload]
        wl = wl_cls(fw, args.seed, work)
        tracer = None
        if args.trace:
            tracer = Tracer(fw.FrwaveError)
            tracer.install(roots=[HERE])
        once, reps, warm_wall = measure_setup(wl, probe)
        setup_s = import_s + once + statistics.median(reps)

        seconds = args.seconds / 2.0 if args.trace else args.seconds
        records = run_ops(wl.ops(), seconds, wl.GROUP, probe, tracer)
        busy = sum(wall for *_, wall, _ in records)
        scaled_busy = sum(took for _, took, *_ in records)
        probes = wl.probes() if hasattr(wl, "probes") else {}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        layer = None
        if tracer is not None:
            tracer.uninstall()
            replay = wl_cls(fw, args.seed, work)
            replay.warm_once()
            replay.warm()
            again = run_ops(replay.ops(), 0.0, wl.GROUP, probe, max_ops=len(records))
            overhead = scaled_busy - sum(took for _, took, *_ in again)
            agg = tracer.aggregate()
            layer = {name: (agg.get(name, 0), unit) for name, unit in PER_LAYER}
            layer["trace.overhead_s"] = (overhead, "s")
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write(span_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(records, wl.GROUP)
    known, failures = outcomes(records)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "nproc": nproc, "git_sha": git_sha(),
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "inputs": wl.sizes(), "setup_repeats": SETUP_REPEATS,
        "setup_parts_s": {"import": import_s, "once": once, "repeated": reps},
        "probe_nominal_s": PROBE_NOMINAL_S,
        "probe_s": {"min": min(probe.times), "median": statistics.median(probe.times),
                    "max": max(probe.times), "count": len(probe.times)},
    }
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  {len(records)} ops "
          f"in {busy:.2f} s of op time")
    print("env " + json.dumps(env, sort_keys=True))
    values = {"setup_s": setup_s, "ops_per_s": summary["ops_per_s"],
              "op_s_p50": summary["op_s_p50"], "op_s_tail": summary["op_s_tail"],
              "peak_rss_mb": peak_rss_mb}
    for name, unit in END_TO_END:
        print(f"  {name:<12} {values[name]:.6g} {unit}")
    print(f"  {'fail_frac':<12} {(len(records) - summary['succeeded']) / len(records):.6g} 1")
    wall = summarize([(label, w, w, outcome) for label, _, w, outcome in records], wl.GROUP)
    print(f"  times above are scaled to the speed probe's nominal {PROBE_NOMINAL_S} s "
          f"(probe median {statistics.median(probe.times):.4g} s); unscaled wall clock: "
          f"setup_s {import_wall + warm_wall:.6g} s, ops_per_s {wall['ops_per_s']:.6g}, "
          f"op_s_p50 {wall['op_s_p50']:.6g} s, op_s_tail {wall['op_s_tail']:.6g} s")
    print(f"  ops_per_s is taken over {summary['groups']} whole groups of {wl.GROUP} ops")
    print(f"  op_s_tail is p{summary['tail_pct']:.1f} of {summary['tail_n']} successful ops")
    print(f"  oracle: {summary['succeeded']} ok, {len(failures)} failed, "
          f"known defects {known or 'none'}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    for name, val in probes.items():
        print(f"  probe {name}: {val!r}")

    correct = not failures and summary["succeeded"] > 0
    if layer is None:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        print(f"  tracing overhead {layer['trace.overhead_s'][0]:.4g} s scaled "
              f"(traced {scaled_busy:.3f} s vs untraced "
              f"{scaled_busy - layer['trace.overhead_s'][0]:.3f} s "
              f"for the same {len(records)} ops); spans in {span_file.relative_to(ROOT)}")
        print("  self-time share by module over the ops (setup excluded): " + ", ".join(
            f"{k} {v:.1%}" for k, v in tracer.shares(True, skip_op=0).items()))
        print("  top functions: " + ", ".join(
            f"{k} {v:.1%}" for k, v in list(tracer.shares(False, skip_op=0).items())[:6]))
        for name, (val, unit) in layer.items():
            print(f"  {name:<44} {val:.6g} {unit}")
        print("  self time in seconds, setup included: " + ", ".join(
            f"{name} {agg[f'{name}.self_s']:.4g}" for name in tracer.names))
        metrics = {name: {"value": val, "unit": unit} for name, (val, unit) in layer.items()}
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process (fresh import, own peak RSS)."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, val in result["metrics"].items():
            merged[f"{name}.{metric}"] = val
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="op time to measure (a traced run measures half, then replays)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
