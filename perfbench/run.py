"""The repo benchmark: drive ``repro.api.Session`` through one workload.

Run from the repository root::

    python3 perfbench/run.py --workload serve-fleet --seed 1 --seconds 10 --trace 0

Workloads: ``serve-fleet``, ``serve-faults``, ``train-dmt``,
``train-sptt`` (see ``README.md`` for why each exists).  One run:

1. times ``setup_s`` in fresh interpreters (``--setup-probe`` children:
   interpreter start, ``import repro.api``, spec, ``Session``,
   ``analyze()``, ``build_cluster()``), median of several;
2. runs one untimed warm-up iteration at the default seed, which also
   checks the outputs against ``reference.json`` (and, on train-sptt,
   the multi-rank vs single-process drift);
3. runs cold iterations at ``--seed`` for ``--seconds`` and reports the
   medians.  With ``--trace 1`` every other iteration runs with the span
   wrappers of ``tracer.py`` installed; the run then reports the
   per-layer metrics of those iterations instead, and writes a Chrome
   trace to ``perfbench/out/``.

Every iteration's outputs are checked, and must equal the first timed
iteration's.  The last line of stdout is the JSON result; a per-run
record with the host description goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

#: Pinned to 1 by :func:`main` before numpy loads (and inherited by the
#: set-up probes): one process, one Python thread, one BLAS thread.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Timed iterations per phase even when one outlasts ``--seconds``
#: (the determinism check needs two).
MIN_ITERATIONS = 2
PROBE_TIMEOUT_S = 120
#: Reference-host seconds for :func:`calibrate`'s kernel.
CALIB_REF_S = 0.040


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-test only)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def host_info():
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "machine": platform.machine(),
    }


def calibrate():
    """Seconds one fixed, repo-independent kernel takes right now.

    On a shared 2-vCPU VM (Intel Xeon) the vCPUs drift in speed by up
    to ~50% over seconds: the interpreted loop below alone swings
    between ~20 and ~30 ms on either CPU.  No run length averages that
    away, so every timing is scaled to a reference host on which this
    kernel takes :data:`CALIB_REF_S`, using the kernel timed right
    before and right after the measured work.  The kernel mixes what
    the workloads do: an interpreted loop with dict stores, small numpy
    array ops, and a memory-bound sort of a 1M-element array.
    """
    import numpy as np

    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc += i * i
        table[i & 1023] = acc
    arr = np.arange(20_000.0)
    for _ in range(200):
        arr = (arr * 1.0001)[::-1].copy()
    big = np.random.default_rng(0).random(1_000_000)
    for _ in range(2):
        (big * 1.0001).sort()
    return time.perf_counter() - start


def speed_factor(calib_before, calib_after):
    """Measured seconds -> reference-host seconds, from the kernel timed
    right before and right after the measured work."""
    return 2 * CALIB_REF_S / (calib_before + calib_after)


def reference_stage_s(it):
    """An iteration's per-stage times in reference-host seconds."""
    return {
        stage: seconds * speed_factor(it.calib[i], it.calib[i + 1])
        for i, (stage, seconds) in enumerate(it.stage_s.items())
    }


def measure_setup(args, seed, probes):
    """Wall time from spawning a fresh interpreter to its first stage:
    (measured, reference-host) seconds per probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    before = calibrate() if probes else 0.0
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        after = calibrate()
        times.append((elapsed, elapsed * speed_factor(before, after)))
        before = after
    return times


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"perfbench: no repro package under {SRC_DIR}", file=sys.stderr)
        return 2
    for path in (REPO_ROOT, SRC_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)
    start = time.perf_counter()
    import repro.api  # noqa: F401

    import_s = time.perf_counter() - start
    from perfbench import tracer as tracing
    from perfbench import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    seed = args.seed % 2**31
    if args.setup_probe:
        wl.set_up(workload, seed, args.tiny)
        print("ready", flush=True)
        return 0
    import_calib = calibrate()

    setup = measure_setup(
        args, seed, 0 if args.trace else 1 if args.tiny else SETUP_PROBES
    )

    attempted = 0
    failures = []  # (phase, iteration index, message)

    def attempt(phase, run_seed, verify=False, tracer=None):
        """One iteration; returns it, or None if it raised."""
        nonlocal attempted
        attempted += 1
        try:
            it = wl.run_iteration(workload, run_seed, args.tiny, verify,
                                  tracer, calibrate)
        except Exception:
            failures.append((phase, attempted, traceback.format_exc()))
            return None
        for message in it.failures:
            failures.append((phase, attempted, message))
        return it

    # Warm-up: discarded from timing; checks the reference outputs.
    warm = attempt("warm-up", wl.DEFAULT_SEED, verify=True)
    if warm is not None and not args.tiny:
        expected = wl.load_reference()[workload.name]
        for message in wl.mismatches(
            expected, wl.reference_outputs(warm.outputs), workload.tolerance
        )[:5]:
            failures.append(("reference", attempted, message))

    # With --trace 1, traced and untraced iterations alternate, so host
    # drift cannot masquerade as tracing overhead.
    timed = {"untraced": [], "traced": []}
    tracer = tracing.Tracer() if args.trace else None
    baseline = None
    turn = 0
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline
           or len(timed["untraced"]) < MIN_ITERATIONS
           or (args.trace and len(timed["traced"]) < MIN_ITERATIONS)):
        phase = "traced" if args.trace and turn % 2 else "untraced"
        turn += 1
        patches = None
        if phase == "traced":
            tracer.iteration = len(timed["traced"])
            patches = tracing.install(tracer)
        try:
            it = attempt(phase, seed,
                         tracer=tracer if phase == "traced" else None)
        finally:
            if patches is not None:
                patches.restore()
        if it is None:
            if time.perf_counter() >= deadline:
                break
            continue
        fingerprint = wl.canonical(it.outputs)
        if baseline is None:
            baseline = fingerprint
        elif fingerprint != baseline:
            failures.append((phase, attempted, "outputs differ from the "
                             "first timed iteration at the same seed"))
        timed[phase].append(it)

    failed = len({index for _, index, _ in failures})
    for phase, index, message in failures:
        print(f"[{phase} #{index}] {message}", file=sys.stderr)
    untraced = timed["untraced"]
    if not untraced or (args.trace and not timed["traced"]):
        return 1

    def wall_and_scale(iterations):
        """Median reference-host wall, median speed factor."""
        ref = [sum(reference_stage_s(it).values()) for it in iterations]
        return (statistics.median(ref), statistics.median(
            r / it.wall_s for r, it in zip(ref, iterations)))

    items = workload.items(workload.build(seed, args.tiny, False))
    stage = workload.throughput_stage
    wall_s, scale = wall_and_scale(untraced)
    rate = items / statistics.median(
        reference_stage_s(it)[stage] for it in untraced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(ref for _, ref in setup) if setup else None
    if args.trace:
        traced_wall_s, traced_scale = wall_and_scale(timed["traced"])
        metrics = tracing.layer_metrics(tracer, {
            "iterations": len(timed["traced"]),
            "outputs": timed["traced"][-1].outputs,
            "import_s": import_s * CALIB_REF_S / import_calib,
            "scale": traced_scale,
            "traced_wall_s": traced_wall_s,
            "untraced_wall_s": wall_s,
        })
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "items_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "success_rate": {"value": 1.0 - failed / attempted,
                             "unit": "fraction"},
        }

    guards = _guards(untraced[-1].outputs)
    rate_name = "replay_rps" if workload.item == "req" else "train_samples_per_s"
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "host": host_info(),
        "calibration_ref_s": CALIB_REF_S,
        "import_s_raw": import_s,
        "setup_s_raw_and_ref": setup,
        "stage_s_raw": [it.stage_s for it in untraced],
        "stage_s_ref": [reference_stage_s(it) for it in untraced],
        "calibration_s": [it.calib for it in untraced],
        rate_name: rate,
        "error_rate": failed / attempted,
        "guards": guards,
        "failures": [list(f) for f in failures],
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write_chrome_trace(
            os.path.join(OUT_DIR, stem + ".trace.json"),
            {"workload": workload.name, "seed": seed,
             "traced_iterations": len(timed["traced"])},
        )

    host = record["host"]
    print(f"perfbench {workload.name} seed={seed} trace={args.trace}: "
          f"{len(untraced)} timed iterations"
          + (f" + {len(timed['traced'])} traced" if args.trace else "")
          + f", {attempted} attempted, {failed} failed")
    print(f"  host: {host['cpu']}, nproc {host['nproc']}, python "
          f"{host['python']}, numpy {host['numpy']}, {host['blas']}, "
          f"BLAS threads {host['threads']['OPENBLAS_NUM_THREADS']}; "
          f"host speed x{scale:.3f} of reference (times below are "
          f"reference-host seconds)")
    if not args.trace:
        print(f"  setup_s      {setup_s:.4f} s "
              f"(median of {len(setup)} fresh interpreters)")
    print(f"  wall_s       {wall_s:.4f} s (median of {len(untraced)})")
    print(f"  {rate_name:<12} {rate:.1f} {workload.item}/s")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  error_rate   {failed / attempted:g} fraction")
    for name, (value, unit) in guards.items():
        print(f"  {name:<12} {value!r} {unit} (deterministic guard)")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _guards(outputs):
    """The deterministic outputs printed beside the timings."""
    if "report" in outputs:
        lat = outputs["report"]["fleet"]["fleet"]["latency_ms"]
        return {"sim_p99_ms": (lat["p99"], "ms")}
    if "eval_auc" in outputs:
        return {"eval_auc": (outputs["eval_auc"], "AUC")}
    return {"train_loss": (outputs["losses"][-1], "BCE")}


if __name__ == "__main__":
    sys.exit(main())
