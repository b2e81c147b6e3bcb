"""labelsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ml_scaling --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory, so nothing needs installing. ``--trace 0`` prints the end-to-end
metrics named in BENCHMARK.json, with times scaled by the host speed that
speedref.py measures next to each timed call; ``--trace 1`` prints the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Outputs,
the run record and the traced spans go to ``.bench_out/``. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the load generator is single-threaded, and BLAS threads
# would add run-to-run noise on a shared 2-core box. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # set-ups per run; setup_s is the median of their scaled times

from speedref import SpeedReference  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, Ledger  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _import_labelsim():
    sys.path.insert(0, str(SRC))
    import labelsim
    import labelsim.cli  # noqa: F401  (binds labelsim.cli)

    if Path(labelsim.__file__).resolve().parent != SRC / "labelsim":
        raise ImportError(f"labelsim imported from {labelsim.__file__}, not {SRC}")
    return labelsim


def _probe(args) -> int:
    """One set-up: interpreter start, import, pass-0 inputs. Prints the
    monotonic clock when set-up is done (the parent took it at spawn; both
    read the same system-wide clock), then a speed factor sampled in this
    fresh process."""
    labelsim = _import_labelsim()
    WORKLOADS[args.workload](labelsim).inputs(args.seed, 0)
    ready = time.perf_counter()
    print(json.dumps({"ready": ready, "speed_factor": SpeedReference().sample()}))
    return 0


def _setup_samples(args) -> tuple[list[float], list[float]]:
    """SETUP_SAMPLES set-up times, spawn to set-up done, and the speed
    factor each set-up process sampled right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples, factors = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe["ready"] - t0)
        factors.append(probe["speed_factor"])
    return samples, factors


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": _commit(),
    }


def _run_plain(workload, args, ledger, ref):
    """Passes with inputs (seed, 0), (seed, 1), ... until another pass would
    overrun --seconds, and at least passes_min of them; a speed factor is
    sampled before the first pass and after each one."""
    results, factors, steps = [], [], []
    start = time.perf_counter()
    factors.append(ref.sample())
    while True:
        t0 = time.perf_counter()
        inputs = workload.inputs(args.seed, len(results))
        results.append(workload.run_pass(inputs, ledger))
        factors.append(ref.sample())
        steps.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(results) >= workload.passes_min
                and elapsed + statistics.median(steps) > args.seconds):
            return results, factors


def _run_traced(workload, labelsim, args, ledger):
    """passes_min passes, each run once untraced and once traced, in
    alternating order; a fixed amount of work, so every count repeats."""
    import tracing

    modules = (labelsim.cli, labelsim.montecarlo, labelsim.semiparam,
               labelsim.estimators, labelsim.theory)
    tracer = tracing.Tracer()
    plain, traced, traced_walls = [], [], []
    for k in range(workload.passes_min):
        inputs = workload.inputs(args.seed, k)
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(workload.run_pass(inputs, ledger))
                continue
            tracing.install(tracer, modules)
            root = tracer.open("bench.pass", pass_index=k)
            try:
                traced.append(workload.run_pass(inputs, ledger))
            finally:
                tracer.close(root)
                tracer.restore()
            traced_walls.append(tracer.spans[root].duration)
    for k, (a, b) in enumerate(zip(plain, traced)):
        ledger.check(f"trace.pass{k}.same_output", a.digest == b.digest,
                     "traced and untraced outputs have the same SHA-256")
    metrics = tracing.layer_metrics(
        tracer.spans, sum(traced_walls), sum(r.wall_s for r in plain),
        sum(r.output_bytes for r in traced))
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    return plain, metrics, spans_path


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.chdir(ROOT)
    if not (SRC / "labelsim" / "__init__.py").is_file():
        return _fail(f"labelsim sources not found under {SRC}")
    if args.probe:
        return _probe(args)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setup, setup_factors = ([], []) if args.trace else _setup_samples(args)
        labelsim = _import_labelsim()
    except (RuntimeError, ImportError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    workload = WORKLOADS[args.workload](labelsim)
    ledger = Ledger()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": _environment(args.seed)}
    if args.trace:
        results, values, record["spans"] = _run_traced(workload, labelsim, args, ledger)
        wanted = spec["per_layer"]
    else:
        results, factors = _run_plain(workload, args, ledger, SpeedReference())
        walls = [r.wall_s for r in results]
        # each time over the speed factor(s) sampled next to it
        pass_factors = [(a + b) / 2 for a, b in zip(factors, factors[1:])]
        values = {
            "setup_s": statistics.median(
                t / f for t, f in zip(setup, setup_factors)),
            "wall_ref_s": statistics.median(
                t / f for t, f in zip(walls, pass_factors)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
        record.update({
            "setup_samples_s": setup, "setup_speed_factors": setup_factors,
            "speed_factors": factors,
            "unscaled": {"setup_s": statistics.median(setup),
                         "wall_s": statistics.median(walls)},
        })
    workload.check([r for r in results if r.digest], ledger, args.seed)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record.update({
        "passes": len(results),
        "pass_walls_s": [r.wall_s for r in results],
        "digests": [r.digest for r in results],
        "fail_ratio": {"failed": ledger.failed, "attempted": ledger.attempted},
        "checks": ledger.checks,
    })
    if args.trace:
        record["counts"] = {m["name"]: values[m["name"]]
                            for m in wanted if m["unit"] in ("count", "bytes")}
    record_path = os.path.join(
        OUT_DIR, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"{args.workload} seed {args.seed}: {len(results)} passes, "
          f"record in {record_path}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    for name, value in record.get("unscaled", {}).items():
        print(f"  {name + ' (unscaled)':48s} {value:>14.6g} s")
    if not args.trace:
        print(f"  {'speed factor (median)':48s} {statistics.median(factors):>14.6g}")
    print(f"  {'fail_ratio':48s} {ledger.failed:>7d} / {ledger.attempted} operations")
    for c in ledger.checks:
        if not c["ok"]:
            print(f"  FAILED {c['name']}: {c['detail']}")
    print(f"  checks passed: {sum(c['ok'] for c in ledger.checks)}"
          f"/{len(ledger.checks)}; pass-0 output sha256 {results[0].digest}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
