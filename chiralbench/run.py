"""chiralspin benchmark.

One closed-loop client with one operation in flight calls
``chiralspin.cli.main`` in this process, one CLI command per operation, and
checks every output against the references in ``oracles.py``. It repeats the
workload's whole operation list until ``--seconds`` have passed and prints, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracer.py`` with ``--trace 1``.

    python3 chiralbench/run.py --workload {solve,sweep,search} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout: the program is imported from
``src/chiralspin`` next to this directory, and everything the run writes goes
under ``.chiralbench/`` at the checkout root.
"""

import os

# One BLAS thread, fixed before numpy loads: thread count alone changes
# large-dim timings several-fold on a shared machine, and 1 <= nproc always.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import selftest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".chiralbench"
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
PROBE_TIMEOUT_S = 60


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def import_program():
    """Import chiralspin from this checkout's src/ and nowhere else."""
    package = SRC / "chiralspin"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no program source at {package}")
    sys.path.insert(0, str(SRC))
    import chiralspin.cli

    if Path(chiralspin.__file__).resolve().parent != package:
        raise BenchmarkError(f"chiralspin imported from {chiralspin.__file__}, not {package}")
    return chiralspin.cli


def run_op(cli, op):
    """Run one operation; return (seconds, exit code, output file text, stdout).

    The exit code of a raised exception is its description, which no check
    accepts.
    """
    op.out.unlink(missing_ok=True)
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    text = op.out.read_text(encoding="utf-8") if op.out.exists() else ""
    return elapsed, code, text, stdout.getvalue()


def run_round(cli, ops, failures):
    """Run every operation once, in order; return their latencies."""
    latencies = []
    for op in ops:
        elapsed, *result = run_op(cli, op)
        latencies.append(elapsed)
        problems = oracles.check(op.kind, op.expect, *result)
        if problems:
            failures.append({"op": op.name, "problems": problems[:3]})
    return latencies


def list_seconds(rounds):
    """Time of one pass over the operation list, each operation's time taken
    as its median over the rounds, so a burst of load from outside the
    process that slows one round does not move the figure."""
    return sum(statistics.median(times) for times in zip(*rounds))


def _probe(manifest, log, extra=()):
    """Seconds from starting a fresh interpreter to its "ready" line."""
    cmd = [sys.executable, *extra, str(HERE / "probe.py"), str(SRC), str(manifest)]
    with open(log, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            try:
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchmarkError("set-up probe did not exit") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed; see {log}")
    return ready


def import_times(manifest, log):
    """Median cumulative import ms of numpy and chiralspin (-X importtime)."""
    samples = {"numpy": [], "chiralspin": []}
    for _ in range(IMPORTTIME_REPEATS):
        _probe(manifest, log, ("-X", "importtime"))
        for line in Path(log).read_text(encoding="utf-8").splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[-1].strip() in samples and parts[1].strip().isdigit():
                samples[parts[-1].strip()].append(int(parts[1]) / 1000.0)
    if any(len(v) != IMPORTTIME_REPEATS for v in samples.values()):
        raise BenchmarkError(f"could not read import times from {log}")
    return {name: statistics.median(v) for name, v in samples.items()}


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure(cli, ops, seconds, traced, work):
    """Run whole rounds of ``ops`` until ``seconds`` have passed; return the
    latencies of untraced and traced rounds, the failures, and the trace
    totals. With ``traced``, rounds alternate untraced and traced."""
    plain, traced_rounds, failures = [], [], []
    totals = tracer.Totals()
    first_spans = None
    start = time.perf_counter()
    while True:
        plain.append(run_round(cli, ops, failures))
        if traced:
            spans = tracer.Tracer()
            spans.install()
            try:
                traced_rounds.append(run_round(cli, ops, failures))
            finally:
                spans.uninstall()
            totals.add(spans)
            first_spans = first_spans or spans.spans
        if time.perf_counter() - start >= seconds:
            break
    if first_spans is not None:
        tracer.write_spans(first_spans, work / "spans.csv")
    (work / "latencies.json").write_text(json.dumps({
        "ops": [op.name for op in ops], "rounds": plain, "traced_rounds": traced_rounds}))
    return plain, traced_rounds, failures, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cli = import_program()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.generate(args.workload, args.seed, work / "inputs", work / "outputs")
    manifest = work / "inputs" / "manifest.json"

    dead, _ = selftest.run(lambda op: run_op(cli, op)[1:], work / "selftest")
    if dead:
        raise BenchmarkError("corruption self-test: " + "; ".join(dead))
    if args.trace:
        setup, imports = [], import_times(manifest, work / "importtime.log")
    else:
        setup = [_probe(manifest, work / "probe.log") for _ in range(SETUP_REPEATS)]

    plain, traced_rounds, failures, totals = measure(cli, ops, args.seconds, args.trace, work)
    samples = [t for times in plain for t in times]

    if args.trace:
        metrics = totals.metrics()
        overhead = list_seconds(traced_rounds) / list_seconds(plain) - 1.0
        metrics["setup.import_numpy_ms"] = {"value": imports["numpy"], "unit": "ms"}
        metrics["setup.import_chiralspin_ms"] = {"value": imports["chiralspin"], "unit": "ms"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(ops) / list_seconds(plain), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(samples), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(plain),
        "traced_rounds": len(traced_rounds),
        "ops_per_round": len(ops),
        "op_latency_samples": len(samples),
        "setup_samples_s": setup,
        "environment": environment(),
        "failures": failures[:10],
    }
    if len(samples) >= 100:
        report["op_p90_ms"] = 1e3 * statistics.quantiles(samples, n=10)[-1]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops) * (len(plain) + len(traced_rounds)),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
