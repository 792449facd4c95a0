"""gravent benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 30 \
        --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`, never from an installed copy.  A workload is a
fixed list of CLI commands on the shipped presets, called in-process
through `gravent.cli.main` with one BLAS thread.  After a warm-up pass,
whole passes repeat until `--seconds` have been measured; the seed fixes
the order of the commands in each pass.  Every pass's outputs are
checked (see checks.py).

With --trace 0 the last stdout line reports setup_s, pass_s and
peak_rss_mb; with --trace 1 untraced and traced passes alternate and it
reports the per-layer figures of spans.py plus trace.pass_s and
trace.overhead_s.  A results file with the provenance, every pass and
every problem goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Each pinned to one thread before anything loads numpy; a second
# OpenBLAS thread on a 2-core box made the dense expm/eigh 3-4x slower.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fifteen fresh interpreters, about 0.75 s each: with a median of five,
# the quartile spread of ten runs reached 0.26 on a shared 2-vCPU VM.
SETUP_SAMPLES = 15

# Setup: a fresh interpreter imports the CLI and parses the presets.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import gravent.cli
from gravent.presets import load_preset
for name in sys.argv[1:]:
    load_preset(name)
print(time.perf_counter() - t0)
print(gravent.__file__)
"""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    # a name, not the function: checks.py loads numpy, which must wait
    # until the BLAS thread count is set
    check: str

    @property
    def preset(self) -> str:
        return self.argv[self.argv.index("--preset") + 1]


def _cmd(verb: str, preset: str, check: str, *extra: str) -> Command:
    return Command((verb, "--preset", preset, *extra), check)


WORKLOADS = {
    # every analytic preset: dynamics, negativity, params, sweep and io do
    # the work, fock does none
    "closed_form": (
        _cmd("sweep", "fig2", "check_sweep"),
        _cmd("sweep", "fig4", "check_sweep"),
        _cmd("dynamics", "fig4", "check_dynamics_closed_form"),
        _cmd("dynamics", "fig3b", "check_dynamics_closed_form"),
        _cmd("sweep", "fig5", "check_sweep"),
        _cmd("rate", "fig5", "check_rate"),
        _cmd("feasibility", "sec5-feasibility", "check_feasibility",
             "--golden"),
    ),
    # the 7/7 analytic-vs-oracle cross-check: Fock state preparation by
    # dense expm under cutoff doubling, then dense eigh
    "oracle_validate": (
        _cmd("validate", "fig3a", "check_validate"),
    ),
    # a few large eigensolves, then many evolutions and partial traces
    # with EN on 2N x 2N mediator cuts; a handful of expm, no cutoff search
    "oracle_dynamics": (
        _cmd("dynamics", "fig3a", "check_oracle_dynamics"),
        _cmd("dynamics", "fig6", "check_oracle_variants"),
    ),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(presets: list[str]) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, *presets],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    seconds, origin = done.stdout.split()[-2:]
    if not Path(origin).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup probe imported gravent from {origin}")
    return float(seconds)


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process has loaded."""
    import ctypes
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return out
    libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln
                   and ln.split()[-1].endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def process_threads() -> int | None:
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    return int(status.split("Threads:")[1].split()[0])


def provenance() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    cpu = platform.processor()
    with contextlib.suppress(OSError, IndexError):
        cpu = next(ln.split(":", 1)[1].strip() for ln in
                   Path("/proc/cpuinfo").read_text().splitlines()
                   if ln.startswith("model name"))
    return {"machine": {"platform": platform.platform(), "cpu": cpu,
                        "cpus": os.cpu_count()},
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": blas_threads(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "process_threads": process_threads()}


def run_pass(cli, commands, order, out: Path):
    """Run the commands once: (wall seconds, CPU seconds, per command).

    The times cover the cli.main calls only.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    total = 0.0
    results = []
    cpu0 = time.process_time()
    for k in order:
        argv = [*commands[k].argv, "--out", str(out)]
        sink = io.StringIO()
        error = ""
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is one failed operation, not the run
            code = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        total += elapsed
        if code != 0 and not error:
            error = sink.getvalue()[-2000:]
        results.append({"index": k, "command": " ".join(commands[k].argv),
                        "seconds": elapsed, "exit": code, "error": error})
    return total, time.process_time() - cpu0, results


def check_pass(checks, commands, presets, results, out) -> int:
    """Check each command's outputs; returns how many commands failed."""
    failed = 0
    for res in results:
        cmd = commands[res["index"]]
        if res["exit"] != 0:
            problems = [f"exit code {res['exit']}: {res['error']}"]
        else:
            try:
                problems = getattr(checks, cmd.check)(out,
                                                      presets[cmd.preset])
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        res["problems"] = problems
        if problems:
            failed += 1
    return failed


def pass_time(seconds: list[float]) -> float:
    """90th-percentile (nearest rank) of the warm pass times of a run.

    The shared 2-vCPU VM this was tuned on mostly runs loaded, with dips
    to nearly twice the speed for seconds to minutes at a time.  How many
    dips a run catches moves its median and its fastest pass; the upper
    tail reflects the loaded state and holds steadier.  Over the ten-seed sets measured
    when this benchmark was written, the quartile spread of this figure
    was 0.05-0.22 on closed_form, against 0.03-0.33 for the median.
    """
    ordered = sorted(seconds)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def median_metrics(samples: list[dict]) -> dict[str, float]:
    names = sorted({k for s in samples for k in s})
    return {k: statistics.median(s[k] for s in samples if k in s)
            for k in names}


def paired_overhead(traced: list[float], untraced: list[float]) -> float:
    """Median extra time of a traced pass over the untraced pass before it.

    Pairs run back to back, so each difference sees the same load.
    """
    return statistics.median(t - u for t, u in zip(traced, untraced))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gravent" / "__init__.py").is_file():
        print(f"no gravent sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    commands = WORKLOADS[args.workload]
    names = sorted({c.preset for c in commands})

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import gravent.cli as cli
    import checks
    import spans
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"gravent imported from {cli.__file__}", file=sys.stderr)
        return 2
    presets = {n: json.loads((SRC / "gravent" / "presets" / f"{n}.json")
                             .read_text()) for n in names}

    rng = random.Random(args.seed)
    out = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer()
    log = []
    attempted = failed = 0
    setup, untraced, traced, layers = [], [], [], []

    def one_pass(kind: str) -> float:
        nonlocal attempted, failed
        order = rng.sample(range(len(commands)), len(commands))
        if kind == "traced":
            tracer.reset()
            tracer.install()
        try:
            seconds, cpu, results = run_pass(cli, commands, order, out)
        finally:
            tracer.uninstall()
        if kind == "traced":
            figures = spans.layer_metrics(tracer)
            figures["trace.pass_s"] = seconds
            layers.append(figures)
        bad = check_pass(checks, commands, presets, results, out)
        attempted += len(results)
        failed += bad
        log.append({"kind": kind, "seconds": seconds, "cpu_seconds": cpu,
                    "failed": bad,
                    "commands": results,
                    "errors": spans.error_counts(tracer)
                    if kind == "traced" else {}})
        return seconds

    try:
        one_pass("warm-up")
        start = time.perf_counter()
        while True:
            # set-up samples spread over the run see its drift, as passes do
            due = (time.perf_counter() - start) * SETUP_SAMPLES / args.seconds
            while not args.trace and len(setup) < min(due, SETUP_SAMPLES):
                setup.append(measure_setup(names))
            untraced.append(one_pass("untraced"))
            if args.trace:
                traced.append(one_pass("traced"))
            if time.perf_counter() - start >= args.seconds:
                break
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(names))
    finally:
        shutil.rmtree(out, ignore_errors=True)

    if args.trace:
        metrics = median_metrics(layers)
        metrics["trace.overhead_s"] = paired_overhead(traced, untraced)
        absent = sorted(tracer.absent)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"setup_s": statistics.median(setup),
                   "pass_s": pass_time(untraced),
                   "peak_rss_mb": peak * 1024 / 1e6}
        absent = []
    correct = not any(r.get("problems") for p in log for r in p["commands"])
    report = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace,
         "provenance": provenance(), "setup_samples": setup,
         "absent_groups": absent, "passes": log, **report},
        indent=1) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
