"""Benchmark of ``groundstate run``: end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload linear_fine --seed 1 --seconds 20 --trace 0

The workload seed generates one config (see workloads.py); the program
receives only that config and is driven in-process through
``groundstate.experiment_cli.main(["run", cfg])``.  One process and one
BLAS/OpenMP thread throughout.

--trace 0 measures what a user sees, with tracing off:
  setup_s      cold import of groundstate.experiment_cli in a fresh
               interpreter, median of SETUP_SAMPLES children;
  run_s        wall time of one main() call in a warm process, median of
               every run that fits in --seconds;
  peak_mem_mb  tracemalloc peak over one main() call, in its own pass.
--trace 1 alternates untraced and traced runs for --seconds and reports
the per-layer metrics in PER_LAYER, each with the end-to-end metric and
workload it is expected to move.  Every workload reports every per-layer
metric; a span the workload never calls reads 0.

Every main() call is checked (workloads.check_run) and byte-compared with
the first call's sweep.csv/spectrum.json; a failed check counts into
fail_frac = failed / attempted, printed by name and carried by the
result's attempted/failed fields (it is 0 on a correct program, so it is
not one of the ratio-bounded metrics).  The last stdout line is one JSON
object with keys correct, attempted, failed, metrics.  Details
(environment stamp, samples, failures) and the spans go to .bench_out/.
"""

import os

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# must precede the first numpy import
os.environ.update(THREAD_PINS)

import argparse
import contextlib
import gc
import io
import json
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from spans import ROOT_SPAN, TARGETS, SpanStats, Tracer, patched, traced
from workloads import WORKLOADS, check_run, config_text, make_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")  # relative to ROOT, so generated configs are portable
SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 5
IMPORT_CODE = "import groundstate.experiment_cli"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_mem_mb", "MB"),
)

#: (metric, unit, better, the end-to-end metric and workloads it should move).
#: A span metric's suffix says how measure_layers computes it: <span>.ms is
#: the span's total time per run, .calls its calls per run (both medians
#: over runs), .ms.p50/.ms.p90 percentiles over single calls (one per mu),
#: .share its time as a fraction of the run.
PER_LAYER = (
    ("setup.import.scipy_linalg_ms", "ms", "lower", "setup_s, all workloads"),
    ("setup.import.jsonschema_ms", "ms", "lower", "setup_s, all workloads"),
    ("setup.import.groundstate_self_ms", "ms", "lower", "setup_s, all workloads"),
    ("radial_grid.make_grid.ms", "ms", "lower", "none expected"),
    ("spectral.summarize_spectrum.ms", "ms", "lower", "run_s, small; largest on linear_fine"),
    ("spectral.principal_eigenpair.ms", "ms", "lower", "run_s, small; largest on linear_fine"),
    ("spectral.second_eigenvalue.ms", "ms", "lower", "run_s, small; largest on linear_fine"),
    ("spectral.solve_shifted.calls", "count", "lower", "run_s on semilinear_sweep, system_sweep"),
    ("spectral.solve_shifted.ms", "ms", "lower", "run_s on semilinear_sweep, system_sweep"),
    ("spectral.matvec.calls", "count", "lower", "run_s on semilinear_sweep, system_sweep"),
    ("groundstate_space.estimate_c0_delta0.ms", "ms", "lower",
     "run_s on linear_fine; smaller on the others"),
    ("groundstate_space.projected_resolvent_norm.calls", "count", "lower",
     "run_s on linear_fine; smaller on the others"),
    ("groundstate_space.projected_resolvent_norm.ms", "ms", "lower",
     "run_s on linear_fine; smaller on the others"),
    ("groundstate_space.estimate_c0_delta0.peak_mb", "MB", "lower", "peak_mem_mb on linear_fine"),
    ("groundstate_space.estimate_c0_delta0.share", "ratio", "lower",
     "run_s on linear_fine (>= 0.9 there, <= 0.3 elsewhere)"),
    ("linear_solver.certify_theorem1.ms.p50", "ms", "lower", "run_s on linear_fine"),
    ("linear_solver.certify_theorem1.ms.p90", "ms", "lower", "run_s on linear_fine"),
    ("semilinear_solver.two_start_diagnostics.ms.p50", "ms", "lower", "run_s on semilinear_sweep"),
    ("semilinear_solver.two_start_diagnostics.ms.p90", "ms", "lower", "run_s on semilinear_sweep"),
    ("semilinear_solver.apply_T.calls", "count", "lower", "run_s on semilinear_sweep"),
    ("semilinear_solver.apply_T.ms", "ms", "lower", "run_s on semilinear_sweep"),
    ("semilinear_solver.sweeps_per_mu", "count", "lower", "run_s on semilinear_sweep"),
    ("semilinear_solver.brezis_oswald_check.ms", "ms", "lower", "run_s on semilinear_sweep"),
    ("semilinear_solver.two_start_diagnostics.share", "ratio", "lower",
     "run_s on semilinear_sweep (>= 0.5 there)"),
    ("coop_system.system_two_start.ms.p50", "ms", "lower", "run_s on system_sweep"),
    ("coop_system.system_two_start.ms.p90", "ms", "lower", "run_s on system_sweep"),
    ("coop_system.solve_system.calls", "count", "lower", "run_s on system_sweep"),
    ("coop_system.solves_per_mu", "count", "lower", "run_s on system_sweep"),
    ("coop_system.coupled_uniqueness_check.ms", "ms", "lower", "run_s on system_sweep"),
    ("coop_system.system_two_start.share", "ratio", "lower", "run_s on system_sweep (>= 0.5 there)"),
    ("experiment_cli.self_ms", "ms", "lower", "run_s on linear_fine"),
    ("experiment_cli.bytes_written", "bytes", "lower", "run_s on linear_fine"),
    ("trace.overhead_frac", "ratio", "lower", "none; validates the per-layer numbers"),
)

class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken child)."""


def import_program():
    """Import the CLI from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import groundstate
        from groundstate.experiment_cli import main
    except ImportError as exc:
        raise BenchError(f"cannot import groundstate from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(groundstate.__file__).resolve().parents:
        raise BenchError(f"groundstate imported from {groundstate.__file__}, not {SRC}")
    return main


def child_env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *args], env=child_env(), capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise BenchError(f"child {args} exited {done.returncode}: {done.stderr[-500:]}")
    return done


def cold_import_seconds() -> float:
    code = (
        "import time; t = time.perf_counter(); "
        f"{IMPORT_CODE}; print(repr(time.perf_counter() - t))"
    )
    return float(run_child(["-c", code]).stdout)


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_breakdown_ms() -> dict:
    """Import costs from one `python -X importtime` child, in ms."""
    stderr = run_child(["-X", "importtime", "-c", IMPORT_CODE]).stderr
    self_us, cum_us = {}, {}
    for m in _IMPORTTIME.finditer(stderr):
        self_us[m.group(4)] = int(m.group(1))
        cum_us[m.group(4)] = int(m.group(2))
    if "scipy.linalg" not in cum_us or "jsonschema" not in cum_us:
        raise BenchError("importtime output lacks scipy.linalg or jsonschema")
    return {
        "setup.import.scipy_linalg_ms": cum_us["scipy.linalg"] / 1e3,
        "setup.import.jsonschema_ms": cum_us["jsonschema"] / 1e3,
        "setup.import.groundstate_self_ms": sum(
            us for name, us in self_us.items() if name.split(".")[0] == "groundstate"
        ) / 1e3,
    }


class Runner:
    """Runs main() on one config, checks every call, and counts failures."""

    def __init__(self, main, workload: str, seed: int) -> None:
        self.main = main
        self.wl = WORKLOADS[workload]
        self.out_dir = OUT / f"{workload}-seed{seed}"
        self.cfg = make_config(workload, seed, str(self.out_dir / "out"))
        self.cfg_path = self.out_dir / "config.json"
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.cfg_path.write_text(config_text(self.cfg))
        self.reference: dict[str, bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.bytes_written: list[int] = []

    def attempt(self, call=None) -> float:
        """One checked main() call; returns its wall time in seconds."""
        out = Path(self.cfg["output_dir"])
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        argv = ["run", str(self.cfg_path)]
        call = call or self.main
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = call(argv)
            except Exception as exc:  # a traceback is a failed run, not a crash
                code = f"traceback {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        self.attempted += 1
        problems = check_run(self.wl, self.cfg, code, out)
        if not problems:
            produced = {n: (out / n).read_bytes() for n in ("sweep.csv", "spectrum.json")}
            if self.reference is None:
                self.reference = produced
            problems = [f"{n} differs on rerun" for n in produced if produced[n] != self.reference[n]]
            self.bytes_written.append(sum(p.stat().st_size for p in out.iterdir()))
        if problems:
            self.failed += 1
            tail = err.getvalue().strip().splitlines()[-1:]
            self.failures.append("; ".join(problems + tail))
        return elapsed

    def peak_mem_mb(self) -> float:
        tracemalloc.start()
        try:
            self.attempt()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = [cold_import_seconds() for _ in range(SETUP_SAMPLES)]
    peak = runner.peak_mem_mb()  # also the warm-up and the byte reference
    times = []
    stop = time.perf_counter() + seconds
    while not times or time.perf_counter() < stop:
        times.append(runner.attempt())
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(times),
        "peak_mem_mb": peak,
    }
    return metrics, {"setup_s": setup, "run_s": times}


def _c0_peak_wrapper(peaks: list[float]):
    def make(_name, fn):
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)

        return wrapper

    return make


def traced_runs(runner: Runner, seconds: float) -> tuple[Tracer, list, list]:
    """Alternate untraced and traced runs for `seconds` (at least one pair)."""
    tracer = Tracer()
    untraced, traced_times = [], []
    stop = time.perf_counter() + seconds
    while not traced_times or time.perf_counter() < stop:
        untraced.append(runner.attempt())
        tracer.run_id += 1
        with traced(tracer):
            traced_times.append(
                runner.attempt(lambda argv: tracer.call(ROOT_SPAN, runner.main, (argv,), {}))
            )
    return tracer, untraced, traced_times


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, dict, list[str], Tracer]:
    imports = [import_breakdown_ms() for _ in range(IMPORTTIME_SAMPLES)]
    c0_peaks: list[float] = []
    c0_target = [t for t in TARGETS if t[1] == "estimate_c0_delta0"]
    with patched(c0_target, _c0_peak_wrapper(c0_peaks)):
        runner.peak_mem_mb()  # also the warm-up and the byte reference
    tracer, untraced, traced_times = traced_runs(runner, seconds)
    stats = SpanStats(tracer.spans)
    rows = len(runner.cfg["mu_offsets"])

    metrics = {k: statistics.median(sample[k] for sample in imports) for k in imports[0]}
    for name, *_ in PER_LAYER:
        span, _, kind = name.partition(".ms.")  # "<span>.ms.p50" / "<span>.ms.p90"
        if kind:
            metrics[name] = stats.percentile_ms(span, int(kind[1:]))
        elif name.endswith(".ms"):
            metrics[name] = stats.median_ms(name[: -len(".ms")])
        elif name.endswith(".calls"):
            metrics[name] = stats.median_calls(name[: -len(".calls")])
        elif name.endswith(".share"):
            metrics[name] = stats.share(name[: -len(".share")])
    metrics["groundstate_space.estimate_c0_delta0.peak_mb"] = max(c0_peaks)
    metrics["semilinear_solver.sweeps_per_mu"] = (
        stats.median_calls("semilinear_solver.apply_T") / rows
    )
    metrics["coop_system.solves_per_mu"] = stats.median_calls("spectral.solve_shifted") / rows
    metrics["experiment_cli.self_ms"] = statistics.median(stats.root_self_ms)
    metrics["experiment_cli.bytes_written"] = statistics.median(runner.bytes_written)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(untraced) - 1.0
    )
    samples = {
        "run_s_untraced": untraced,
        "run_s_traced": traced_times,
        "imports_ms": imports,
        "calls_per_run": {n: [stats.calls[n][r] for r in stats.runs] for n in stats.calls},
    }
    return metrics, samples, stats.problems(runner.wl.spans), tracer


def environment() -> dict:
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "git_commit": commit,
        "machine": platform.machine(),
    }


def describe_samples(times: list[float]) -> str:
    """Sample count, median, and the highest percentile with ten samples beyond it."""
    text = f"run_s samples {len(times)}: median {statistics.median(times):.4f} s"
    if len(times) > 10:
        q = 100 * (len(times) - 10) // len(times)
        text += f", p{q} {np.percentile(times, q):.4f} s"
    return text


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        program = import_program()
        runner = Runner(program, args.workload, args.seed)
        if args.trace:
            metrics, samples, problems, tracer = measure_layers(runner, args.seconds)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            moves = {name: move for name, _, _, move in PER_LAYER}
        else:
            metrics, samples = measure_end_to_end(runner, args.seconds)
            problems = []
            units = dict(END_TO_END)
            moves = {}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    fail_frac = runner.failed / runner.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in env.items():
        print(f"env.{key} {value}")
    for name, unit in units.items():
        arrow = f"  -> {moves[name]}" if name in moves else ""
        print(f"{name} {metrics[name]:.6g} {unit}{arrow}")
    if "run_s" in samples:
        print(describe_samples(samples["run_s"]))
    print(f"fail_frac {fail_frac:g} ratio ({runner.failed} of {runner.attempted} runs)")
    for line in runner.failures + problems:
        print(f"FAILED {line}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "fail_frac": fail_frac,
        "samples": samples,
        "failures": runner.failures,
        "problems": problems,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.json.gz")

    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
