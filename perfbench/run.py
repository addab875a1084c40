"""Benchmark for stratachern: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a source checkout and imports the package from its
``src/``.  Each workload is a closed loop from one client in one process: the
next op starts when the previous one has finished and been checked.  One
untimed warm-up op runs first.  Every op's output is checked; a failed op
(an exception, a non-zero exit or a failed check) counts in ``failed``.

``--trace 0`` measures the end-to-end metrics for S seconds.  ``--trace 1``
alternates 1 s blocks of untraced ops and of ops under the span recorder of
``tracer.py`` for S seconds, and reports the per-layer metrics.  Report lines go
to stdout, and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

The thread pool of ``witness.sweep_mass`` runs at its shipped default; the
benchmark sets no environment variable.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for panel output and span files, inside the checkout.
RUN_DIR = ROOT / ".perfbench_run"

#: The names in workloads.WORKLOADS, listed here so that parsing arguments
#: imports no numpy before a set-up probe starts its clock.
WORKLOADS = ("figure_pipeline", "phase_scan", "qgt_random", "fine_mesh")
#: Fresh-process set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: Ops needed beyond the tail percentile.
TAIL_BEYOND = 10
#: Length of one untraced or traced block in a traced run.
BLOCK_S = 1.0


class NoPackage(RuntimeError):
    pass


def import_package():
    """Import stratachern from this checkout's src/, never from elsewhere."""
    if not (SRC / "stratachern" / "__init__.py").is_file():
        raise NoPackage(f"no stratachern package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stratachern

    if Path(stratachern.__file__).resolve().parent != (SRC / "stratachern").resolve():
        raise NoPackage(f"stratachern imported from {stratachern.__file__}, not {SRC}")
    return stratachern


def setup_probe(workload: str, seed: int) -> float:
    """Time to import the package and build the workload's inputs, measured
    in this (fresh) process from before its first numpy import."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    workloads.make(workload, seed, RUN_DIR)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int, repeats: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(sc, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    thread_cap = getattr(sc.harness, "thread_cap", None)
    return {
        "nproc": os.cpu_count(),
        "thread_cap": thread_cap() if thread_cap else None,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
        "env": {k: os.environ.get(k) for k in
                ("STRATA_CHERN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Loop:
    """Closed-loop runner: ops are numbered across phases of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.next = 0
        self.attempted = 0
        self.failed = 0

    def one(self, tracer=None) -> tuple[float, bool]:
        i = self.next
        self.next += 1
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = self.wl.op(i)
        except Exception:  # a failing op is counted, not fatal
            dt = time.perf_counter() - t0
            reason = traceback.format_exc()
        else:
            dt = time.perf_counter() - t0
            reason = None
        finally:
            if tracer is not None:
                tracer.op = None
        if reason is None:
            try:
                reason = self.wl.check(i, out)
            except Exception:
                reason = "check raised\n" + traceback.format_exc()
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if self.failed <= 3:
                print(f"op {i} failed: {reason}", file=sys.stderr)
        return dt, reason is None

    def timed(self, seconds: float) -> tuple[list[float], int]:
        """Run ops for ``seconds``; returns (op times, units done)."""
        times, units = [], 0
        deadline = time.perf_counter() + seconds
        while True:
            dt, ok = self.one()
            times.append(dt)
            units += self.wl.units if ok else 0
            if time.perf_counter() >= deadline:
                return times, units


def tail(times: list[float]):
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops
    beyond it, or None when there are too few ops."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(loop: Loop, seconds: float, setups: list[float]):
    times, units = loop.timed(seconds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "units_per_s": (units / sum(times), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    n = len(times)
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "op_p50_s": f"n={n} timed ops",
        "units_per_s": f"{loop.wl.unit}; {n} ops, {sum(times):.3f} s",
        "peak_rss_mib": "ru_maxrss of this process, n=1",
    }
    t = tail(times)
    if t:
        extra = [("op_tail_s", t[0], "s", f"p{t[1]:.2f} of n={n} ops")]
    else:
        extra = [("op_tail_s", "n/a", "s", f"needs more than {TAIL_BEYOND} timed ops, have {n}")]
    extra.append(("failed_frac", loop.failed / loop.attempted, "frac",
                  f"{loop.failed}/{loop.attempted} ops, warm-up included"))
    samples = {"setup_s": len(setups), "op_p50_s": n, "units_per_s": n, "peak_rss_mib": 1,
               "op_tail_s": n if t else 0, "failed_frac": loop.attempted}
    return metrics, notes, extra, samples


def per_layer(loop: Loop, seconds: float, span_file: Path):
    """Alternate blocks of untraced and traced ops for ``seconds``, so that
    both kinds see the same machine state, and aggregate the traced spans.
    A block runs ops for BLOCK_S or one op, whichever is longer, which keeps
    the install/uninstall swaps rare next to short ops."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced, ops = [], [], []
    rows = nbytes = 0
    deadline = time.perf_counter() + seconds
    while True:
        block_end = time.perf_counter() + BLOCK_S
        while True:
            plain.append(loop.one()[0])
            if time.perf_counter() >= block_end:
                break
        before = list(getattr(loop.wl, "written", (0, 0)))
        block_end = time.perf_counter() + BLOCK_S
        with tracer:
            while True:
                ops.append(loop.next)
                traced.append(loop.one(tracer)[0])
                if time.perf_counter() >= block_end:
                    break
        after = getattr(loop.wl, "written", (0, 0))
        rows += after[0] - before[0]
        nbytes += after[1] - before[1]
        if time.perf_counter() >= deadline:
            break
    metrics = layer_metrics(tracer.spans, ops)
    metrics["harness.rows_written"] = (rows / len(ops), "count")
    metrics["harness.bytes_written"] = (nbytes / len(ops), "bytes")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "frac")
    tracer.write(span_file)
    notes = {"trace.overhead_frac": f"traced p50 over untraced p50, n={len(traced)}/{len(plain)}"}
    samples = {"traced_ops": len(traced), "untraced_ops": len(plain), "spans": len(tracer.spans)}
    return metrics, notes, [], samples


def run(workload: str, seed: int, seconds: float, trace: bool, size: dict | None = None,
        setup_repeats: int = SETUP_REPEATS, out=sys.stdout) -> dict:
    """One benchmark run; prints report lines to ``out`` and returns the result."""
    sc = import_package()
    import workloads

    setups = None if trace else setup_seconds(workload, seed, setup_repeats)
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"work-{os.getpid()}"
    try:
        loop = Loop(workloads.make(workload, seed, workdir, size))
        loop.one()  # warm-up: checked, not timed
        if trace:
            span_file = RUN_DIR / f"spans-{workload}-seed{seed}.jsonl"
            metrics, notes, extra, samples = per_layer(loop, seconds, span_file)
        else:
            metrics, notes, extra, samples = end_to_end(loop, seconds, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# stratachern benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={int(trace)}", file=out)
    print("# env " + json.dumps(environment(sc, seed)), file=out)
    print("# samples " + json.dumps(samples), file=out)
    digest = getattr(loop.wl, "digest", None)
    if digest is not None:
        print(f"# panel sha256 digest {digest} (cli seed {loop.wl.cli_seed})", file=out)
    rows = [(name, v, unit, notes.get(name, "")) for name, (v, unit) in metrics.items()]
    for name, value, unit, note in rows + extra:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"# {name:40s} {shown:>14s} {unit:6s} {note}", file=out)
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def run_everything(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    code = 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT)
            code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them untraced and then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_everything(args.seed, args.seconds)
    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
