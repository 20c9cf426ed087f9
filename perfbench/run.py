"""Benchmark of the starmix CLI: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Workloads, metrics and units are declared in ``BENCHMARK.json``; this runner
reads them from there.  Each workload is a fixed list of ``starmix`` command
lines run in-process through ``starmix.cli.main`` with stdout captured; one
pass runs the whole list.  Set-up (importing ``starmix.cli`` in a fresh
interpreter, then writing the workload's spec files) is repeated
``SETUP_REPEATS`` times, each time next to a reference import of fixed
standard-library modules in another fresh interpreter.  ``setup_s`` is the
median set-up time scaled by ``REFERENCE_IMPORT_S`` over the median
reference import time, which cancels the host's minute-to-minute speed
drift.  Passes repeat until the next one would overrun ``--seconds`` (at
least ``MIN_PASSES``).

Every command's output is checked against the reference values in the
repository, and its bytes, with the manifest timing fields stripped, must
equal those of the same command in the first pass.  A nonzero exit, an
exception, a failed check or a byte difference fails that operation.

A fixed reference probe (``ReferenceProbe``) runs before each command and
after the last.  ``wall_ref`` sums, over a pass's commands, each command's
time divided by the mean probe time on either side of it, which cancels most
of the host's minute-to-minute speed drift.  The raw pass time ``wall_s`` is
printed but not gated.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then installs the span recorder of ``spans.py``
and runs traced passes for the other half; it reports the per-layer metrics
(medians over traced passes), checks that the exact counts agree between
traced passes, and writes the spans to ``.perfbench-out/``.  The BLAS thread
count is pinned before numpy loads.  Human-readable lines, including the
numeric environment, precede the final JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 13
MIN_PASSES = 2
IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
# Standard-library modules that starmix does not import, several of them
# with C extensions, as numpy has.  Their import time tracks the host's speed
# at process start-up and import, which is what set-up does.
REFERENCE_MODULES = (
    "decimal, fractions, email.parser, http.client, xml.etree.ElementTree, "
    "unittest, asyncio, logging, sqlite3, tarfile, zipfile, pydoc"
)
# Median reference import time on the host the bounds were set on (2-vCPU
# Xeon virtual machine, Python 3.11.7); scales ``setup_s`` back to seconds.
REFERENCE_IMPORT_S = 0.070


class ReferenceProbe:
    """Fixed work, timed between commands to track the host's speed.

    On a shared host the same pass can take 1.5x longer from one minute to
    the next, and CPU time grows with wall time, so neither cancels it.
    Dividing a pass's time by the probe's mean time around its commands
    cancels most of it.  The probe mixes the kinds of work the workloads do:
    interpreted Python, numpy calls on small arrays, column reductions over
    an array larger than L2, and LAPACK on small and medium matrices.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.random((200, 200))
        b = rng.random((40, 40))
        self._np = np
        self._symmetric = a + a.T
        self._spd = b @ b.T + 40.0 * np.eye(40)
        self._vector = np.zeros(50)
        self._columns = rng.random((20, 10_000))

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i % 7
        x = self._vector
        for _ in range(700):
            x = np.sin(x) + 1.0
        c = self._columns
        for _ in range(4):
            np.linalg.norm(c - c.mean(axis=0), axis=0)
        for _ in range(3):
            np.linalg.eigvalsh(self._symmetric)
        for _ in range(150):
            np.linalg.inv(self._spd)
        return time.perf_counter() - start


class Bench:
    """Runs passes over one workload's operations and scores their outputs."""

    def __init__(
        self, workload: str, ops: list[workloads.Operation], cli_main, probe: ReferenceProbe
    ) -> None:
        self.workload = workload
        self.ops = ops
        self.cli_main = cli_main
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.output_bytes = 0
        # Per pass: the sum over commands of each command's time divided by
        # the mean of the reference-probe times just before and after it.
        self.relative: list[float] = []
        self.probe_s: list[float] = []
        self._reference: list[str] | None = None

    def measured_pass(self, recorder: spans.SpanRecorder | None = None) -> float:
        """Run every operation once; return the summed command time in seconds."""
        results = []
        probes = [self.probe()]
        op_times = []
        for op in self.ops:
            out, err = io.StringIO(), io.StringIO()
            error = None
            rc = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if recorder is None:
                        rc = self.cli_main(list(op.argv))
                    else:
                        rc = recorder.span("cli.main", self.cli_main, list(op.argv))
            except Exception:  # a crashing command is one failed operation
                error = traceback.format_exc(limit=3)
            op_times.append(time.perf_counter() - start)
            results.append((rc, out.getvalue(), err.getvalue(), error))
            probes.append(self.probe())
        self.probe_s += probes
        self.relative.append(
            sum(t / (before + after) * 2.0 for t, before, after in zip(op_times, probes, probes[1:]))
        )
        self._score(results)
        return sum(op_times)

    def _score(self, results) -> None:
        stripped = [workloads.strip_timing(out) for _, out, _, _ in results]
        if self._reference is None:
            self._reference = stripped
        self.output_bytes = sum(len(text.encode()) for text in stripped)
        failed_before = self.failed
        for op, (rc, out, err, error), text, want in zip(
            self.ops, results, stripped, self._reference
        ):
            self.attempted += 1
            reason = error
            if reason is None and rc != 0:
                reason = f"exit code {rc}: {err.strip()[-300:]}"
            if reason is None:
                try:
                    reason = op.check(out)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason is None and text != want:
                reason = "output bytes differ from the first pass"
            if reason is not None:
                self.failed += 1
                self.reasons.append(f"{' '.join(op.argv)}: {reason}")
        if failed_before == self.failed:
            try:
                reason = workloads.check_pass(self.workload, [out for _, out, _, _ in results])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason is not None:
                # Counted against the pass's last operation.
                self.failed += 1
                self.reasons.append(f"pass: {reason}")


def timed_passes(budget_s: float, min_passes: int, one_pass) -> list[float]:
    """Wall times of passes, run until the next would overrun ``budget_s``."""
    walls: list[float] = []
    while len(walls) < min_passes or sum(walls) + statistics.median(walls) <= budget_s:
        walls.append(one_pass())
    return walls


def child_import_s(modules: str, env: dict) -> float:
    """Seconds a fresh interpreter takes to import ``modules``, timed inside it."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(modules)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(probe.stdout.split()[-1])


def measure_setup(workload: str, tmp: Path) -> tuple[list[float], list[float], Path]:
    """Set-up times (child-measured import plus spec generation), the
    reference import times taken next to them, and the spec dir."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    reference_env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    samples, reference = [], []
    for i in range(SETUP_REPEATS):
        import_s = child_import_s("starmix.cli", env)
        start = time.perf_counter()
        spec_dir = tmp / f"specs-{i}"
        workloads.write_specs(workload, spec_dir)
        samples.append(import_s + time.perf_counter() - start)
        reference.append(child_import_s(REFERENCE_MODULES, reference_env))
    return samples, reference, spec_dir


def probe_initial_states(run_trials, inputs) -> float:
    """Seconds ``run_trials`` takes with ``iterations=0`` on the recorded inputs."""
    from dataclasses import replace

    if not inputs:
        return 0.0
    start = time.perf_counter()
    for matrix, config in inputs:
        run_trials(matrix, replace(config, iterations=0))
    return time.perf_counter() - start


def environment() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        deps = {}

    def library(kind: str) -> str:
        info = deps.get(kind, {})
        return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    l3_file = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": library("blas"),
        "lapack": library("lapack"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "cpu": cpu,
        "l3": l3_file.read_text().strip() if l3_file.is_file() else "unknown",
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
        ),
    }


def write_spans(workload: str, seed: int, traced: list[list[spans.Span]]) -> Path:
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(["pass", "id", "parent", "name", "start", "end"]) + "\n")
        for number, pass_spans in enumerate(traced):
            for s in pass_spans:
                handle.write(json.dumps([number, s.id, s.parent, s.name, s.start, s.end]) + "\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "starmix" / "cli.py").is_file():
        print(f"perfbench: no starmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = workloads.load_references(ROOT)

    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup_samples, reference_samples, spec_dir = measure_setup(args.workload, Path(tmp))
        from starmix.cli import main as cli_main

        ops = workloads.operations(args.workload, spec_dir, args.seed, refs)
        bench = Bench(args.workload, ops, cli_main, ReferenceProbe())
        if args.trace:
            wanted = declared["per_layer"]
            untraced = timed_passes(args.seconds / 2, 1, bench.measured_pass)
            recorder = spans.SpanRecorder()
            per_pass, traced_spans = [], []

            def traced_pass() -> float:
                wall = bench.measured_pass(recorder)
                pass_spans, trial_inputs = recorder.take()
                init_s = probe_initial_states(recorder.originals["sim.run_trials"], trial_inputs)
                per_pass.append(spans.pass_metrics(pass_spans, bench.output_bytes, init_s))
                traced_spans.append(pass_spans)
                return wall

            recorder.install()
            try:
                traced = timed_passes(args.seconds / 2, MIN_PASSES, traced_pass)
            finally:
                recorder.uninstall()
            values = spans.median_metrics(per_pass)
            values["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
            drifting = [k for k in spans.EXACT_COUNTS if len({p[k] for p in per_pass}) != 1]
            bench.reasons += [f"count {k} differs between traced passes" for k in drifting]
            samples = f"median of {len(traced)} traced passes"
            span_file = write_spans(args.workload, args.seed, traced_spans)
        else:
            wanted = declared["end_to_end"]
            walls = timed_passes(args.seconds, MIN_PASSES, bench.measured_pass)
            drifting = []
            values = {
                "setup_s": statistics.median(setup_samples)
                * REFERENCE_IMPORT_S
                / statistics.median(reference_samples),
                "wall_ref": statistics.median(bench.relative),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }

    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(
            f"metrics computed {sorted(values)} do not match BENCHMARK.json {[m['name'] for m in wanted]}"
        )

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        print(f"spans written to {span_file.relative_to(ROOT)}")
        for m in wanted:
            note = samples
            if m["name"] in spans.COMPUTED:
                note += ", computed from arguments and results"
            if m["name"] in spans.RATIO_BASE:
                base = spans.RATIO_BASE[m["name"]]
                note += f", base {base} = {values[base]:g}"
            if m["name"] == "trace_overhead_s":
                note = (f"traced median {statistics.median(traced):.4f} s of {len(traced)} "
                        f"minus untraced median {statistics.median(untraced):.4f} s of {len(untraced)}")
            print(f"{m['name']:32s} {values[m['name']]:>14.6g} {m['unit']:12s} {note}")
    else:
        print(f"{'setup_s':14s} {values['setup_s']:>10.4f} s      median of {len(setup_samples)} set-ups, "
              f"raw {statistics.median(setup_samples):.4f} s scaled by {REFERENCE_IMPORT_S} s over "
              f"reference import median {statistics.median(reference_samples):.4f} s")
        print(f"{'wall_s':14s} {statistics.median(walls):>10.4f} s      median of {len(walls)} passes "
              f"(min {min(walls):.4f}, max {max(walls):.4f})")
        print(f"{'wall_ref':14s} {values['wall_ref']:>10.4f} ref    median of {len(walls)} passes; "
              f"probe median {statistics.median(bench.probe_s):.4f} s of {len(bench.probe_s)}")
        print(f"{'peak_rss_mib':14s} {values['peak_rss_mib']:>10.2f} MiB    peak of this process")
    print(f"{'fail_frac':14s} {bench.failed / bench.attempted:>10.4f} ratio  "
          f"{bench.failed} failed of {bench.attempted} operations")
    for reason in bench.reasons[:10]:
        print(f"perfbench: {reason}", file=sys.stderr)

    result = {
        "correct": bench.failed == 0 and not drifting,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
