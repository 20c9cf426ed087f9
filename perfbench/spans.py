"""Span recorder around starmix's public layer functions, and the per-layer metrics.

``SpanRecorder.install`` replaces each wrapped function at every name it is
bound to inside the ``starmix`` package (the CLI imports most of them by
name, and ``max_cores`` calls ``weights.solve_theta`` through its module
globals), so every call records one span: name, start, end and parent id.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import sys
import time
from typing import Any

# Layer -> public functions wrapped.  Calls into anything else count as the
# self time of the nearest wrapped caller (for the CLI, of the command).
WRAPPED = {
    "topology": ("build_network",),
    "weights": (
        "solve_theta",
        "max_cores",
        "optimal_weights",
        "metropolis_weights",
        "max_degree_weights",
        "best_constant_weights",
        "characteristic_det",
        "characteristic_det_reduced",
    ),
    "spectral": (
        "assemble_weight_matrix",
        "symmetric_eigenvalues",
        "slem",
        "spectral_report",
        "block_decomposition",
        "blocks_from_factors",
        "interlacing_check",
        "spectrum_union",
        "stationary_vector",
    ),
    "numopt": ("optimize_weights",),
    "sim": ("run_trials",),
}
LAYERS = ("topology", "weights", "spectral", "numopt", "sim", "cli")
BASELINES = ("weights.metropolis_weights", "weights.max_degree_weights", "weights.best_constant_weights")
EIG = ("spectral.symmetric_eigenvalues", "spectral.slem", "spectral.spectral_report")
BLOCKS = (
    "spectral.block_decomposition",
    "spectral.blocks_from_factors",
    "spectral.interlacing_check",
    "spectral.spectrum_union",
    "spectral.stationary_vector",
)

# Per-layer metrics that are exact counts: two traced passes must agree on them.
EXACT_COUNTS = (
    "topology.build.calls",
    "weights.solve_theta.calls",
    "weights.max_cores.calls",
    "weights.solves_per_max_cores",
    "spectral.assemble.calls",
    "spectral.eig.calls",
    "spectral.eig_n3",
    "spectral.matrix_bytes",
    "numopt.optimize.calls",
    "numopt.newton_steps",
    "numopt.unconverged",
    "sim.run_trials.calls",
    "sim.trial_steps",
    "sim.matmul_flops",
    "cli.output_bytes",
)
# Counts computed from call arguments and results rather than measured.
COMPUTED = ("spectral.eig_n3", "spectral.matrix_bytes", "sim.matmul_flops")
# Ratio metric -> the count it is taken over.
RATIO_BASE = {
    "weights.solves_per_max_cores": "weights.max_cores.calls",
    "numopt.s_per_newton_step": "numopt.newton_steps",
    "numopt.unconverged": "numopt.optimize.calls",
}


@dataclasses.dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _info(name: str, args: tuple, result: Any) -> Any:
    """Sizes taken from a call's arguments and result for the computed counts."""
    if name == "spectral.symmetric_eigenvalues":
        return len(args[0])
    if name == "spectral.assemble_weight_matrix":
        return result.nbytes
    if name == "numopt.optimize_weights":
        return (result.iterations, result.converged, result.certified_gap)
    if name == "sim.run_trials":
        return (len(args[0]), args[1])
    return None


def _positional(fn, args: tuple, kwargs: dict) -> tuple:
    """The call's arguments, keyword ones moved into positional order."""
    if not kwargs:
        return args
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return tuple(bound.arguments.values())


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple[Any, str, Any]] = []
        self.originals: dict[str, Any] = {}
        # (matrix, config) of each run_trials call, for the initial-state probe.
        self.trial_inputs: list[tuple[Any, Any]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            info = None
            if result is not None:
                args = _positional(fn, args, kwargs)
                info = _info(name, args, result)
                if name == "sim.run_trials":
                    self.trial_inputs.append((args[0], args[1]))
            self.spans.append(Span(sid, parent, name, start, end, info))

    def install(self) -> None:
        import starmix

        modules = [m for key, m in sys.modules.items() if key == "starmix" or key.startswith("starmix.")]
        wrappers = {}
        for layer, names in WRAPPED.items():
            module = getattr(starmix, layer)
            for fname in names:
                original = getattr(module, fname)
                span_name = f"{layer}.{fname}"
                self.originals[span_name] = original

                @functools.wraps(original)
                def wrapper(*args, _fn=original, _name=span_name, **kwargs):
                    return self.span(_name, _fn, *args, **kwargs)

                wrappers[id(original)] = wrapper
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def take(self) -> tuple[list[Span], list[tuple[Any, Any]]]:
        """Spans and run_trials inputs recorded since the last call."""
        spans, self.spans = self.spans, []
        inputs, self.trial_inputs = self.trial_inputs, []
        return spans, inputs


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def pass_metrics(spans: list[Span], output_bytes: int, init_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``init_s`` is the time the public ``run_trials`` took with ``iterations=0``
    on the same inputs as each recorded call, measured after the pass.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    self_time = {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}
    names = {s.id: s.name for s in spans}

    def of(*wanted: str) -> list[Span]:
        return [s for s in spans if s.name in wanted]

    def self_s(*wanted: str) -> float:
        return sum(self_time[s.id] for s in of(*wanted))

    solves = of("weights.solve_theta")
    max_cores_calls = len(of("weights.max_cores"))
    nested_solves = sum(1 for s in solves if names.get(s.parent) == "weights.max_cores")
    eig_dims = [s.info for s in of("spectral.symmetric_eigenvalues") if s.info is not None]
    optimized = [s.info for s in of("numopt.optimize_weights") if s.info is not None]
    newton_steps = sum(info[0] for info in optimized)
    trials = [s.info for s in of("sim.run_trials") if s.info is not None]
    trial_steps = sum(cfg.trials * cfg.iterations for _, cfg in trials)
    run_trials_self = self_s("sim.run_trials")

    metrics = {
        "topology.build.calls": len(of("topology.build_network")),
        "topology.build.self_s": self_s("topology.build_network"),
        "weights.solve_theta.calls": len(solves),
        "weights.solve_theta.self_s": self_s("weights.solve_theta"),
        "weights.solve_theta.p50_us": 1e6 * _percentile([s.duration for s in solves], 50),
        "weights.solve_theta.p90_us": 1e6 * _percentile([s.duration for s in solves], 90),
        "weights.max_cores.calls": max_cores_calls,
        "weights.solves_per_max_cores": nested_solves / max_cores_calls if max_cores_calls else 0.0,
        "weights.baselines.self_s": self_s(*BASELINES),
        "spectral.assemble.calls": len(of("spectral.assemble_weight_matrix")),
        "spectral.assemble.self_s": self_s("spectral.assemble_weight_matrix"),
        "spectral.eig.calls": len(eig_dims),
        "spectral.eig.self_s": self_s(*EIG),
        "spectral.blocks.self_s": self_s(*BLOCKS),
        "spectral.eig_n3": sum(n**3 for n in eig_dims),
        "spectral.matrix_bytes": sum(s.info for s in of("spectral.assemble_weight_matrix") if s.info),
        "numopt.optimize.calls": len(optimized),
        "numopt.optimize.self_s": self_s("numopt.optimize_weights"),
        "numopt.newton_steps": newton_steps,
        "numopt.s_per_newton_step": self_s("numopt.optimize_weights") / newton_steps if newton_steps else 0.0,
        "numopt.unconverged": sum(1 for info in optimized if not info[1]),
        "numopt.certified_gap_max": max((info[2] for info in optimized), default=0.0),
        "sim.run_trials.calls": len(trials),
        "sim.run_trials.self_s": run_trials_self,
        "sim.init_s": init_s,
        "sim.step_s": run_trials_self - init_s,
        "sim.trial_steps": trial_steps,
        "sim.matmul_flops": sum(2 * n**2 * cfg.trials * cfg.iterations for n, cfg in trials),
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            self_time[s.id] for s in spans if s.name.split(".", 1)[0] == layer
        )
    return metrics


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
