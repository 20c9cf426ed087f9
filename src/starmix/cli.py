"""Command-line front end: weight computation, spectra, sweeps, simulation.

Every command reads the topology JSON schema {"m": [...], "n": [...], "K": int}
and emits JSON or RFC-4180 CSV with numbers at 12 significant digits.  File
outputs get a sibling ``<name>.manifest.json`` recording the command, inputs,
version, seed and timing; JSON sent to stdout embeds the same manifest.

Exit codes: 0 success, 1 usage or parse error, 2 numerical failure,
3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .numopt import _flatten, optimize_weights
from .sim import ConvergenceTrace, SimulationConfig, run_trials
from .spectral import (
    block_decomposition,
    block_slem,
    block_spectrum,
    blocks_from_factors,
    edge_form,
    interlacing_check,
    spectrum_union,
    stationary_vector,
    union_count_check,
)
from .topology import BranchSpec, StarNetwork, build_network
from .weights import (
    EvaluationError,
    SolverError,
    StratifiedWeights,
    ThetaSolution,
    best_constant_weights,
    characteristic_det,
    characteristic_det_reduced,
    max_cores,
    max_degree_weights,
    metropolis_weights,
    optimal_weights,
    solve_theta,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

SCHEMES = ("optimal", "metropolis", "max_degree", "best_constant")

# Reference 9 x 6 benchmark grid of branch lengths (rows) and counts (columns).
GRID_LENGTHS = (
    (3, 2, 1),
    (4, 2, 1),
    (4, 3, 1),
    (4, 3, 2),
    (5, 3, 1),
    (5, 3, 2),
    (5, 4, 1),
    (5, 4, 2),
    (5, 4, 3),
)
GRID_COUNTS = (
    (1, 2, 3),
    (3, 2, 1),
    (3, 1, 2),
    (1, 3, 2),
    (2, 3, 1),
    (2, 1, 3),
)


def _sig12(value: float) -> float:
    return float(f"{value:.12g}")


def _rounded(obj):
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return "" if value is None else str(value)


def _load_spec(path: str) -> BranchSpec:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return BranchSpec.from_dict(data)


def _manifest(command: str, arguments: dict, started: float, seed=None) -> dict:
    return {
        "command": command,
        "arguments": arguments,
        "version": __version__,
        "seed": seed,
        "started_utc": datetime.datetime.fromtimestamp(
            started, datetime.timezone.utc
        ).isoformat(),
        "elapsed_seconds": _sig12(time.time() - started),
    }


def _write_csv(rows: list[dict], header: list[str], out: str | None) -> None:
    handle = open(out, "w", newline="", encoding="utf-8") if out else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in header])
    finally:
        if out:
            handle.close()


def _emit(
    document: dict,
    rows: list[dict],
    header: list[str],
    fmt: str,
    out: str | None,
    manifest: dict,
) -> None:
    """Write the command result plus its manifest.

    JSON carries the full document; CSV carries the tabular rows.  With
    ``--out`` the manifest lands in a sibling file, otherwise it is embedded
    (JSON) or skipped (CSV to stdout).
    """
    if out:
        manifest = dict(manifest, outputs=[out])
        with open(out + ".manifest.json", "w", encoding="utf-8") as handle:
            json.dump(_rounded(manifest), handle, indent=2)
            handle.write("\n")
    if fmt == "json":
        payload = _rounded(document)
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
        else:
            payload["manifest"] = _rounded(manifest)
            json.dump(payload, sys.stdout, indent=2)
            sys.stdout.write("\n")
    else:
        _write_csv(rows, header, out)


def scheme_weights(
    network: StarNetwork, scheme: str
) -> tuple[StratifiedWeights, ThetaSolution | None]:
    """Weights of one scheme on a network; also the theta solution for "optimal"."""
    if scheme == "optimal":
        solution = solve_theta(network.spec)
        return optimal_weights(network.spec, solution), solution
    if scheme == "metropolis":
        return metropolis_weights(network), None
    if scheme == "max_degree":
        return max_degree_weights(network), None
    if scheme == "best_constant":
        return best_constant_weights(network), None
    raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")


def compute_scheme(spec: BranchSpec, scheme: str) -> dict:
    """Weights, SLEM and metadata for one scheme on one topology.

    The optimal scheme's weights are written per stratum; the baselines'
    are expanded to one ``[u, v, w]`` entry per edge, in edge order.
    """
    network = build_network(spec)
    weights, solution = scheme_weights(network, scheme)
    if solution is not None:
        table = {"strata": [list(row) for row in weights.strata]}
    else:
        table = {
            "edges": [
                [u, v, weights.strata[stratum.branch_type - 1][stratum.position - 1]]
                for stratum in network.strata
                for u, v in stratum.edges
            ]
        }
    return {
        "spec": spec.to_dict(),
        "scheme": scheme,
        "slem": block_slem(spec, weights),
        "theta": None if solution is None else solution.theta,
        "weights": table,
        "metadata": {
            "node_count": spec.node_count,
            "edge_count": spec.edge_count,
            "counts_below_two": any(n < 2 for n in spec.counts),
        },
    }


def load_weights_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fold_edges(network: StarNetwork, entries) -> tuple[tuple[float, ...], ...]:
    """Stratum form of an ``[[u, v, w], ...]`` table that covers the network's edges."""
    if not isinstance(entries, list):
        raise ValueError(f"weights document 'edges' {entries!r} is not a list")
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and all(map(_is_number, entry))):
            raise ValueError(f"edge entry {entry!r} is not three numbers [u, v, w]")
    table = {(int(u), int(v)): float(w) for u, v, w in entries}
    rows: list[list[float]] = [[] for _ in range(network.spec.branch_types)]
    for stratum in network.strata:
        values = set()
        for edge in stratum.edges:
            if edge not in table:
                raise ValueError(f"weights document has no entry for edge {edge}")
            values.add(table.pop(edge))
        if len(values) != 1:
            raise ValueError(
                f"stratum ({stratum.branch_type}, {stratum.position}) has unequal "
                f"edge weights {sorted(values)}"
            )
        rows[stratum.branch_type - 1].append(values.pop())
    if table:
        raise ValueError(
            f"weights document names edges not in the network: {sorted(table)}"
        )
    return tuple(tuple(row) for row in rows)


def weights_from_document(document: dict, network: StarNetwork) -> StratifiedWeights:
    """Stratified weights of a ``slem`` document, ``"strata"`` or ``"edges"`` form.

    An ``"edges"`` table must list every edge of ``network`` once, nothing
    else, with equal weights across each stratum.  A document that is not
    shaped so (not a JSON object, an edge entry that is not three numbers,
    a strata row that is not a list of numbers) raises ``ValueError``
    naming the entry.
    """
    if not isinstance(document, dict):
        raise ValueError(f"weights document is a {type(document).__name__}, not a JSON object")
    scheme = document.get("scheme", "loaded")
    table = document.get("weights", {})
    if not isinstance(table, dict):
        raise ValueError(f"weights document 'weights' {table!r} is not a JSON object")
    if table.get("strata") is not None:
        rows = table["strata"]
        if not isinstance(rows, list):
            raise ValueError(f"weights document 'strata' {rows!r} is not a list")
        for row in rows:
            if not (isinstance(row, list) and all(map(_is_number, row))):
                raise ValueError(f"strata row {row!r} is not a list of numbers")
        strata = tuple(tuple(row) for row in rows)
    elif table.get("edges") is not None:
        strata = _fold_edges(network, table["edges"])
    else:
        raise ValueError("weights document carries neither strata nor edges")
    return StratifiedWeights(scheme=scheme, strata=strata)


def _weight_row(spec: BranchSpec, result: dict) -> dict:
    if "strata" in result["weights"]:
        packed = " ".join(
            f"{p + 1}:{i + 1}:{w:.12g}"
            for p, row in enumerate(result["weights"]["strata"])
            for i, w in enumerate(row)
        )
    else:
        packed = " ".join(
            f"{u}-{v}:{w:.12g}" for u, v, w in result["weights"]["edges"]
        )
    return {
        "m": " ".join(map(str, spec.lengths)),
        "n": " ".join(map(str, spec.counts)),
        "K": spec.cores,
        "scheme": result["scheme"],
        "slem": result["slem"],
        "theta": result["theta"],
        "weights": packed,
    }


def cmd_slem(args) -> int:
    started = time.time()
    spec = _load_spec(args.spec)
    result = compute_scheme(spec, args.scheme)
    manifest = _manifest("slem", {"spec": args.spec, "scheme": args.scheme}, started)
    _emit(
        result,
        [_weight_row(spec, result)],
        ["m", "n", "K", "scheme", "slem", "theta", "weights"],
        args.format,
        args.out,
        manifest,
    )
    return EXIT_OK


def grid_slem_rows() -> list[dict]:
    rows = []
    for lengths in GRID_LENGTHS:
        for counts in GRID_COUNTS:
            spec = BranchSpec(lengths, counts, 1)
            rows.append(
                {
                    "m": " ".join(map(str, lengths)),
                    "n": " ".join(map(str, counts)),
                    "slem": solve_theta(spec).slem,
                }
            )
    return rows


def cmd_slem_grid(args) -> int:
    started = time.time()
    rows = grid_slem_rows()
    document = {"grid": rows, "scheme": "optimal"}
    manifest = _manifest("slem-grid", {}, started)
    _emit(document, rows, ["m", "n", "slem"], args.format, args.out, manifest)
    return EXIT_OK


def grid_kmax_rows() -> list[dict]:
    rows = []
    for lengths in GRID_LENGTHS:
        for counts in GRID_COUNTS:
            spec = BranchSpec(lengths, counts, 1)
            rows.append(
                {
                    "m": " ".join(map(str, lengths)),
                    "n": " ".join(map(str, counts)),
                    "k_max": max_cores(spec),
                }
            )
    return rows


def cmd_kmax(args) -> int:
    started = time.time()
    if args.grid:
        rows = grid_kmax_rows()
        document = {"grid": rows}
    else:
        if not args.spec:
            raise ValueError("kmax needs --spec or --grid")
        spec = _load_spec(args.spec)
        rows = [
            {
                "m": " ".join(map(str, spec.lengths)),
                "n": " ".join(map(str, spec.counts)),
                "k_max": max_cores(spec),
            }
        ]
        document = {"spec": spec.to_dict(), "k_max": rows[0]["k_max"]}
    manifest = _manifest("kmax", {"spec": args.spec, "grid": args.grid}, started)
    _emit(document, rows, ["m", "n", "k_max"], args.format, args.out, manifest)
    return EXIT_OK


def sweep_rows(spec: BranchSpec, k_min: int, k_max_swept: int) -> tuple[list[dict], int]:
    """Per-core-count SLEM columns: closed form, formula-weight spectrum, optimizer.

    ``slem_closed_form`` is cos(theta), reported only while the closed form
    is valid.  ``slem_formula_weights`` evaluates the closed-form weights on
    the symmetry blocks for every K (past the validity bound the core-replica
    eigenvalue takes over, which is what turns the published curve upward).
    ``slem_numeric`` is the certified optimizer value.
    """
    limit = max_cores(spec)
    rows = []
    for k in range(k_min, k_max_swept + 1):
        candidate = BranchSpec(spec.lengths, spec.counts, k)
        solution = solve_theta(candidate)
        formula = optimal_weights(candidate, solution)
        numeric = optimize_weights(build_network(candidate))
        rows.append(
            {
                "K": k,
                "slem_closed_form": solution.slem if k <= limit else None,
                "slem_formula_weights": block_slem(candidate, formula),
                "slem_numeric": numeric.slem,
                "numeric_converged": numeric.converged,
                "certified_gap": numeric.certified_gap,
            }
        )
    return rows, limit


def cmd_sweep_k(args) -> int:
    started = time.time()
    if args.k_min < 1 or args.k_max < args.k_min:
        raise ValueError(f"bad sweep range [{args.k_min}, {args.k_max}]")
    if args.k_max > 500:
        raise ValueError("sweep range capped at 500 cores")
    spec = _load_spec(args.spec)
    rows, limit = sweep_rows(spec, args.k_min, args.k_max)
    document = {"spec": spec.to_dict(), "k_max": limit, "sweep": rows}
    manifest = _manifest(
        "sweep-k",
        {"spec": args.spec, "k_min": args.k_min, "k_max": args.k_max},
        started,
    )
    _emit(
        document,
        rows,
        [
            "K",
            "slem_closed_form",
            "slem_formula_weights",
            "slem_numeric",
            "numeric_converged",
            "certified_gap",
        ],
        args.format,
        args.out,
        manifest,
    )
    return EXIT_OK


def _fitted_decay(trace: ConvergenceTrace) -> float | None:
    """Fitted decay rate of a trace, or None when it cannot be fitted.

    A trace that reaches exact consensus, or has no iterations, keeps fewer
    than two points above the noise floor.
    """
    try:
        return trace.fitted_decay_rate()
    except ValueError:
        return None


def cmd_simulate(args) -> int:
    started = time.time()
    spec = _load_spec(args.spec)
    network = build_network(spec)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    config = SimulationConfig(
        trials=args.trials, iterations=args.iterations, seed=args.seed
    )
    traces = {}
    slems = {}
    for scheme in schemes:
        weights = scheme_weights(network, scheme)[0]
        slems[scheme] = block_slem(spec, weights)
        if slems[scheme] >= 1.0:
            print(
                f"warning: scheme {scheme} has SLEM {slems[scheme]:.6f} >= 1; "
                "the iteration will not converge",
                file=sys.stderr,
            )
        traces[scheme] = run_trials(edge_form(network, weights), config)

    rows = []
    for t in range(config.iterations + 1):
        row = {"iteration": t}
        for scheme in schemes:
            row[scheme] = traces[scheme].errors[t]
        rows.append(row)
    document = {
        "spec": spec.to_dict(),
        "config": {
            "trials": config.trials,
            "iterations": config.iterations,
            "seed": config.seed,
        },
        "slem": slems,
        # Only JSON carries the fit; CSV writes the traces alone.
        "fitted_decay": {
            scheme: _fitted_decay(traces[scheme]) for scheme in schemes
        }
        if args.format == "json"
        else None,
        "traces": {scheme: list(traces[scheme].errors) for scheme in schemes},
    }
    manifest = _manifest(
        "simulate",
        {
            "spec": args.spec,
            "schemes": schemes,
            "trials": args.trials,
            "iterations": args.iterations,
        },
        started,
        seed=args.seed,
    )
    _emit(document, rows, ["iteration", *schemes], args.format, args.out, manifest)
    return EXIT_OK


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def _skip(name: str, reason: str) -> dict:
    return {"name": name, "status": "skip", "detail": reason}


def run_validation(
    spec: BranchSpec,
    weights_document: dict | None = None,
    *,
    skip_optimizer: bool = False,
    seed: int = 0,
) -> list[dict]:
    """Invariant suite for one topology; returns one record per check."""
    rng = np.random.default_rng(seed)
    network = build_network(spec)
    checks: list[dict] = []

    # Convergence conditions for every scheme, on the edge form: W is
    # symmetric (x.Wy == y.Wx on two fixed vectors), row-stochastic (W1 == 1),
    # and non-zero only on the diagonal and the network's edges.
    built = {scheme: scheme_weights(network, scheme) for scheme in SCHEMES}
    optimal, solution = built["optimal"]
    edges = set(network.edges)
    vectors = np.random.default_rng(0).random((2, network.node_count))
    for scheme, (weights, _) in built.items():
        form = edge_form(network, weights)
        evals = block_spectrum(spec, weights)
        scheme_slem = float(max(evals[1], -evals[-1]))
        image = form.apply(vectors.T)
        sym_ok = bool(
            abs(vectors[0] @ image[:, 1] - vectors[1] @ image[:, 0])
            <= 1e-12 * network.node_count
        )
        row_sums = form.apply(np.ones(network.node_count))
        rows_ok = bool(np.max(np.abs(row_sums - 1.0)) <= 1e-12)
        sparsity_ok = form.pairs() <= edges
        top_ok = bool(abs(evals[0] - 1.0) <= 1e-10 and evals[1] < 1.0 - 1e-12)
        slem_ok = bool(scheme_slem < 1.0)
        checks.append(
            _check(
                f"conditions[{scheme}]",
                sym_ok and rows_ok and sparsity_ok and top_ok and slem_ok,
                f"symmetric={sym_ok} stochastic={rows_ok} sparsity={sparsity_ok} "
                f"top_simple={top_ok} slem={scheme_slem:.6f}",
            )
        )

    # Characteristic-root residual, with the direct determinant as referee.
    checks.append(
        _check(
            "root_residual",
            solution.residual_relative <= 1e-12,
            f"theta={solution.theta:.12g} relative_residual={solution.residual_relative:.3e}",
        )
    )

    # Reduced root conditions for one- and two-type specs (single core).
    if spec.cores == 1 and spec.branch_types == 1:
        m, n = spec.lengths[0], spec.counts[0]
        theta = solution.theta
        gap = (n - 2) * math.cos((m - 0.5) * theta) - (n + 2) * math.cos(
            (m + 0.5) * theta
        )
        checks.append(
            _check("reduced_condition", abs(gap) <= 1e-10, f"residual={abs(gap):.3e}")
        )
    elif spec.cores == 1 and spec.branch_types == 2:
        theta = solution.theta
        half = math.cos(theta / 2.0) / math.sin(theta / 2.0)
        c = [
            (2.0 / n) * (math.cos(m * theta) / math.sin(m * theta)) * half
            for m, n in zip(spec.lengths, spec.counts)
        ]
        gap = (c[0] - 1.0) * (c[1] - 1.0) - 1.0
        checks.append(
            _check("reduced_condition", abs(gap) <= 1e-10, f"residual={abs(gap):.3e}")
        )
    else:
        checks.append(
            _skip("reduced_condition", "defined for single-core specs with 1 or 2 branch types")
        )

    # Direct vs rank-one-reduced determinant on a pole-free grid.
    probes = 0
    worst = 0.0
    for theta in np.linspace(0.05, math.pi - 0.05, 60):
        try:
            direct = characteristic_det(spec, float(theta), pole_tol=1e-6)
            reduced = characteristic_det_reduced(spec, float(theta), pole_tol=1e-6)
        except EvaluationError:
            continue
        probes += 1
        worst = max(worst, abs(direct - reduced) / max(1.0, abs(direct)))
    checks.append(
        _check(
            "determinant_identity",
            probes >= 10 and worst <= 1e-10,
            f"probes={probes} worst_relative={worst:.3e}",
        )
    )

    decomp = block_decomposition(spec, optimal)
    windows = 0
    worst_count = 0
    first_bad = None
    for _ in range(5):
        rows = tuple(
            tuple(rng.uniform(0.05, 0.95) for _ in range(m)) for m in spec.lengths
        )
        sample = StratifiedWeights(scheme="random", strata=rows)
        union = spectrum_union(block_decomposition(spec, sample))
        counted = union_count_check(edge_form(network, sample), union, tol=1e-8)
        windows += counted.windows
        worst_count = max(worst_count, counted.worst_error)
        first_bad = first_bad or counted.first_bad
    detail = f"samples=5 windows={windows} worst_count_error={worst_count}"
    if first_bad is not None:
        lo, hi, got, want = first_bad
        detail += f" first_bad=[{lo:.12g}, {hi:.12g}] counted={got} predicted={want}"
    checks.append(_check("spectrum_union", worst_count == 0, detail))

    if spec.cores != 1:
        checks.append(_skip("interlacing", "moduli tie proven for one core"))
    elif all(n >= 2 for n in spec.counts):
        report = interlacing_check(decomp)
        checks.append(
            _check(
                "interlacing",
                report.ok and report.moduli_spread <= 1e-8,
                f"violations={len(report.violations)} "
                f"moduli_spread={report.moduli_spread:.3e}",
            )
        )
    else:
        checks.append(_skip("interlacing", "branch counts >= 2 required"))

    rows = tuple(tuple(rng.uniform(0.05, 0.95) for _ in range(m)) for m in spec.lengths)
    sample = StratifiedWeights(scheme="random", strata=rows)
    sample_decomp = block_decomposition(spec, sample)
    reduced, core = blocks_from_factors(spec, sample)
    recon_gap = max(
        float(np.max(np.abs(reduced - sample_decomp.reduced_block))),
        float(np.max(np.abs(core - sample_decomp.core_block))),
    )
    checks.append(
        _check(
            "rank_one_reconstruction",
            recon_gap <= 1e-12,
            f"entrywise_gap={recon_gap:.3e}",
        )
    )

    v = stationary_vector(spec)
    v_gap = float(np.linalg.norm(decomp.core_block @ v - v))
    checks.append(_check("stationary_vector", v_gap <= 1e-10, f"gap={v_gap:.3e}"))

    if skip_optimizer:
        checks.append(_skip("oracle_equivalence", "disabled by --skip-optimizer"))
    else:
        limit = max_cores(spec)
        if spec.cores <= limit:
            numeric = optimize_weights(network)
            slem_gap = abs(numeric.slem - solution.slem)
            detail = f"slem_gap={slem_gap:.3e} certified_gap={numeric.certified_gap:.3e}"
            ok = slem_gap <= 1e-3 and numeric.converged
            if all(n >= 2 for n in spec.counts) and spec.cores < limit:
                weight_gap = float(
                    np.max(np.abs(_flatten(numeric.weights) - _flatten(optimal)))
                )
                ok = ok and weight_gap <= 5e-3
                detail += f" weight_gap={weight_gap:.3e}"
            checks.append(_check("oracle_equivalence", ok, detail))
        else:
            checks.append(
                _skip(
                    "oracle_equivalence",
                    f"cores {spec.cores} beyond closed-form validity bound {limit}",
                )
            )

    if weights_document is not None:
        try:
            loaded = weights_from_document(weights_document, network)
            recomputed = block_slem(spec, loaded)
            stored = weights_document["slem"]
            if not _is_number(stored):
                raise ValueError(f"weights document 'slem' {stored!r} is not a number")
            ok = abs(recomputed - stored) <= 1e-10
            checks.append(
                _check(
                    "weights_roundtrip",
                    ok,
                    f"stored={stored:.12g} recomputed={recomputed:.12g}",
                )
            )
        except (ValueError, KeyError) as exc:
            checks.append(_check("weights_roundtrip", False, str(exc)))

    return checks


def cmd_validate(args) -> int:
    started = time.time()
    spec = _load_spec(args.spec)
    weights_document = load_weights_document(args.weights) if args.weights else None
    checks = run_validation(
        spec,
        weights_document,
        skip_optimizer=args.skip_optimizer,
        seed=args.seed,
    )
    failed = [c for c in checks if c["status"] == "fail"]
    document = {
        "spec": spec.to_dict(),
        "checks": checks,
        "passed": not failed,
    }
    manifest = _manifest(
        "validate", {"spec": args.spec, "weights": args.weights}, started, seed=args.seed
    )
    _emit(
        document,
        checks,
        ["name", "status", "detail"],
        args.format,
        args.out,
        manifest,
    )
    return EXIT_OK if not failed else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="starmix",
        description="Averaging-weight optimization and convergence analysis "
        "for star-of-paths networks.",
    )
    parser.add_argument("--version", action="version", version=f"starmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("slem", help="weights and SLEM for one topology and scheme")
    p.add_argument("--spec", required=True, help="topology JSON file")
    p.add_argument("--scheme", choices=SCHEMES, default="optimal")
    add_output_flags(p)
    p.set_defaults(func=cmd_slem)

    p = sub.add_parser("slem-grid", help="optimal SLEM over the 9x6 benchmark grid")
    add_output_flags(p)
    p.set_defaults(func=cmd_slem_grid)

    p = sub.add_parser("kmax", help="largest core count keeping the closed form valid")
    p.add_argument("--spec", default=None, help="topology JSON file")
    p.add_argument("--grid", action="store_true", help="emit the full 9x6 grid")
    add_output_flags(p)
    p.set_defaults(func=cmd_kmax)

    p = sub.add_parser("sweep-k", help="SLEM versus core count")
    p.add_argument("--spec", required=True, help="topology JSON file")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("simulate", help="averaging-iteration error traces per scheme")
    p.add_argument("--spec", required=True, help="topology JSON file")
    p.add_argument("--schemes", default=",".join(SCHEMES))
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="run the invariant suite on a topology")
    p.add_argument("--spec", required=True, help="topology JSON file")
    p.add_argument("--weights", default=None, help="weights JSON emitted by slem")
    p.add_argument("--skip-optimizer", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"starmix: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, EvaluationError, np.linalg.LinAlgError) as exc:
        print(f"starmix: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
