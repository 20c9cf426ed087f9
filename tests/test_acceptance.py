"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single PASS/FAIL line with
its measured numbers (run with ``pytest -v -s`` to see them inline).
Reference values are frozen at the published 4-decimal precision.
"""

import time

import numpy as np

from conftest import make_random_spec, random_strata
from starmix import (
    BranchSpec,
    StratifiedWeights,
    build_network,
    best_constant_weights,
    max_cores,
    max_degree_weights,
    metropolis_weights,
    optimal_weights,
    solve_theta,
)
from starmix.cli import GRID_COUNTS, GRID_LENGTHS, compute_scheme, grid_kmax_rows, grid_slem_rows
from starmix.numopt import _flatten, optimize_weights
from starmix.sim import SimulationConfig, run_trials
from starmix.spectral import (
    assemble_weight_matrix,
    block_decomposition,
    blocks_from_factors,
    edge_form,
    interlacing_check,
    slem,
    spectrum_union,
    symmetric_eigenvalues,
)

COMPARISON_SPEC = BranchSpec(lengths=(1, 2, 3), counts=(4, 3, 2), cores=1)
TWO_CORE_FAMILY = BranchSpec(lengths=(2, 3, 4), counts=(3, 2, 2), cores=1)

# Reference optimal-rate grid, rows = GRID_LENGTHS, columns = GRID_COUNTS.
EXPECTED_SLEM_GRID = (
    (0.8990, 0.9223, 0.9200, 0.9025, 0.9157, 0.9102),
    (0.9352, 0.9483, 0.9477, 0.9358, 0.9434, 0.9421),
    (0.9378, 0.9505, 0.9488, 0.9401, 0.9472, 0.9433),
    (0.9402, 0.9512, 0.9501, 0.9418, 0.9479, 0.9454),
    (0.9569, 0.9645, 0.9639, 0.9574, 0.9617, 0.9606),
    (0.9575, 0.9647, 0.9644, 0.9578, 0.9620, 0.9613),
    (0.9582, 0.9657, 0.9645, 0.9596, 0.9638, 0.9612),
    (0.9589, 0.9659, 0.9650, 0.9602, 0.9641, 0.9619),
    (0.9602, 0.9663, 0.9657, 0.9611, 0.9644, 0.9630),
)

# Reference core-capacity grid, same layout.
EXPECTED_CORE_CAPACITY_GRID = (
    (15, 27, 25, 16, 22, 19),
    (20, 43, 42, 21, 33, 30),
    (24, 47, 44, 27, 39, 32),
    (28, 49, 47, 30, 40, 36),
    (30, 68, 65, 33, 52, 46),
    (33, 69, 68, 35, 53, 50),
    (36, 74, 68, 42, 61, 49),
    (39, 75, 71, 44, 62, 53),
    (44, 77, 74, 47, 64, 57),
)

# Reference scheme comparison on COMPARISON_SPEC.
EXPECTED_SCHEME_SLEM = {
    "optimal": (0.9213, 1e-4),
    "metropolis": (0.9718, 1e-4),
    "max_degree": (0.9780, 1e-4),
    "best_constant": (0.9614, 1e-3),
}

ORACLE_SPECS = (
    BranchSpec((1,), (2,), 1),
    BranchSpec((1, 2), (2, 3), 1),
    BranchSpec((1, 2, 3), (4, 3, 2), 1),
    BranchSpec((3, 2, 1), (2, 2, 3), 1),
    BranchSpec((2, 4), (3, 2), 1),
    BranchSpec((1, 3), (2, 2), 1),
    BranchSpec((1, 2), (2, 3), 2),
    BranchSpec((1, 2, 3), (4, 3, 2), 3),
    BranchSpec((2, 3, 4), (3, 2, 2), 2),
    BranchSpec((1, 2), (3, 2), 4),
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def grid_spec(row: int, col: int) -> BranchSpec:
    return BranchSpec(GRID_LENGTHS[row], GRID_COUNTS[col], 1)


def test_criterion_1_optimal_rate_grid():
    started = time.perf_counter()
    rows = grid_slem_rows()
    worst = 0.0
    for idx, row in enumerate(rows):
        r, c = divmod(idx, len(GRID_COUNTS))
        worst = max(worst, abs(row["slem"] - EXPECTED_SLEM_GRID[r][c]))
    elapsed = time.perf_counter() - started
    report(
        1,
        "optimal rate over the 9x6 grid",
        worst <= 1e-4 and elapsed < 5.0,
        f"54 entries, max deviation {worst:.2e}, {elapsed:.2f} s (budget 5 s)",
    )


def test_criterion_2_scheme_comparison():
    started = time.perf_counter()
    gaps = {}
    ok = True
    for scheme, (expected, tolerance) in EXPECTED_SCHEME_SLEM.items():
        got = compute_scheme(COMPARISON_SPEC, scheme)["slem"]
        gaps[scheme] = abs(got - expected)
        ok = ok and gaps[scheme] <= tolerance
    elapsed = time.perf_counter() - started
    detail = " ".join(f"{s}:{g:.1e}" for s, g in gaps.items())
    report(
        2,
        "four-scheme comparison",
        ok and elapsed < 1.0,
        f"deviations {detail}, {elapsed:.2f} s (budget 1 s)",
    )


def test_criterion_3_core_capacity_grid():
    started = time.perf_counter()
    rows = grid_kmax_rows()
    mismatches = []
    for idx, row in enumerate(rows):
        r, c = divmod(idx, len(GRID_COUNTS))
        if row["k_max"] != EXPECTED_CORE_CAPACITY_GRID[r][c]:
            mismatches.append((GRID_LENGTHS[r], GRID_COUNTS[c], row["k_max"]))
    elapsed = time.perf_counter() - started
    report(
        3,
        "core-capacity grid, signed strict convention",
        not mismatches and elapsed < 60.0,
        f"54 cells exact, mismatches={mismatches}, {elapsed:.2f} s (budget 60 s)",
    )


def test_criterion_4_reduced_root_conditions():
    import math

    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(20):
        if trial % 2 == 0:
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 6))
            spec = BranchSpec((m,), (n,), 1)
            theta = solve_theta(spec).theta
            gap = abs(
                (n - 2) * math.cos((m - 0.5) * theta)
                - (n + 2) * math.cos((m + 0.5) * theta)
            )
        else:
            lengths = tuple(
                int(v) for v in sorted(rng.choice(np.arange(1, 7), size=2, replace=False))
            )
            counts = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            spec = BranchSpec(lengths, counts, 1)
            theta = solve_theta(spec).theta
            half = math.cos(theta / 2) / math.sin(theta / 2)
            c = [
                (2.0 / n) * (math.cos(m * theta) / math.sin(m * theta)) * half
                for m, n in zip(lengths, counts)
            ]
            gap = abs((c[0] - 1.0) * (c[1] - 1.0) - 1.0)
        worst = max(worst, gap)
    report(
        4,
        "one- and two-type root-condition reductions",
        worst <= 1e-10,
        f"20 random specs, worst residual {worst:.2e} (tolerance 1e-10)",
    )


def test_criterion_5_spectrum_union():
    rng = np.random.default_rng(505)
    worst = 0.0
    checked = 0
    specs = [grid_spec(r, c) for r in range(9) for c in range(6)]
    specs += [make_random_spec(rng, min_count=2) for _ in range(10)]
    for spec in specs:
        network = build_network(spec)
        for _ in range(20):
            weights = StratifiedWeights(scheme="random", strata=random_strata(rng, spec))
            full = symmetric_eigenvalues(assemble_weight_matrix(network, weights))
            union = spectrum_union(block_decomposition(spec, weights))
            worst = max(worst, float(np.max(np.abs(full - union))))
            checked += 1
    report(
        5,
        "block-spectrum union equals full spectrum",
        worst <= 1e-8,
        f"{len(specs)} specs x 20 random draws ({checked} comparisons), worst gap {worst:.2e}",
    )


def test_criterion_6_interlacing_and_equal_moduli():
    rng = np.random.default_rng(606)
    # Signed three-way tie at the optimum needs at least two branch types.
    tie_specs = [COMPARISON_SPEC]
    while len(tie_specs) < 11:
        spec = make_random_spec(rng, min_count=2)
        if spec.branch_types >= 2:
            tie_specs.append(spec)
    worst_tie = 0.0
    for spec in tie_specs:
        solution = solve_theta(spec)
        decomp = block_decomposition(spec, optimal_weights(spec, solution))
        rep = interlacing_check(decomp)
        assert rep.ok, rep.violations
        worst_tie = max(
            worst_tie,
            abs(rep.reduced_top - solution.slem),
            abs(rep.core_second - solution.slem),
            abs(-rep.core_lowest - solution.slem),
        )

    worst_violation = 0.0
    for _ in range(20):
        spec = make_random_spec(rng, min_count=2)
        weights = StratifiedWeights(scheme="random", strata=random_strata(rng, spec))
        rep = interlacing_check(block_decomposition(spec, weights))
        if not rep.ok:
            worst_violation = max(worst_violation, max(g for _, g in rep.violations))
    report(
        6,
        "three-way eigenvalue tie and interlacing",
        worst_tie <= 1e-8 and worst_violation == 0.0,
        f"tie spread {worst_tie:.2e} over {len(tie_specs)} specs (tolerance 1e-8); "
        f"interlacing violations {worst_violation:.1e} over 20 random-weight draws",
    )


def test_criterion_7_rank_one_reconstruction():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(10):
        spec = make_random_spec(rng)
        weights = StratifiedWeights(scheme="random", strata=random_strata(rng, spec))
        decomp = block_decomposition(spec, weights)
        reduced, core = blocks_from_factors(spec, weights)
        worst = max(
            worst,
            float(np.max(np.abs(reduced - decomp.reduced_block))),
            float(np.max(np.abs(core - decomp.core_block))),
        )
    report(
        7,
        "rank-one factor reconstruction",
        worst <= 1e-12,
        f"10 random specs, arbitrary weights, worst entry gap {worst:.2e}",
    )


def test_criterion_8_oracle_equivalence_and_core_sweep():
    started = time.perf_counter()

    worst_slem = 0.0
    worst_weight = 0.0
    for spec in ORACLE_SPECS:
        limit = max_cores(spec)
        assert spec.cores < limit or spec.cores == 1, (spec, limit)
        network = build_network(spec)
        solution = solve_theta(spec)
        reference = optimal_weights(spec, solution)
        result = optimize_weights(network)
        assert result.converged, spec
        worst_slem = max(worst_slem, abs(result.slem - solution.slem))
        worst_weight = max(
            worst_weight,
            float(np.max(np.abs(_flatten(result.weights) - _flatten(reference)))),
        )
    equivalence_ok = worst_slem <= 1e-3 and worst_weight <= 5e-3

    # Sweep the two-core demo family around its validity bound.
    limit = max_cores(TWO_CORE_FAMILY)
    window = [1] + list(range(limit - 3, limit + 4))
    closed = {}
    formula_slem = {}
    numeric = {}
    for k in window:
        spec = BranchSpec(TWO_CORE_FAMILY.lengths, TWO_CORE_FAMILY.counts, k)
        network = build_network(spec)
        solution = solve_theta(spec)
        weights = optimal_weights(spec, solution)
        formula_slem[k] = slem(assemble_weight_matrix(network, weights))
        if k <= limit:
            closed[k] = solution.slem
        result = optimize_weights(network)
        numeric[k] = result.slem

    closed_matches = max(abs(closed[k] - numeric[k]) for k in closed)
    # Published-curve shape: the formula-weight rate bottoms out exactly at
    # the validity bound and rises beyond it.
    sweep_min_at_limit = min(formula_slem, key=formula_slem.get) == limit
    rising_after = all(
        formula_slem[k + 1] > formula_slem[k] for k in range(limit, limit + 3)
    )
    falling_before = all(
        closed[k + 1] < closed[k] for k in range(limit - 3, limit)
    )
    # The certified optimizer can only do at least as well as the formula
    # weights; past the bound it keeps improving, which is why the published
    # upturn belongs to the formula-weight curve (see decisions ledger).
    numeric_bounded = all(numeric[k] <= formula_slem[k] + 1e-6 for k in window)
    numeric_keeps_falling = all(
        numeric[k + 1] < numeric[k] for k in range(limit, limit + 3)
    )
    print(
        f"[acceptance] note: certified optimum continues to decrease past the "
        f"validity bound (K={limit}): "
        + " ".join(f"{k}:{numeric[k]:.8f}" for k in range(limit, limit + 4))
    )

    elapsed = time.perf_counter() - started
    report(
        8,
        "optimizer equivalence and core-count sweep",
        equivalence_ok
        and closed_matches <= 1e-3
        and sweep_min_at_limit
        and rising_after
        and falling_before
        and numeric_bounded
        and numeric_keeps_falling
        and elapsed < 600.0,
        f"{len(ORACLE_SPECS)} specs: slem gap {worst_slem:.2e} (<=1e-3), weight gap "
        f"{worst_weight:.2e} (<=5e-3); sweep: closed-vs-numeric {closed_matches:.2e}, "
        f"formula-weight minimum at K={limit}, rising after; {elapsed:.1f} s (budget 600 s)",
    )


def test_criterion_9_simulation_rate_law():
    started = time.perf_counter()
    network = build_network(COMPARISON_SPEC)
    config = SimulationConfig(trials=1000, iterations=500, seed=909)
    builders = {
        "optimal": lambda: optimal_weights(COMPARISON_SPEC),
        "metropolis": lambda: metropolis_weights(network),
        "max_degree": lambda: max_degree_weights(network),
        "best_constant": lambda: best_constant_weights(network),
    }
    slopes = {}
    traces = {}
    ok = True
    for scheme, builder in builders.items():
        weights = builder()
        rate = slem(assemble_weight_matrix(network, weights))
        trace = run_trials(edge_form(network, weights), config)
        traces[scheme] = np.array(trace.errors)
        fitted = trace.fitted_decay_rate()
        rel = abs(np.log(fitted) - np.log(rate)) / abs(np.log(rate))
        slopes[scheme] = rel
        ok = ok and rel <= 0.02

    optimal_trace = traces["optimal"]
    ordering_ok = all(
        bool(np.all(optimal_trace[100:] <= traces[s][100:] + 1e-15))
        for s in builders
        if s != "optimal"
    )
    elapsed = time.perf_counter() - started
    detail = " ".join(f"{s}:{r:.3%}" for s, r in slopes.items())
    report(
        9,
        "simulation rate law and ordering",
        ok and ordering_ok and elapsed < 120.0,
        f"slope errors {detail} (<=2%); optimal lowest for t>=100: {ordering_ok}; "
        f"{elapsed:.1f} s (budget 120 s)",
    )


def test_criterion_10_convergence_conditions():
    rng = np.random.default_rng(1010)
    corpus = []
    for r in range(9):
        for c in range(6):
            corpus.append((grid_spec(r, c), ("optimal",)))
    corpus.append((COMPARISON_SPEC, ("optimal", "metropolis", "max_degree", "best_constant")))
    for _ in range(10):
        spec = make_random_spec(rng)
        cores = int(rng.integers(1, 4))
        if cores > 1:
            cores = min(cores, max_cores(spec))
        spec = BranchSpec(spec.lengths, spec.counts, cores)
        corpus.append((spec, ("optimal", "metropolis", "max_degree", "best_constant")))

    checked = 0
    failures = []
    for spec, schemes in corpus:
        network = build_network(spec)
        for scheme in schemes:
            if scheme == "optimal":
                weights = optimal_weights(spec)
            elif scheme == "metropolis":
                weights = metropolis_weights(network)
            elif scheme == "max_degree":
                weights = max_degree_weights(network)
            else:
                weights = best_constant_weights(network)
            matrix = assemble_weight_matrix(network, weights)
            evals = symmetric_eigenvalues(matrix)
            checked += 1
            if not (
                np.array_equal(matrix, matrix.T)
                and np.max(np.abs(matrix.sum(axis=1) - 1.0)) <= 1e-12
                and abs(evals[0] - 1.0) <= 1e-10
                and evals[1] < 1.0 - 1e-12
                and max(evals[1], -evals[-1]) < 1.0
            ):
                failures.append((spec.to_dict(), scheme))
    report(
        10,
        "convergence conditions across the corpus",
        not failures,
        f"{checked} weight matrices: symmetric, row-stochastic, top eigenvalue 1 "
        f"simple, modulus < 1; failures={failures}",
    )
