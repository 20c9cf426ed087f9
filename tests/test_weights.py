import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import branch_specs, make_random_spec
from dense_oracles import grid_theta
from starmix import (
    BranchSpec,
    EvaluationError,
    StratifiedWeights,
    build_network,
    best_constant_alpha,
    best_constant_weights,
    block_spectrum,
    characteristic_det,
    characteristic_det_reduced,
    core_replica_eigenvalue,
    max_cores,
    max_degree_weights,
    metropolis_weights,
    optimal_weights,
    solve_theta,
)

THREE_PATH = BranchSpec(lengths=(1,), counts=(2,), cores=1)


def assemble(network, weights):
    """Local assembly oracle, independent of the spectral module."""
    n = network.node_count
    matrix = np.zeros((n, n))
    for stratum in network.strata:
        w = weights.strata[stratum.branch_type - 1][stratum.position - 1]
        for u, v in stratum.edges:
            matrix[u, v] = matrix[v, u] = w
    np.fill_diagonal(matrix, 1.0 - matrix.sum(axis=1))
    return matrix


@st.composite
def long_branch_specs(draw):
    """One to three branch types with lengths 7..5000, where theta is small."""
    lengths = sorted(draw(st.sets(st.integers(7, 5000), min_size=1, max_size=3)))
    size = len(lengths)
    counts = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    return BranchSpec(tuple(lengths), tuple(counts), draw(st.integers(1, 4)))


def root_gap(spec, theta):
    """``sum_p (n_p / 2K) tan(m_p theta) tan(theta/2) - 1``, evaluated independently."""
    terms = (n * math.tan(m * theta) for m, n in zip(spec.lengths, spec.counts))
    return math.fsum(terms) * math.tan(theta / 2) / (2 * spec.cores) - 1.0


def modulus(matrix):
    evals = np.sort(np.linalg.eigvalsh(matrix))
    return max(evals[-2], -evals[0])


class TestCharacteristicDet:
    def test_three_path_root_at_pi_over_three(self):
        assert characteristic_det(THREE_PATH, math.pi / 3) == pytest.approx(0.0, abs=1e-12)
        assert characteristic_det_reduced(THREE_PATH, math.pi / 3) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_two_type_det_matches_coupling_product(self):
        spec = BranchSpec(lengths=(1, 3), counts=(2, 4), cores=1)
        for theta in (0.2, 0.4, 0.7):
            half = math.cos(theta / 2) / math.sin(theta / 2)
            c = [
                (2.0 / n) * (math.cos(m * theta) / math.sin(m * theta)) * half
                for m, n in zip(spec.lengths, spec.counts)
            ]
            expected = (c[0] - 1.0) * (c[1] - 1.0) - 1.0
            assert characteristic_det(spec, theta) == pytest.approx(expected, rel=1e-12)

    def test_divergence_toward_zero(self):
        spec = BranchSpec(lengths=(2, 3), counts=(1, 2), cores=1)
        assert characteristic_det(spec, 1e-4) > 1e6

    def test_pole_and_domain_rejection(self):
        spec = BranchSpec(lengths=(2,), counts=(3,), cores=1)
        with pytest.raises(EvaluationError):
            characteristic_det(spec, math.pi / 2 + 1e-13)
        for theta in (-0.1, 0.0, math.pi, 4.0):
            with pytest.raises(ValueError):
                characteristic_det(spec, theta)

    @pytest.mark.parametrize("trial", range(20))
    def test_determinant_lemma_identity(self, trial):
        rng = np.random.default_rng(1000 + trial)
        spec = make_random_spec(rng, cores=int(rng.integers(1, 4)))
        probes = 0
        for theta in np.linspace(0.03, math.pi - 0.03, 80):
            try:
                direct = characteristic_det(spec, float(theta), pole_tol=1e-6)
                reduced = characteristic_det_reduced(spec, float(theta), pole_tol=1e-6)
            except EvaluationError:
                continue
            probes += 1
            assert direct == pytest.approx(reduced, rel=1e-10, abs=1e-10)
        assert probes > 20


class TestSolveTheta:
    def test_three_path_closed_form(self):
        solution = solve_theta(THREE_PATH)
        assert solution.theta == pytest.approx(math.pi / 3, abs=1e-12)
        assert solution.slem == pytest.approx(0.5, abs=1e-12)
        # Independent spectral check on the assembled matrix.
        network = build_network(THREE_PATH)
        matrix = assemble(network, optimal_weights(THREE_PATH, solution))
        assert modulus(matrix) == pytest.approx(solution.slem, abs=1e-12)

    @pytest.mark.parametrize(
        "lengths, counts, expected",
        [
            ((1, 2, 3), (4, 3, 2), 0.9213),
            ((3, 2, 1), (1, 2, 3), 0.8990),
        ],
    )
    def test_reference_rates(self, lengths, counts, expected):
        assert solve_theta(BranchSpec(lengths, counts, 1)).slem == pytest.approx(
            expected, abs=1e-4
        )

    @pytest.mark.parametrize("trial", range(15))
    def test_residual_certificate(self, trial):
        rng = np.random.default_rng(2000 + trial)
        spec = make_random_spec(rng, cores=int(rng.integers(1, 6)))
        solution = solve_theta(spec)
        assert 0.0 < solution.theta < math.pi
        assert 0.0 <= solution.slem < 1.0
        assert solution.residual_relative <= 1e-12
        assert solution.bracket[0] <= solution.theta <= solution.bracket[1]

    @settings(deadline=None, max_examples=150)
    @given(spec=st.one_of(branch_specs(), long_branch_specs()))
    def test_root_on_the_pole_free_bracket(self, spec):
        solution = solve_theta(spec)
        theta = solution.theta
        ulp = math.ulp(theta)
        assert 0.0 < theta < math.pi / (2 * max(spec.lengths))
        lo, hi = solution.bracket
        assert lo <= theta <= hi and hi - lo <= ulp
        # The gap rises through zero at theta, resolved to a few ulps.
        assert root_gap(spec, theta - 4 * ulp) < 0.0 < root_gap(spec, theta + 4 * ulp)
        if max(spec.lengths) <= 6:
            assert theta == pytest.approx(grid_theta(spec), rel=1e-13)
        if spec.branch_types == 1:
            # Cosine form (n - 2K) cos((m - 1/2) t) = (n + 2K) cos((m + 1/2) t),
            # whose Newton correction at theta must be within a few ulps.
            (m,), (n,), k = spec.lengths, spec.counts, spec.cores
            gap = (n - 2 * k) * math.cos((m - 0.5) * theta) - (n + 2 * k) * math.cos(
                (m + 0.5) * theta
            )
            slope = (n + 2 * k) * (m + 0.5) * math.sin((m + 0.5) * theta) - (
                n - 2 * k
            ) * (m - 0.5) * math.sin((m - 0.5) * theta)
            assert abs(gap) <= 4 * ulp * abs(slope)
            # The cosine form makes the head weight 2 / (n + 2K) for every m;
            # theta's rounding alone moves it by about m * 3e-16 relative.
            head = optimal_weights(spec, solution).strata[0][0]
            assert head == pytest.approx(2 / (n + 2 * k), rel=2e-15 * m)

    def test_residual_is_computed_on_first_access(self, monkeypatch):
        import starmix.weights as weights_module

        def untouchable(*args, **kwargs):
            raise AssertionError("the solve evaluated the determinant")

        monkeypatch.setattr(weights_module, "characteristic_det", untouchable)
        solution = solve_theta(BranchSpec((1, 2, 3), (4, 3, 2), 1))
        max_cores(BranchSpec((3, 2, 1), (1, 2, 3), 1))
        with pytest.raises(AssertionError):
            solution.residual_relative
        monkeypatch.undo()
        assert solution.residual_relative <= 1e-12

    @pytest.mark.parametrize("trial", range(10))
    def test_single_type_reduced_condition(self, trial):
        rng = np.random.default_rng(3000 + trial)
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 6))
        theta = solve_theta(BranchSpec((m,), (n,), 1)).theta
        gap = (n - 2) * math.cos((m - 0.5) * theta) - (n + 2) * math.cos((m + 0.5) * theta)
        assert abs(gap) <= 1e-10

    @pytest.mark.parametrize("trial", range(10))
    def test_two_type_reduced_condition(self, trial):
        rng = np.random.default_rng(4000 + trial)
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
        assert abs((c[0] - 1.0) * (c[1] - 1.0) - 1.0) <= 1e-10


class TestOptimalWeights:
    def test_three_path_weight(self):
        weights = optimal_weights(THREE_PATH)
        assert weights.strata == ((pytest.approx(0.5, abs=1e-12),),)

    def test_unit_length_head_weight_reduction(self):
        # For a length-1 branch the ratio collapses and w1 = (1 - cos theta) / K.
        spec = BranchSpec(lengths=(1, 3), counts=(2, 2), cores=2)
        solution = solve_theta(spec)
        weights = optimal_weights(spec, solution)
        assert weights.strata[0][0] == pytest.approx(
            (1.0 - solution.slem) / spec.cores, rel=1e-12
        )

    @pytest.mark.parametrize("trial", range(10))
    def test_interior_weights_are_half_and_in_range(self, trial):
        rng = np.random.default_rng(5000 + trial)
        spec = make_random_spec(rng, cores=int(rng.integers(1, 4)))
        weights = optimal_weights(spec)
        for row in weights.strata:
            assert all(0.0 < w < 1.0 for w in row)
            assert all(w == 0.5 for w in row[1:])

    @pytest.mark.parametrize("m", [50, 200, 1000])
    def test_long_branch_weights_tie_the_moduli(self, m):
        # At the optimum lambda_2 = -lambda_min = cos(theta).  The bound is
        # relative to the spectral gap 1 - lambda_2, which is about 1.2e-6
        # at m = 1000.
        spec = BranchSpec((m,), (3,), 1)
        solution = solve_theta(spec)
        evals = block_spectrum(spec, optimal_weights(spec, solution))
        lam2, lam_min = float(evals[1]), float(evals[-1])
        assert abs(lam2 + lam_min) <= 1e-7 * (1.0 - lam2)
        assert lam2 == pytest.approx(solution.slem, abs=1e-7 * (1.0 - lam2))

    @pytest.mark.parametrize("trial", range(10))
    def test_longer_branches_get_larger_head_weights(self, trial):
        rng = np.random.default_rng(6000 + trial)
        spec = make_random_spec(rng, max_types=4, cores=1)
        weights = optimal_weights(spec)
        heads = [row[0] for row in weights.strata]
        for (m_p, w_p), (m_q, w_q) in zip(
            zip(spec.lengths, heads), list(zip(spec.lengths, heads))[1:]
        ):
            assert (m_p < m_q) == (w_p < w_q)

    def test_joint_permutation_invariance(self):
        spec = BranchSpec(lengths=(1, 2, 3), counts=(4, 3, 2), cores=1)
        permuted = BranchSpec(lengths=(3, 1, 2), counts=(2, 4, 3), cores=1)
        by_length = dict(zip(spec.lengths, (row[0] for row in optimal_weights(spec).strata)))
        by_length_perm = dict(
            zip(permuted.lengths, (row[0] for row in optimal_weights(permuted).strata))
        )
        for m in spec.lengths:
            assert by_length[m] == pytest.approx(by_length_perm[m], rel=1e-12)


class TestBaselineSchemes:
    def test_metropolis_three_path(self):
        network = build_network(THREE_PATH)
        weights = metropolis_weights(network)
        assert weights.strata == ((pytest.approx(1.0 / 3.0),),)
        assert modulus(assemble(network, weights)) == pytest.approx(2.0 / 3.0, abs=1e-12)

    @settings(deadline=None)
    @given(spec=branch_specs())
    def test_entries_match_edge_formulas(self, spec):
        network = build_network(spec)
        deg = network.degrees
        alpha = best_constant_alpha(network)
        definitions = {
            metropolis_weights: lambda u, v: 1.0 / (1.0 + max(deg[u], deg[v])),
            max_degree_weights: lambda u, v: 1.0 / max(deg),
            best_constant_weights: lambda u, v: alpha,
        }
        for scheme, definition in definitions.items():
            matrix = assemble(network, scheme(network))
            for u, v in network.edges:
                assert matrix[u, v] == matrix[v, u] == definition(u, v)

    def test_max_degree_three_path(self):
        network = build_network(THREE_PATH)
        weights = max_degree_weights(network)
        assert weights.strata == ((pytest.approx(0.5),),)
        assert modulus(assemble(network, weights)) == pytest.approx(0.5, abs=1e-12)

    def test_max_degree_single_edge_corner_reported_as_is(self):
        network = build_network(BranchSpec(lengths=(1,), counts=(1,), cores=1))
        weights = max_degree_weights(network)
        assert weights.strata[0][0] == 1.0

    def test_best_constant_three_path(self):
        network = build_network(THREE_PATH)
        # Path Laplacian spectrum {0, 1, 3} pins alpha* = 2 / (3 + 1).
        assert best_constant_alpha(network) == pytest.approx(0.5, rel=1e-12)
        matrix = assemble(network, best_constant_weights(network))
        evals = np.sort(np.linalg.eigvalsh(matrix))
        assert evals[-2] == pytest.approx(-evals[0], abs=1e-12)

    @settings(deadline=None)
    @given(spec=branch_specs())
    def test_best_constant_alpha_matches_dense_laplacian(self, spec):
        network = build_network(spec)
        adj = network.adjacency()
        evals = np.linalg.eigvalsh(np.diag(adj.sum(axis=1)) - adj)
        dense = 2.0 / (evals[-1] + evals[1])
        assert best_constant_alpha(network) == pytest.approx(dense, rel=1e-12)

    def test_row_stochastic_all_schemes(self):
        spec = BranchSpec(lengths=(1, 2, 3), counts=(4, 3, 2), cores=1)
        network = build_network(spec)
        for scheme in (metropolis_weights, max_degree_weights, best_constant_weights):
            matrix = assemble(network, scheme(network))
            assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) <= 1e-12
            assert np.array_equal(matrix, matrix.T)


class TestMaxCores:
    @pytest.mark.parametrize(
        "lengths, counts, expected",
        [
            ((3, 2, 1), (1, 2, 3), 15),
            ((3, 2, 1), (1, 3, 2), 16),
        ],
    )
    def test_reference_values(self, lengths, counts, expected):
        assert max_cores(BranchSpec(lengths, counts, 1)) == expected

    def test_boundary_condition(self):
        spec = BranchSpec(lengths=(3, 2, 1), counts=(1, 2, 3), cores=1)
        limit = max_cores(spec)

        def replica_margin(cores):
            candidate = BranchSpec(spec.lengths, spec.counts, cores)
            solution = solve_theta(candidate)
            weights = optimal_weights(candidate, solution)
            return core_replica_eigenvalue(candidate, weights) - solution.slem

        assert replica_margin(limit) < 0.0
        assert replica_margin(limit + 1) >= 0.0


class TestMonotonicity:
    @pytest.mark.parametrize(
        "smaller, larger",
        [
            (((3, 2, 1), (2, 2, 2)), ((4, 2, 1), (2, 2, 2))),
            (((3, 2, 1), (2, 2, 2)), ((3, 2, 1), (3, 2, 2))),
            (((2, 1), (1, 1)), ((2, 1), (1, 2))),
        ],
    )
    def test_growing_the_network_slows_convergence(self, smaller, larger):
        small = solve_theta(BranchSpec(*smaller, cores=1)).slem
        large = solve_theta(BranchSpec(*larger, cores=1)).slem
        assert large > small


class TestStratifiedWeightsType:
    def test_requires_exactly_one_representation(self):
        with pytest.raises(TypeError):
            StratifiedWeights(scheme="x")

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.1])
    def test_range_validation(self, bad):
        with pytest.raises(ValueError):
            StratifiedWeights(scheme="x", strata=((bad,),))
