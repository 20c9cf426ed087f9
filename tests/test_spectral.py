import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import branch_specs, make_random_spec, random_strata, specs_with_weights
from starmix import (
    BranchSpec,
    EvaluationError,
    SolverError,
    StratifiedWeights,
    best_constant_weights,
    build_network,
    max_cores,
    max_degree_weights,
    metropolis_weights,
    optimal_weights,
    solve_theta,
)
from starmix.spectral import (
    assemble_weight_matrix,
    block_decomposition,
    block_slem,
    block_spectrum,
    blocks_from_factors,
    count_below,
    edge_form,
    incidence_factors,
    interlacing_check,
    slem,
    spectral_report,
    spectrum_union,
    stationary_vector,
    symmetric_eigenvalues,
    union_count_check,
)

THREE_PATH = BranchSpec(lengths=(1,), counts=(2,), cores=1)
COMPARISON_SPEC = BranchSpec(lengths=(1, 2, 3), counts=(4, 3, 2), cores=1)


class TestAssembly:
    def test_three_path_exact_entries(self):
        network = build_network(THREE_PATH)
        matrix = assemble_weight_matrix(network, optimal_weights(THREE_PATH))
        # Core first, then the two tips.
        expected = np.array([[0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]])
        assert np.allclose(matrix, expected, atol=1e-15)

    @pytest.mark.parametrize("trial", range(10))
    def test_row_stochastic_and_sparsity(self, trial):
        rng = np.random.default_rng(10 + trial)
        spec = make_random_spec(rng, cores=int(rng.integers(1, 4)))
        network = build_network(spec)
        weights = StratifiedWeights(scheme="random", strata=random_strata(rng, spec))
        matrix = assemble_weight_matrix(network, weights)
        assert np.array_equal(matrix, matrix.T)
        assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) <= 1e-12
        allowed = network.adjacency() + np.eye(network.node_count)
        assert np.all((matrix == 0.0) | (allowed > 0.0))

    def test_strata_shape_mismatch_rejected(self):
        network = build_network(COMPARISON_SPEC)
        wrong = StratifiedWeights(scheme="x", strata=((0.5,), (0.5,), (0.5,)))
        with pytest.raises(ValueError):
            assemble_weight_matrix(network, wrong)


class TestEdgeForm:
    @settings(deadline=None)
    @given(case=specs_with_weights())
    def test_holds_the_dense_matrix(self, case):
        spec, weights = case
        network = build_network(spec)
        form = edge_form(network, weights)
        matrix = assemble_weight_matrix(network, weights)
        upper = np.diag(matrix, 1).copy()
        upper[: spec.cores] = 0.0
        assert np.max(np.abs(form.band[:, 1] - np.diag(matrix))) <= 1e-14
        chain = np.where(np.diag(matrix, 1) > 0, upper, 0.0)
        assert np.array_equal(form.band[:-1, 2], chain)
        assert np.array_equal(form.band[1:, 0], chain)
        assert form.band[0, 0] == form.band[-1, 2] == 0.0
        assert form.pairs() == set(network.edges)
        for heads, w in zip(form.head_slices, form.head_weights):
            assert np.all(matrix[: spec.cores, heads] == w)


class TestInertiaCount:
    @settings(deadline=None)
    @given(case=specs_with_weights(), probes=st.lists(st.floats(-1.5, 1.5), max_size=8))
    def test_matches_dense_count(self, case, probes):
        spec, weights = case
        network = build_network(spec)
        evals = np.linalg.eigvalsh(assemble_weight_matrix(network, weights))
        # A probe within rounding of an eigenvalue has no well-defined count.
        x = np.array([p for p in probes if np.min(np.abs(evals - p)) > 1e-9])
        dense = np.count_nonzero(evals[None, :] < x[:, None], axis=1)
        assert np.array_equal(count_below(edge_form(network, weights), x), dense)

    @settings(deadline=None)
    @given(case=specs_with_weights(), data=st.data())
    def test_union_check_passes_and_catches_a_shift(self, case, data):
        spec, weights = case
        form = edge_form(build_network(spec), weights)
        union = spectrum_union(block_decomposition(spec, weights))
        report = union_count_check(form, union)
        assert report.ok and report.first_bad is None
        assert 1 <= report.windows <= len(union)
        shifted = union.copy()
        index = data.draw(st.integers(0, len(union) - 1))
        shifted[index] += data.draw(st.sampled_from([1e-6, -1e-6]))
        bad = union_count_check(form, shifted)
        assert not bad.ok and bad.worst_error >= 1
        lo, hi, counted, predicted = bad.first_bad
        assert lo < hi and counted != predicted

    def test_first_bad_window_names_the_shift(self):
        spec = BranchSpec(lengths=(1,), counts=(2,), cores=1)
        form = edge_form(build_network(spec), optimal_weights(spec))
        report = union_count_check(form, [1.0, 0.5, -0.5 + 1e-6])
        assert report.windows == 3 and report.worst_error == 1
        lo, hi, counted, predicted = report.first_bad
        assert lo == pytest.approx(-0.5 + 1e-6 - 1e-8) and hi == pytest.approx(-0.5 + 1e-6 + 1e-8)
        assert (counted, predicted) == (0, 1)

    def test_union_of_wrong_size_rejected(self):
        form = edge_form(build_network(THREE_PATH), optimal_weights(THREE_PATH))
        with pytest.raises(ValueError):
            union_count_check(form, [1.0, 0.5])


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(symmetric_eigenvalues(np.eye(4)), np.ones(4))

    def test_three_path_spectrum(self):
        network = build_network(THREE_PATH)
        matrix = assemble_weight_matrix(network, optimal_weights(THREE_PATH))
        assert np.allclose(symmetric_eigenvalues(matrix), [1.0, 0.5, -0.5], atol=1e-12)

    def test_swap_matrix(self):
        assert np.allclose(
            symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [1.0, -1.0]
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.zeros((2, 3)))

    def test_slem_values(self):
        network = build_network(THREE_PATH)
        assert slem(
            assemble_weight_matrix(network, optimal_weights(THREE_PATH))
        ) == pytest.approx(0.5, abs=1e-12)
        big = BranchSpec(lengths=(5, 4, 3), counts=(1, 2, 3), cores=1)
        matrix = assemble_weight_matrix(build_network(big), optimal_weights(big))
        assert slem(matrix) == pytest.approx(0.9602, abs=1e-4)
        comparison = build_network(COMPARISON_SPEC)
        metro = assemble_weight_matrix(comparison, metropolis_weights(comparison))
        assert slem(metro) == pytest.approx(0.9718, abs=1e-4)

    def test_spectral_report(self):
        network = build_network(THREE_PATH)
        report = spectral_report(
            assemble_weight_matrix(network, optimal_weights(THREE_PATH))
        )
        assert report.top == pytest.approx(1.0, abs=1e-12)
        assert report.slem == pytest.approx(0.5, abs=1e-12)
        assert report.slem_multiplicity == 2


class TestBlockDecomposition:
    def test_three_path_blocks(self):
        decomp = block_decomposition(THREE_PATH, optimal_weights(THREE_PATH))
        assert np.allclose(decomp.branch_blocks[0], [[0.5]])
        root_half = np.sqrt(2.0) / 2.0
        assert np.allclose(
            decomp.core_block, [[0.0, root_half], [root_half, 0.5]], atol=1e-15
        )
        assert np.allclose(decomp.reduced_block, [[0.5]])

    @pytest.mark.parametrize("trial", range(10))
    def test_reduced_block_is_core_minor(self, trial):
        rng = np.random.default_rng(40 + trial)
        spec = make_random_spec(rng)
        weights = StratifiedWeights(scheme="random", strata=random_strata(rng, spec))
        decomp = block_decomposition(spec, weights)
        assert np.array_equal(decomp.reduced_block, decomp.core_block[1:, 1:])

    def test_two_core_three_path_blocks(self):
        # Cores 0 and 1 both join tips 2 and 3, all weights 1/4.
        spec = BranchSpec(lengths=(1,), counts=(2,), cores=2)
        weights = StratifiedWeights(scheme="x", strata=((0.25,),))
        decomp = block_decomposition(spec, weights)
        assert np.allclose(decomp.branch_blocks[0], [[0.5]])
        assert np.allclose(decomp.core_block, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
        assert np.allclose(spectrum_union(decomp), [1.0, 0.5, 0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("trial", range(20))
    def test_spectrum_union_matches_full_matrix(self, trial):
        rng = np.random.default_rng(50 + trial)
        spec = make_random_spec(rng)
        network = build_network(spec)
        weights = StratifiedWeights(scheme="random", strata=random_strata(rng, spec))
        full = symmetric_eigenvalues(assemble_weight_matrix(network, weights))
        union = spectrum_union(block_decomposition(spec, weights))
        assert union.shape == full.shape
        assert np.max(np.abs(full - union)) <= 1e-8

    @settings(deadline=None)
    @given(case=specs_with_weights())
    def test_spectrum_union_matches_full_matrix_any_core_count(self, case):
        # The replica eigenvalue fills the cores - 1 slots the blocks miss.
        spec, weights = case
        full = symmetric_eigenvalues(assemble_weight_matrix(build_network(spec), weights))
        union = spectrum_union(block_decomposition(spec, weights))
        assert union.shape == full.shape
        assert np.max(np.abs(full - union)) <= 1e-9


class TestBlockSpectrum:
    @settings(deadline=None)
    @given(spec=branch_specs(), data=st.data())
    def test_matches_dense_oracle_for_every_scheme(self, spec, data):
        network = build_network(spec)
        schemes = [
            metropolis_weights(network),
            max_degree_weights(network),
            best_constant_weights(network),
            StratifiedWeights(
                scheme="random",
                strata=tuple(
                    tuple(data.draw(st.floats(0.05, 0.95)) for _ in range(m))
                    for m in spec.lengths
                ),
            ),
        ]
        try:
            schemes.append(optimal_weights(spec))
        except (SolverError, EvaluationError):
            pass
        for weights in schemes:
            matrix = assemble_weight_matrix(network, weights)
            blocks = block_spectrum(spec, weights)
            assert blocks.shape == (network.node_count,)
            assert np.max(np.abs(blocks - symmetric_eigenvalues(matrix))) <= 1e-12
            assert abs(block_slem(spec, weights) - slem(matrix)) <= 1e-12

    def test_strata_shape_mismatch_rejected(self):
        wrong = StratifiedWeights(scheme="x", strata=((0.5,), (0.5,), (0.5,)))
        with pytest.raises(ValueError):
            block_spectrum(COMPARISON_SPEC, wrong)


class TestInterlacing:
    @pytest.mark.parametrize("trial", range(10))
    def test_holds_for_arbitrary_weights(self, trial):
        rng = np.random.default_rng(60 + trial)
        spec = make_random_spec(rng, min_count=2)
        weights = StratifiedWeights(scheme="random", strata=random_strata(rng, spec))
        report = interlacing_check(block_decomposition(spec, weights))
        assert report.ok, report.violations

    def test_three_way_tie_at_optimal(self):
        solution = solve_theta(COMPARISON_SPEC)
        decomp = block_decomposition(
            COMPARISON_SPEC, optimal_weights(COMPARISON_SPEC, solution)
        )
        report = interlacing_check(decomp)
        assert report.ok
        assert report.moduli_spread <= 1e-8
        assert report.reduced_top == pytest.approx(solution.slem, abs=1e-4)
        assert report.reduced_top == pytest.approx(0.9213, abs=1e-4)

    def test_three_path_tie_values(self):
        # Degenerate 2x2 core block: its second eigenvalue IS its minimum,
        # so the three-way tie holds in modulus with core_second == -1/2.
        report = interlacing_check(
            block_decomposition(THREE_PATH, optimal_weights(THREE_PATH))
        )
        assert report.reduced_top == pytest.approx(0.5, abs=1e-12)
        assert report.core_second == pytest.approx(-0.5, abs=1e-12)
        assert report.core_lowest == pytest.approx(-0.5, abs=1e-12)
        assert report.moduli_spread <= 1e-12

    def test_signed_tie_with_multiple_branch_types(self):
        # With two or more branch types, two branch blocks top out at
        # cos(theta) simultaneously, which pins the core block's second
        # eigenvalue at +cos(theta) by interlacing.
        spec = BranchSpec(lengths=(1, 2), counts=(2, 2), cores=1)
        solution = solve_theta(spec)
        report = interlacing_check(block_decomposition(spec, optimal_weights(spec, solution)))
        assert report.core_second == pytest.approx(solution.slem, abs=1e-10)
        assert report.core_lowest == pytest.approx(-solution.slem, abs=1e-10)

    def test_single_type_tie_lives_in_branch_copies(self):
        # For one branch type the core block's second eigenvalue falls
        # strictly inside; the top tie is carried by the branch-block copies.
        spec = BranchSpec(lengths=(2,), counts=(3,), cores=1)
        solution = solve_theta(spec)
        decomp = block_decomposition(spec, optimal_weights(spec, solution))
        report = interlacing_check(decomp)
        assert report.reduced_top == pytest.approx(solution.slem, abs=1e-10)
        assert report.core_lowest == pytest.approx(-solution.slem, abs=1e-10)
        assert abs(report.core_second) < solution.slem - 1e-3
        assert report.moduli_spread <= 1e-12

    def test_tie_generally_fails_for_random_weights(self):
        rng = np.random.default_rng(99)
        spec = BranchSpec(lengths=(1, 2, 3), counts=(4, 3, 3), cores=1)
        weights = StratifiedWeights(scheme="random", strata=random_strata(rng, spec))
        report = interlacing_check(block_decomposition(spec, weights))
        assert report.ok
        assert report.moduli_spread > 1e-6

    def test_requires_counts_of_two(self):
        spec = BranchSpec(lengths=(2, 1), counts=(1, 3), cores=1)
        with pytest.raises(ValueError):
            interlacing_check(block_decomposition(spec, optimal_weights(spec)))


class TestStationaryVector:
    @pytest.mark.parametrize("trial", range(8))
    def test_fixed_by_core_block(self, trial):
        rng = np.random.default_rng(70 + trial)
        spec = make_random_spec(rng)
        weights = StratifiedWeights(scheme="random", strata=random_strata(rng, spec))
        decomp = block_decomposition(spec, weights)
        v = stationary_vector(spec)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(decomp.core_block @ v - v) <= 1e-10

    @settings(deadline=None)
    @given(case=specs_with_weights())
    def test_fixed_by_core_block_any_core_count(self, case):
        spec, weights = case
        decomp = block_decomposition(spec, weights)
        v = stationary_vector(spec)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(decomp.core_block @ v - v) <= 1e-10
        # It is the all-ones direction: its core entry carries all K cores.
        assert v[0] ** 2 * spec.node_count == pytest.approx(spec.cores, rel=1e-12)


class TestRankOneFactors:
    def test_unit_length_vectors(self):
        spec = BranchSpec(lengths=(1,), counts=(3,), cores=1)
        factors = incidence_factors(spec)
        assert np.array_equal(factors.reduced[0][0], [1.0])
        assert np.allclose(factors.core[0][0], [-np.sqrt(3.0), 1.0])

    def test_three_path_reconstruction(self):
        reduced, core = blocks_from_factors(THREE_PATH, optimal_weights(THREE_PATH))
        assert np.allclose(reduced, [[0.5]])
        decomp = block_decomposition(THREE_PATH, optimal_weights(THREE_PATH))
        assert np.allclose(core, decomp.core_block, atol=1e-15)

    @pytest.mark.parametrize("trial", range(10))
    def test_sparsity_of_factors(self, trial):
        rng = np.random.default_rng(80 + trial)
        spec = make_random_spec(rng)
        factors = incidence_factors(spec)
        for rows in (factors.reduced, factors.core):
            for row in rows:
                for vec in row:
                    assert np.count_nonzero(vec) <= 2

    @pytest.mark.parametrize("trial", range(10))
    def test_reconstruction_for_arbitrary_weights(self, trial):
        rng = np.random.default_rng(90 + trial)
        spec = make_random_spec(rng)
        weights = StratifiedWeights(scheme="random", strata=random_strata(rng, spec))
        decomp = block_decomposition(spec, weights)
        reduced, core = blocks_from_factors(spec, weights)
        assert np.max(np.abs(reduced - decomp.reduced_block)) <= 1e-12
        assert np.max(np.abs(core - decomp.core_block)) <= 1e-12

    @settings(deadline=None)
    @given(case=specs_with_weights())
    def test_reconstruction_any_core_count(self, case):
        spec, weights = case
        decomp = block_decomposition(spec, weights)
        reduced, core = blocks_from_factors(spec, weights)
        assert np.max(np.abs(reduced - decomp.reduced_block)) <= 1e-12
        assert np.max(np.abs(core - decomp.core_block)) <= 1e-12


class TestRateConsistency:
    @pytest.mark.parametrize("trial", range(10))
    def test_assembled_modulus_equals_cosine(self, trial):
        rng = np.random.default_rng(110 + trial)
        spec = make_random_spec(rng)
        if trial % 2:
            limit = max_cores(spec)
            spec = BranchSpec(spec.lengths, spec.counts, int(rng.integers(1, limit + 1)))
        solution = solve_theta(spec)
        network = build_network(spec)
        matrix = assemble_weight_matrix(network, optimal_weights(spec, solution))
        assert slem(matrix) == pytest.approx(solution.slem, abs=1e-8)
