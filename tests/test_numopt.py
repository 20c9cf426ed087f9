import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_spec, random_strata, specs_with_weights
from dense_oracles import eigenvalue_gradients, stratum_basis_matrices
from starmix import (
    BranchSpec,
    StratifiedWeights,
    build_network,
    optimal_weights,
    solve_theta,
)
from starmix.numopt import OptimizationResult, block_lmi, optimize_weights
from starmix.spectral import assemble_weight_matrix, slem

THREE_PATH = BranchSpec(lengths=(1,), counts=(2,), cores=1)
COMPARISON_SPEC = BranchSpec(lengths=(1, 2, 3), counts=(4, 3, 2), cores=1)


def test_three_path_converges_to_half():
    network = build_network(THREE_PATH)
    init = StratifiedWeights(scheme="init", strata=((0.3,),))
    result = optimize_weights(network, init)
    assert result.converged
    assert result.slem == pytest.approx(0.5, abs=1e-3)
    assert result.weights.strata[0][0] == pytest.approx(0.5, abs=1e-3)


def test_comparison_spec_matches_reference():
    network = build_network(COMPARISON_SPEC)
    result = optimize_weights(network)
    assert result.converged
    assert result.slem == pytest.approx(0.9213, abs=1e-3)


def test_reported_slem_matches_reassembly():
    network = build_network(COMPARISON_SPEC)
    result = optimize_weights(network)
    recomputed = slem(assemble_weight_matrix(network, result.weights))
    assert abs(result.slem - recomputed) <= 1e-10


def test_best_so_far_is_monotone_minimum():
    network = build_network(COMPARISON_SPEC)
    result = optimize_weights(network)
    assert np.all(np.diff(result.best_history) <= 0.0)
    assert result.best_history[-1] == np.min(result.objective_history)
    assert abs(result.slem - result.best_history[-1]) <= 1e-10


def test_certificate_bounds_distance_to_optimum():
    network = build_network(COMPARISON_SPEC)
    result = optimize_weights(network, tol=1e-7)
    assert result.converged
    assert result.certified_gap <= 1e-7
    closed = solve_theta(COMPARISON_SPEC).slem
    # The closed form is feasible, so the certificate must cover it.
    assert result.slem - result.certified_gap <= closed + 1e-12


def test_two_core_certificate_converges_at_default_tol():
    # The last barrier stage here runs out of Newton steps before its
    # decrement meets newton_tol, but the near-central bound still certifies.
    spec = BranchSpec(lengths=(2, 3, 4), counts=(3, 2, 2), cores=2)
    result = optimize_weights(build_network(spec))
    assert result.converged
    assert result.certified_gap <= 1e-7
    assert result.slem - result.certified_gap <= solve_theta(spec).slem + 1e-12


@pytest.mark.parametrize("stage_iters", [1, 2, 3])
@pytest.mark.parametrize(
    "spec",
    [
        COMPARISON_SPEC,
        BranchSpec(lengths=(1, 2), counts=(2, 3), cores=2),
        BranchSpec(lengths=(2, 3, 4), counts=(3, 2, 2), cores=2),
    ],
    ids=["comparison", "two-type-k2", "demo-family-k2"],
)
def test_certificate_holds_off_central_path(spec, stage_iters):
    # A stage budget this small never centers, so the bound must not rely
    # on sitting at the exact barrier minimizer.
    result = optimize_weights(build_network(spec), stage_iters=stage_iters)
    assert np.isfinite(result.certified_gap)
    assert result.slem - result.certified_gap <= solve_theta(spec).slem + 1e-12


def test_weights_match_closed_form():
    spec = BranchSpec(lengths=(1, 2), counts=(2, 3), cores=2)
    network = build_network(spec)
    result = optimize_weights(network)
    reference = optimal_weights(spec)
    got = np.array([w for row in result.weights.strata for w in row])
    want = np.array([w for row in reference.strata for w in row])
    assert np.max(np.abs(got - want)) <= 5e-3


def test_rejects_nonpositive_tol():
    network = build_network(THREE_PATH)
    with pytest.raises(ValueError):
        optimize_weights(network, tol=0.0)


def test_iteration_budget_respected():
    network = build_network(COMPARISON_SPEC)
    result = optimize_weights(network, max_iters=5)
    assert result.iterations == 5
    assert not result.converged
    assert isinstance(result, OptimizationResult)


def test_stop_reason_stage_budget_past_core_limit():
    # Past K_max = 40 the last stage (t = 2.56e10) takes all 120 Newton
    # steps without its decrement reaching newton_tol.
    spec = BranchSpec(lengths=(2, 3, 4), counts=(3, 2, 2), cores=43)
    result = optimize_weights(build_network(spec))
    assert result.stop_reason == "stage_budget"
    assert not result.converged


def test_stop_reason_max_iters():
    result = optimize_weights(build_network(COMPARISON_SPEC), max_iters=5)
    assert result.stop_reason == "max_iters"


def test_stop_reason_decrement():
    result = optimize_weights(build_network(THREE_PATH))
    assert result.stop_reason == "decrement"
    assert result.converged


def test_stratum_basis_matches_assembly_difference():
    rng = np.random.default_rng(3)
    spec = make_random_spec(rng)
    network = build_network(spec)
    basis = stratum_basis_matrices(network)
    rows = random_strata(rng, spec)
    weights = StratifiedWeights(scheme="random", strata=rows)
    flat = [w for row in rows for w in row]
    rebuilt = np.eye(network.node_count)
    for w, mat in zip(flat, basis):
        rebuilt = rebuilt + w * mat
    assert np.max(np.abs(rebuilt - assemble_weight_matrix(network, weights))) <= 1e-14


@pytest.mark.parametrize("trial", range(6))
def test_eigenvalue_gradients_match_finite_differences(trial):
    # Counts of exactly two keep every branch-block eigenvalue simple in the
    # full spectrum, so the extreme eigenvalues are differentiable.
    rng = np.random.default_rng(600 + trial)
    spec = make_random_spec(rng, min_count=2, max_count=2, max_types=3)
    network = build_network(spec)
    rows = random_strata(rng, spec)
    weights = StratifiedWeights(scheme="random", strata=rows)
    matrix = assemble_weight_matrix(network, weights)
    evals = np.sort(np.linalg.eigvalsh(matrix))
    # Need simple extreme eigenvalues for a two-sided difference to be valid.
    if evals[-2] - evals[-3] < 1e-5 or evals[1] - evals[0] < 1e-5:
        pytest.skip("degenerate extreme eigenvalue; prediction is one-sided")

    grad2, grad_min, lam2, lam_min = eigenvalue_gradients(network, weights)
    flat = np.array([w for row in rows for w in row])
    step = 1e-6

    def eig_at(vector, index):
        rebuilt = []
        offset = 0
        for m in spec.lengths:
            rebuilt.append(tuple(float(v) for v in vector[offset : offset + m]))
            offset += m
        w = StratifiedWeights(scheme="fd", strata=tuple(rebuilt))
        return np.sort(np.linalg.eigvalsh(assemble_weight_matrix(network, w)))[index]

    for k in range(len(flat)):
        up = flat.copy()
        down = flat.copy()
        up[k] += step
        down[k] -= step
        fd2 = (eig_at(up, -2) - eig_at(down, -2)) / (2 * step)
        fd_min = (eig_at(up, 0) - eig_at(down, 0)) / (2 * step)
        scale2 = max(abs(fd2), abs(grad2[k]), 1e-8)
        scale_min = max(abs(fd_min), abs(grad_min[k]), 1e-8)
        assert abs(fd2 - grad2[k]) / scale2 <= 1e-3
        assert abs(fd_min - grad_min[k]) / scale_min <= 1e-3


@settings(deadline=None)
@given(case=specs_with_weights(), margin=st.floats(1e-3, 1.0))
def test_block_lmi_matches_dense_constraint(case, margin):
    # Counts of 1 drop a branch block and one core drops the replica row;
    # the multiplicity-weighted stack must still reproduce the full barrier.
    spec, weights = case
    network = build_network(spec)
    n = network.node_count
    w = np.array([v for row in weights.strata for v in row])
    dense = np.eye(n) - np.full((n, n), 1.0 / n)
    for wk, basis in zip(w, stratum_basis_matrices(network)):
        dense += wk * basis
    constant, basis, mult = block_lmi(spec)
    stacked = constant + np.tensordot(w, basis, axes=1)
    assert mult.sum() == n
    assert len(mult) <= 2 * sum(spec.lengths) + 2
    modulus = np.max(np.abs(np.linalg.eigvalsh(dense)))
    assert np.max(np.abs(np.linalg.eigvalsh(stacked))) == pytest.approx(modulus, rel=1e-10)
    s = modulus + margin
    for sign in (1.0, -1.0):
        sign_d, logdet_dense = np.linalg.slogdet(s * np.eye(n) - sign * dense)
        chol = np.linalg.cholesky(s * np.eye(len(mult)) - sign * stacked)
        logdet_stacked = 2.0 * float(mult @ np.log(np.diag(chol)))
        assert sign_d == 1.0
        assert logdet_stacked == pytest.approx(logdet_dense, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize(
    "spec",
    [
        BranchSpec(lengths=(1, 2), counts=(1, 3), cores=1),
        BranchSpec(lengths=(2, 3), counts=(1, 2), cores=3),
        BranchSpec(lengths=(1, 2, 3), counts=(1, 1, 1), cores=2),
    ],
    ids=["count-one-k1", "count-one-k3", "all-counts-one-k2"],
)
def test_certificate_with_dropped_blocks(spec):
    # A branch type with one branch contributes no branch block to the LMI.
    network = build_network(spec)
    result = optimize_weights(network)
    assert result.converged
    feasible = slem(assemble_weight_matrix(network, optimal_weights(spec)))
    assert result.slem - result.certified_gap <= feasible + 1e-12
