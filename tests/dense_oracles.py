"""Dense ``n x n`` oracles that only the tests use.

The library never forms these matrices: the optimizer works on the stacked
symmetry blocks (:func:`starmix.numopt.block_lmi`) and the simulator on the
edge form.  These per-edge constructions are what the tests hold both to.
"""

import numpy as np

from starmix import StarNetwork, StratifiedWeights
from starmix.sim import SimulationConfig
from starmix.spectral import assemble_weight_matrix


def _stratum_quadratic_forms(network: StarNetwork, vec: np.ndarray) -> np.ndarray:
    """d lambda / d w_s for a unit eigenvector: -sum over stratum edges of (v_u - v_v)^2.

    Perturbing one stratum weight adds +1 at both off-diagonal slots and -1
    at both diagonal slots per member edge, so the first-order eigenvalue
    change is the negated squared edge difference of the eigenvector.
    """
    grads = np.empty(len(network.strata))
    for s, stratum in enumerate(network.strata):
        acc = 0.0
        for u, v in stratum.edges:
            diff = vec[u] - vec[v]
            acc += diff * diff
        grads[s] = -acc
    return grads


def eigenvalue_gradients(
    network: StarNetwork, weights: StratifiedWeights
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Per-stratum derivative predictions for lambda_2 and lambda_min.

    Returns (grad_lambda2, grad_lambda_min, lambda2, lambda_min) using the
    eigenvectors the dense solver returns; exact to first order whenever the
    eigenvalue is simple.
    """
    matrix = assemble_weight_matrix(network, weights)
    evals, evecs = np.linalg.eigh(matrix)
    grad2 = _stratum_quadratic_forms(network, evecs[:, -2])
    grad_min = _stratum_quadratic_forms(network, evecs[:, 0])
    return grad2, grad_min, float(evals[-2]), float(evals[0])


def stratum_basis_matrices(network: StarNetwork) -> list[np.ndarray]:
    """dW/dw_s per stratum: +1 at member off-diagonals, -1 at touched diagonals.

    Dense ``N x N`` oracle for :func:`starmix.numopt.block_lmi`.
    """
    n = network.node_count
    mats = []
    for stratum in network.strata:
        basis = np.zeros((n, n))
        for u, v in stratum.edges:
            basis[u, v] += 1.0
            basis[v, u] += 1.0
            basis[u, u] -= 1.0
            basis[v, v] -= 1.0
        mats.append(basis)
    return mats


def philox_states(n: int, config: SimulationConfig) -> np.ndarray:
    """Per-trial ``np.random.Philox`` loop: the reference for the vectorized kernel."""
    states = np.empty((n, config.trials))
    seed_word = config.seed & ((1 << 64) - 1)
    for trial in range(config.trials):
        rng = np.random.Generator(np.random.Philox(key=(seed_word << 64) | trial))
        x = rng.random(n)
        while np.linalg.norm(x - x.mean()) < 1e-12:
            x = rng.random(n)
        states[:, trial] = x
    return states


def dense_trace(
    network: StarNetwork, weights: StratifiedWeights, config: SimulationConfig
) -> np.ndarray:
    """Mean normalized consensus error per step, stepped by the dense ``W @ e``.

    ``e`` is the deviation of ``philox_states`` from each trial's initial
    mean.  Stepping the states themselves would add the consensus value's
    own rounding (about 1e-16 absolute per step), which is already about
    1e-8 relative once the error is 1e-8 and only a few trials are averaged.
    """
    matrix = assemble_weight_matrix(network, weights)
    e = philox_states(network.node_count, config)
    e -= e.mean(axis=0)
    scale = np.linalg.norm(e, axis=0)
    errors = [1.0]
    for _ in range(config.iterations):
        e = matrix @ e
        errors.append(float(np.mean(np.linalg.norm(e, axis=0) / scale)))
    return np.array(errors)
