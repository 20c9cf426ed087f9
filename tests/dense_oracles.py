"""Dense ``n x n`` oracles that only the tests use.

The library never forms these matrices: the optimizer works on the stacked
symmetry blocks (:func:`starmix.numopt.block_lmi`) and the simulator on the
edge form.  These per-edge constructions are what the tests hold both to.
"""

import numpy as np

from starmix import StarNetwork, StratifiedWeights
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
