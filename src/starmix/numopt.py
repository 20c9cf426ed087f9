"""Direct minimization of the eigenvalue modulus over stratified weights.

Independent numerical check on the closed-form solution: the objective
``max(lambda_2(W(w)), -lambda_min(W(w)))`` is convex in the stratum
weights (a pointwise max of extreme-eigenvalue functions of an affine
matrix map), so its global optimum is computable without touching the
closed form.  It also covers the regime where the closed form stops being
valid (core counts beyond the maximum), where the optimum is only
available numerically.

The solver works on the epigraph form: minimize ``s`` subject to
``-s I <= W(w) - J/N <= s I`` (J the all-ones matrix) plus box bounds on
the weights, via a log-determinant barrier with damped Newton centering.
Subtracting ``J/N`` removes the fixed eigenvalue one, so the constraint
caps exactly the eigenvalue modulus being minimized.  A plain projected
subgradient scheme was tried first and abandoned: the objective is sharp
but ill-conditioned (directional slopes spanning two orders of magnitude)
and near the optimum the extreme eigenvalue has high multiplicity, which
leaves subgradient iterates chattering far from the minimizer.  The
barrier method certifies its optimality gap instead of hoping for one.

The ``N x N`` constraint is never formed.  Under the network's symmetry
``W(w) - J/N`` is block-diagonal (Boyd, Diaconis, Parrilo & Xiao, 2009,
"Fastest mixing Markov chain on graphs with symmetries"): the core block
of :mod:`starmix.spectral` deflated by ``v v^T`` (``v`` its stationary
vector, which carries ``J/N``), the branch block of each type repeated
``counts[p] - 1`` times, and the scalar core-replica eigenvalue repeated
``cores - 1`` times.  The solver stacks one copy of each distinct block
into a block-diagonal matrix of size at most ``2 * sum(lengths) + 2``,
affine in ``w`` through the blocks' rank-one factors, and gives every row
the multiplicity of its block; blocks of multiplicity 0 are not in the
spectrum and are left out.  Multiplicity-weighted log-determinants,
traces and Hessian terms of the stacked matrix equal those of the full
constraint, so the barrier, its parameter ``nu = 2N + 2d`` and the
certificate are the full problem's, at a size set by the strata alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import block_slem, incidence_factors, stationary_vector
from .topology import BranchSpec, StarNetwork
from .weights import StratifiedWeights, metropolis_weights


def _flatten(weights: StratifiedWeights) -> np.ndarray:
    return np.array([w for row in weights.strata for w in row])


def _unflatten(network: StarNetwork, vector: np.ndarray, scheme: str) -> StratifiedWeights:
    rows = []
    offset = 0
    for m in network.spec.lengths:
        rows.append(tuple(float(v) for v in vector[offset : offset + m]))
        offset += m
    return StratifiedWeights(scheme=scheme, strata=tuple(rows))


def block_lmi(spec: BranchSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked symmetry blocks of ``W(w) - J/N`` as ``constant + sum_k w_k basis[k]``.

    Returns ``(constant, basis, multiplicity)``: rows ``0..sum(lengths)``
    hold the deflated core block, then the branch rows of every type with
    ``counts[p] >= 2``, then the core-replica row when ``cores >= 2``.
    ``basis[k]`` is minus the outer product of stratum ``k``'s factor in
    each block, ``-counts[p]`` on the replica row for a head stratum.
    """
    factors = incidence_factors(spec)
    total = sum(spec.lengths)
    row_counts = np.repeat(spec.counts, spec.lengths)
    kept = row_counts >= 2
    replica = [spec.cores - 1.0] if spec.cores >= 2 else []
    multiplicity = np.concatenate([np.ones(total + 1), row_counts[kept] - 1.0, replica])
    size = len(multiplicity)
    core = slice(0, total + 1)
    branch = slice(total + 1, total + 1 + int(kept.sum()))
    basis = np.zeros((total, size, size))
    k = 0
    for n, r_vecs, c_vecs in zip(spec.counts, factors.reduced, factors.core):
        for i, (r, c) in enumerate(zip(r_vecs, c_vecs)):
            basis[k, core, core] = -np.outer(c, c)
            basis[k, branch, branch] = -np.outer(r[kept], r[kept])
            if i == 0 and spec.cores >= 2:
                basis[k, -1, -1] = -float(n)
            k += 1
    v = stationary_vector(spec)
    constant = np.eye(size)
    constant[core, core] -= np.outer(v, v)
    return constant, basis, multiplicity


def _constraint_terms(
    inverse: np.ndarray, basis: np.ndarray, mult: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Barrier derivative terms of one side ``S = s I -/+ M`` of the stacked LMI.

    With ``X_k = S^-1 B_k`` and ``U`` the row multiplicities, returns
    ``tr(U X_k)``, ``tr(U X_k X_l)``, ``tr(U X_k S^-1)``, ``tr(U S^-1)`` and
    ``tr(U S^-1 S^-1)``.  Every factor is block-diagonal and ``U`` is
    constant on each block, so each weighted trace is the trace the full
    constraint would give.
    """
    x = inverse @ basis
    weighted = mult[:, None] * x
    weighted_inverse = mult[:, None] * inverse
    return (
        np.einsum("kii->k", weighted),
        np.einsum("kij,lji->kl", weighted, x),
        np.einsum("kij,ji->k", weighted, inverse),
        float(np.trace(weighted_inverse)),
        float(np.einsum("ij,ji->", weighted_inverse, inverse)),
    )


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of an optimization run.

    ``slem`` is recomputed from the returned weights on the symmetry blocks
    (:func:`starmix.spectral.block_slem`), so it is the modulus of the
    matrix they assemble.  ``objective_history`` holds the
    true objective at each accepted iterate and ``best_history`` its running
    minimum; the returned weights are the best iterate visited.
    ``certified_gap`` is the best objective visited minus the largest lower
    bound on the global optimum seen over the run, that bound starting at 0
    since the modulus is non-negative.  Each Newton step whose decrement
    ``lam`` is below 0.5, taken at iterate ``(w, s)`` in the stage with
    barrier weight ``t``, offers ``s - (nu + (lam + sqrt(nu)) * lam /
    (1 - lam)) / t`` with ``nu = 2n + 2d``; this holds at every such
    iterate, central or not.  ``converged`` means exactly
    ``certified_gap <= tol``.

    ``stop_reason`` says how the final barrier stage ended: ``"decrement"``
    (half the squared Newton decrement fell below ``newton_tol``),
    ``"stage_budget"`` (all ``stage_iters`` steps were taken),
    ``"line_search"`` (the backtracking step fell below 1e-12) or
    ``"max_iters"`` (the total step cap cut the stage short).
    """

    weights: StratifiedWeights
    slem: float
    iterations: int
    converged: bool
    final_step: float
    certified_gap: float
    objective_history: np.ndarray
    best_history: np.ndarray
    stop_reason: str


def optimize_weights(
    network: StarNetwork,
    init: StratifiedWeights | None = None,
    tol: float = 1e-7,
    *,
    max_iters: int = 3000,
    box_margin: float = 1e-6,
    barrier_growth: float = 20.0,
    newton_tol: float = 1e-11,
    stage_iters: int = 120,
) -> OptimizationResult:
    """Minimize the eigenvalue modulus over the stratum weights.

    Newton-centered barrier path following on the epigraph variables
    ``(w, s)``: each stage minimizes ``t*s`` plus the log-det barrier of the
    two spectral constraints (on the stacked symmetry blocks of
    :func:`block_lmi`) and the box bounds, then ``t`` grows by
    ``barrier_growth`` until the central-path gap ``nu / t`` falls below
    ``tol / 2``.  A stage ends after ``stage_iters`` Newton steps, a failed
    line search, or once half the squared Newton decrement drops below
    ``newton_tol``; ``newton_tol`` only ends a stage early and plays no part
    in ``converged``.  ``max_iters`` caps the total Newton-step count.

    Every Newton step with decrement ``lam < 0.5`` yields a lower bound on
    the optimum that is valid off the central path (see
    ``OptimizationResult``), so a stage that runs out of steps near the
    centre still certifies, and one that never gets near it certifies
    nothing rather than something false.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if init is None:
        init = metropolis_weights(network)

    n = network.node_count
    constant, basis, mult = block_lmi(network.spec)
    d, size = len(basis), len(mult)
    flat_basis = basis.reshape(d, -1)
    eye = np.eye(size)
    lo, hi = box_margin, 1.0 - box_margin

    def matrix_of(w: np.ndarray) -> np.ndarray:
        return constant + (w @ flat_basis).reshape(size, size)

    def true_objective(w: np.ndarray) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(matrix_of(w)))))

    def barrier_value(w: np.ndarray, s: float, t: float) -> float | None:
        """t*s plus all barrier terms; None when (w, s) is infeasible."""
        if np.any(w <= lo) or np.any(w >= hi):
            return None
        m = matrix_of(w)
        try:
            chol_p = np.linalg.cholesky(s * eye - m)
            chol_q = np.linalg.cholesky(s * eye + m)
        except np.linalg.LinAlgError:
            return None
        # The Cholesky factor of a block-diagonal matrix is block-diagonal,
        # so weighting its diagonal by row multiplicity counts each block's
        # log-determinant as often as the block occurs.
        logdet = 2.0 * float(
            mult @ (np.log(np.diag(chol_p)) + np.log(np.diag(chol_q)))
        )
        return t * s - logdet - float(np.sum(np.log(w - lo) + np.log(hi - w)))

    w = np.clip(_flatten(init), lo + 1e-4, hi - 1e-4)
    s = true_objective(w) + 0.05
    nu = 2.0 * n + 2.0 * d

    best_w = w.copy()
    best_f = true_objective(w)
    objective_history = [best_f]
    best_history = [best_f]
    iterations = 0
    final_step = 0.0
    t = 1.0
    stop_reason = "max_iters"
    # The eigenvalue modulus is non-negative, so 0 is a valid starting bound
    # and keeps the gap finite when no iterate qualifies below.
    lower_bound = 0.0

    while iterations < max_iters:
        current = barrier_value(w, s, t)
        stop_reason = "stage_budget"
        for _ in range(stage_iters):
            if iterations >= max_iters:
                stop_reason = "max_iters"
                break
            iterations += 1
            m = matrix_of(w)
            p_trace, p_pair, p_cross, p_inv_trace, p_inv_pair = _constraint_terms(
                np.linalg.inv(s * eye - m), basis, mult
            )
            q_trace, q_pair, q_cross, q_inv_trace, q_inv_pair = _constraint_terms(
                np.linalg.inv(s * eye + m), basis, mult
            )
            box_inner, box_outer = 1.0 / (w - lo), 1.0 / (hi - w)
            grad = np.empty(d + 1)
            hess = np.empty((d + 1, d + 1))
            grad[:d] = p_trace - q_trace - box_inner + box_outer
            pair = p_pair + q_pair
            hess[:d, :d] = 0.5 * (pair + pair.T) + np.diag(box_inner**2 + box_outer**2)
            hess[:d, d] = hess[d, :d] = q_cross - p_cross
            grad[d] = t - p_inv_trace - q_inv_trace
            hess[d, d] = p_inv_pair + q_inv_pair

            try:
                step = np.linalg.solve(hess, -grad)
                solved = True
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
                solved = False
            decrement = float(-grad @ step)
            # Near-central bound s - p* <= (nu + (lam + sqrt nu) lam / (1 - lam)) / t
            # (Nesterov & Nemirovski), valid for any Newton decrement lam < 1.
            # The decrement comes from an ill-conditioned Hessian at large t;
            # accepting only lam < 0.5 keeps 1 / (1 - lam) at most 2, so a
            # rounding error in lam can neither pass off a point with lam >= 1
            # nor inflate the bound.  A least-squares step is not the Newton
            # step, so its decrement certifies nothing.
            lam = float(np.sqrt(max(decrement, 0.0)))
            if solved and lam < 0.5:
                slack = nu + (lam + np.sqrt(nu)) * lam / (1.0 - lam)
                lower_bound = max(lower_bound, s - slack / t)
            if decrement / 2.0 < newton_tol:
                stop_reason = "decrement"
                break

            slope = float(grad @ step)
            alpha = 1.0
            while alpha > 1e-12:
                w_next = w + alpha * step[:d]
                s_next = s + alpha * float(step[d])
                value = barrier_value(w_next, s_next, t)
                if value is not None and value <= current + 0.25 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                stop_reason = "line_search"
                break
            w, s, current = w_next, s_next, value
            final_step = alpha

            f = true_objective(w)
            if f < best_f:
                best_f = f
                best_w = w.copy()
            objective_history.append(f)
            best_history.append(best_f)

        if nu / t <= tol / 2.0 or iterations >= max_iters:
            break
        t *= barrier_growth

    certified_gap = max(best_f - lower_bound, 0.0)
    weights = _unflatten(network, best_w, "numeric")
    achieved = block_slem(network.spec, weights)
    return OptimizationResult(
        weights=weights,
        slem=achieved,
        iterations=iterations,
        converged=bool(certified_gap <= tol),
        final_step=final_step,
        certified_gap=certified_gap,
        objective_history=np.array(objective_history),
        best_history=np.array(best_history),
        stop_reason=stop_reason,
    )
