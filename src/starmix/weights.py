"""Edge-weight schemes and the closed-form spectral optimum.

The optimal scheme fixes every intra-branch weight at exactly 1/2 and
derives the core-to-head weight of each branch type from the angle
``theta``, the smallest root in (0, pi) of a transcendental characteristic
determinant built from the branch lengths and counts.  The second-largest
eigenvalue modulus (SLEM) of the resulting averaging matrix is
``cos(theta)``, which governs the asymptotic convergence rate.

The baseline schemes (Metropolis, maximum-degree, best-constant) are
built from node degrees and the graph Laplacian spectrum.  Permuting
branches of equal length changes neither, so the baselines, like the
optimal scheme, are constant on each edge stratum, and every scheme is
carried in stratum form.  The Laplacian is ``I - W(1)``, the identity
minus the averaging matrix with every stratum weight 1, so its extreme
eigenvalues come from the symmetry blocks of :mod:`starmix.spectral`
without forming an ``n x n`` matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import block_spectrum
from .topology import BranchSpec, StarNetwork


class EvaluationError(ArithmeticError):
    """A transcendental evaluation landed too close to a pole."""


class SolverError(RuntimeError):
    """Root bracketing or weight computation failed."""


@dataclass(frozen=True)
class StratifiedWeights:
    """Edge weights, one value per stratum.

    ``strata[p-1][i-1]`` is the weight of every edge in stratum ``(p, i)``:
    the ``i``-th edge along each branch of type ``p``, counted from the
    cores.
    """

    scheme: str
    strata: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        for row in self.strata:
            for w in row:
                if not 0.0 < w <= 1.0:
                    raise ValueError(f"edge weight {w} outside (0, 1]")


def _check_theta_domain(theta: float) -> None:
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta {theta} outside (0, pi)")


def _cot(x: float, pole_tol: float, label: str) -> float:
    s = math.sin(x)
    if abs(s) < pole_tol:
        raise EvaluationError(f"cot pole near {label}: |sin| = {abs(s):.3e}")
    return math.cos(x) / s


def _coupling_values(spec: BranchSpec, theta: float, pole_tol: float) -> np.ndarray:
    """Diagonal couplings (2K/n_p) cot(m_p theta) cot(theta/2), one per branch type."""
    cot_half = _cot(theta / 2.0, pole_tol, "theta/2")
    return np.array(
        [
            (2.0 * spec.cores / n) * _cot(m * theta, pole_tol, f"{m}*theta") * cot_half
            for m, n in zip(spec.lengths, spec.counts)
        ]
    )


def characteristic_det(spec: BranchSpec, theta: float, *, pole_tol: float = 1e-9) -> float:
    """Determinant of the characteristic branch-coupling matrix at ``theta``.

    The matrix has ``(2K/n_i) cot(m_i theta) cot(theta/2) - 1`` on the
    diagonal and ``-sqrt(n_j / n_i)`` off it; its smallest positive root in
    theta pins the optimal convergence rate.  Evaluation within
    ``pole_tol`` of a cotangent pole raises :class:`EvaluationError` rather
    than returning a garbage value.
    """
    _check_theta_domain(theta)
    c = _coupling_values(spec, theta, pole_tol)
    b = spec.branch_types
    roots_n = np.sqrt(np.asarray(spec.counts, dtype=float))
    matrix = -np.outer(1.0 / roots_n, roots_n)
    matrix[np.diag_indices(b)] = c - 1.0
    return float(np.linalg.det(matrix))


def characteristic_det_reduced(
    spec: BranchSpec, theta: float, *, pole_tol: float = 1e-9
) -> float:
    """Same determinant via the rank-one reduction.

    The coupling matrix is ``diag(c) - u v^T`` with ``u_i v_i = 1``, so its
    determinant collapses to ``prod(c) - sum_i prod_{j != i}(c_j)`` (the
    division-free form of ``prod(c) * (1 - sum(1/c))``).  Kept separate from
    :func:`characteristic_det` so the two formulations cross-validate.
    """
    _check_theta_domain(theta)
    c = _coupling_values(spec, theta, pole_tol)
    total = np.prod(c)
    for i in range(len(c)):
        total -= np.prod(np.delete(c, i))
    return float(total)


def _root_condition(spec: BranchSpec, theta: float) -> tuple[float, float]:
    """``S(theta) = sum_p (n_p / 2K) tan(m_p theta) tan(theta/2)`` and its slope.

    The characteristic determinant equals ``prod_p c_p * (1 - S)`` with the
    couplings ``c_p`` of :func:`characteristic_det`, so its roots are those
    of ``S = 1`` wherever every ``c_p`` is finite and non-zero.
    """
    half = math.tan(0.5 * theta)
    total = 0.0
    slope = 0.0
    for m, n in zip(spec.lengths, spec.counts):
        t = math.tan(m * theta)
        total += n * t
        slope += n * (m * (1.0 + t * t) * half + 0.5 * t * (1.0 + half * half))
    scale = 0.5 / spec.cores
    return scale * total * half, scale * slope


@dataclass(frozen=True)
class ThetaSolution:
    """Smallest root of the characteristic determinant and the rate it encodes.

    ``theta`` is the root, ``slem`` is ``cos(theta)`` and ``bracket`` the
    final interval of the solve, whose ends straddle the root (both equal
    ``theta`` when the root condition ``S(theta) = 1`` held exactly).
    ``residual`` is the absolute characteristic determinant at ``theta`` and
    ``residual_relative`` rescales it by the determinant's central-difference
    slope, approximating the distance to the true root.  Both evaluate the
    direct determinant, which the solve never touches, on first access only.
    """

    spec: BranchSpec
    theta: float
    slem: float
    bracket: tuple[float, float]

    @cached_property
    def residual(self) -> float:
        return abs(characteristic_det(self.spec, self.theta))

    @cached_property
    def residual_relative(self) -> float:
        # Every cotangent pole of the determinant is at least theta away,
        # because theta < pi / (2 max m).
        h = min(1e-7, self.theta / 8.0)
        slope = abs(
            characteristic_det(self.spec, self.theta + h)
            - characteristic_det(self.spec, self.theta - h)
        ) / (2.0 * h)
        return self.residual / max(slope, 1e-300)


def solve_theta(spec: BranchSpec) -> ThetaSolution:
    """Smallest root of the characteristic determinant in (0, pi).

    On ``(0, pi / (2 M))``, ``M = max(lengths)``, every ``tan(m_p theta)``
    and ``tan(theta/2)`` is positive and increasing, so the root condition
    ``S(theta) = sum_p (n_p / 2K) tan(m_p theta) tan(theta/2)`` rises
    strictly from 0 to infinity and meets ``S = 1`` exactly once.  Every
    coupling ``c_p = (2K/n_p) cot(m_p theta) cot(theta/2)`` is positive
    there, and the determinant is ``prod_p c_p * (1 - S)``, so that one
    crossing is also the determinant's smallest root: the solve needs no
    scan.

    Newton runs on ``log S`` in the coordinate ``psi = log tan(M theta)``,
    in which ``log S`` is asymptotically linear at both ends of the
    interval, and the step maps back to ``theta`` through the arctangent
    difference formula, which keeps every step inside the interval and
    exact to rounding.  Each evaluation shrinks the bracket; a step that
    leaves it bisects instead, and a step below one ulp moves one ulp
    towards the root, so the solve stops once the bracket spans one ulp.
    The residuals of :class:`ThetaSolution` are computed on demand.
    """
    top = max(spec.lengths)
    lo, hi = 0.0, math.pi / (2 * top)
    theta = 0.5 * hi
    for _ in range(100):
        s, slope = _root_condition(spec, theta)
        if s == 1.0:
            lo = hi = theta
        elif s < 1.0:
            lo = theta
        else:
            hi = theta
        if hi - lo <= math.ulp(hi):
            return ThetaSolution(
                spec=spec, theta=theta, slem=math.cos(theta), bracket=(lo, hi)
            )
        # One Newton step on log S in psi: d theta / d psi = t / (M (1 + t^2)).
        t = math.tan(top * theta)
        dpsi = -math.log(s) * s * top * (1.0 + t * t) / (slope * t)
        step = math.atan(t * math.expm1(dpsi) / (1.0 + t * t * math.exp(dpsi))) / top
        if abs(step) < math.ulp(theta):
            step = math.copysign(math.ulp(theta), 1.0 - s)
        theta += step
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
    raise SolverError(f"theta solve did not converge for {spec.to_dict()}")


def optimal_weights(spec: BranchSpec, solution: ThetaSolution | None = None) -> StratifiedWeights:
    """Rate-optimal stratified weights for a branch specification.

    The core-to-head weight of branch type ``p`` is
    ``sin(theta/2) sin(m_p theta) / cos((m_p - 1/2) theta)`` divided by the
    core count; every weight deeper into a branch is exactly 1/2.  This is
    ``(1 - cos(theta)) sin(m_p theta) / (sin(m_p theta) - sin((m_p - 1) theta))``
    without the cancellation in either difference, which costs digits once
    ``theta`` is small.  For ``m_p == 1`` it is ``(1 - cos(theta)) / K``.
    Below ``pi / (2 max m)``, where :func:`solve_theta` finds ``theta``,
    every cosine is positive.
    """
    if solution is None:
        solution = solve_theta(spec)
    theta = solution.theta
    half_sine = math.sin(0.5 * theta)
    rows = []
    for m in spec.lengths:
        cosine = math.cos((m - 0.5) * theta)
        if cosine <= 0.0:
            raise SolverError(
                f"head-weight cosine cos((m - 1/2) theta) = {cosine} is not positive "
                f"for branch length {m} at theta={theta}"
            )
        w1 = half_sine * math.sin(m * theta) / cosine / spec.cores
        if not 0.0 < w1 < 1.0:
            raise SolverError(f"head weight {w1} outside (0, 1) for branch length {m}")
        rows.append((w1,) + (0.5,) * (m - 1))
    return StratifiedWeights(scheme="optimal", strata=tuple(rows))


def metropolis_weights(network: StarNetwork) -> StratifiedWeights:
    """Edge weights 1 / (1 + max(deg_u, deg_v)), taken at each stratum's first edge."""
    deg = network.degrees
    rows: list[list[float]] = [[] for _ in range(network.spec.branch_types)]
    for stratum in network.strata:
        u, v = stratum.edges[0]
        rows[stratum.branch_type - 1].append(1.0 / (1.0 + max(deg[u], deg[v])))
    strata = tuple(tuple(row) for row in rows)
    return StratifiedWeights(scheme="metropolis", strata=strata)


def max_degree_weights(network: StarNetwork) -> StratifiedWeights:
    """Uniform edge weight 1 / max(deg)."""
    w = 1.0 / max(network.degrees)
    strata = tuple((w,) * m for m in network.spec.lengths)
    return StratifiedWeights(scheme="max_degree", strata=strata)


def best_constant_alpha(network: StarNetwork) -> float:
    """Optimal uniform edge weight 2 / (lambda_max(L) + lambda_2(L)), L = D - A.

    ``L = I - W(1)`` with ``W(1)`` the averaging matrix of unit stratum
    weights, so ``lambda_2(L) = 1 - lambda_2(W(1))`` and ``lambda_max(L) =
    1 - lambda_min(W(1))``, both read off the symmetry blocks.
    """
    unit = StratifiedWeights(
        scheme="unit", strata=tuple((1.0,) * m for m in network.spec.lengths)
    )
    evals = block_spectrum(network.spec, unit)
    connectivity = 1.0 - float(evals[1])
    if connectivity <= 1e-12:
        raise SolverError("graph Laplacian has no spectral gap; network disconnected?")
    return 2.0 / (1.0 - float(evals[-1]) + connectivity)


def best_constant_weights(network: StarNetwork) -> StratifiedWeights:
    """Uniform edge weight at the best-constant optimum."""
    alpha = best_constant_alpha(network)
    strata = tuple((alpha,) * m for m in network.spec.lengths)
    return StratifiedWeights(scheme="best_constant", strata=strata)


def core_replica_eigenvalue(spec: BranchSpec, weights: StratifiedWeights) -> float:
    """Shared diagonal value 1 - sum_p n_p w1_p of every core row.

    For two or more cores this is an eigenvalue of the full averaging matrix
    (eigenvectors supported on differences of core coordinates) with
    multiplicity ``cores - 1``.
    """
    return 1.0 - sum(n * row[0] for n, row in zip(spec.counts, weights.strata))


def max_cores(
    spec: BranchSpec, *, use_magnitude: bool = False, core_limit: int = 100_000
) -> int:
    """Largest core count for which the closed-form weights stay optimal.

    Scans K = 1, 2, ... and re-solves theta each time; the closed form is
    valid while the core-replica eigenvalue stays strictly below
    ``cos(theta)``.  ``use_magnitude`` switches the comparison to absolute
    value (alternate convention; the signed comparison reproduces the
    reference grid).  The ``cores`` field of ``spec`` is ignored.
    """
    best = 0
    for k in range(1, core_limit + 1):
        candidate = BranchSpec(lengths=spec.lengths, counts=spec.counts, cores=k)
        solution = solve_theta(candidate)
        weights = optimal_weights(candidate, solution)
        replica = core_replica_eigenvalue(candidate, weights)
        value = abs(replica) if use_magnitude else replica
        if value < solution.slem:
            best = k
        else:
            break
    if best == 0:
        raise SolverError(f"closed form invalid already at one core for {spec.to_dict()}")
    return best
