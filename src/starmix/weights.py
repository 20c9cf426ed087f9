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


def _gap_poles(spec: BranchSpec) -> list[float]:
    """Poles in (0, pi] of the tangent-form gap function, analytically enumerated."""
    poles = {math.pi}
    for m in spec.lengths:
        for k in range(m):
            poles.add((2 * k + 1) * math.pi / (2 * m))
    return sorted(poles)


def _tan_gap(spec: BranchSpec, theta: np.ndarray) -> np.ndarray:
    """Vectorized root-condition gap: sum_p (n_p / 2K) tan(m_p theta) tan(theta/2) - 1.

    Shares its roots with the characteristic determinant away from poles and
    is monotone-friendly for scanning: it diverges at the enumerated poles
    instead of blowing up the determinant's cotangents.
    """
    th = np.asarray(theta, dtype=float)
    half = np.tan(th / 2.0)
    total = np.full_like(th, -1.0)
    for m, n in zip(spec.lengths, spec.counts):
        total = total + (n / (2.0 * spec.cores)) * np.tan(m * th) * half
    return total


@dataclass(frozen=True)
class ThetaSolution:
    """Smallest root of the characteristic determinant and the rate it encodes.

    ``slem`` is ``cos(theta)``.  ``residual`` is the absolute characteristic
    determinant at ``theta``; ``residual_relative`` rescales it by the local
    determinant slope, approximating the distance to the true root.
    """

    theta: float
    slem: float
    residual: float
    residual_relative: float
    bracket: tuple[float, float]


def _bisect_gap(
    spec: BranchSpec, lo: float, hi: float, g_lo: float, g_hi: float
) -> tuple[float, tuple[float, float]]:
    if g_lo == 0.0:
        return lo, (lo, lo)
    if g_hi == 0.0:
        return hi, (hi, hi)
    a, b, fa = lo, hi, g_lo
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = float(_tan_gap(spec, np.array(mid)))
        if fm == 0.0:
            return mid, (mid, mid)
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
        if b - a < 1e-14:
            break
    return 0.5 * (a + b), (a, b)


def _det_pole_distance(spec: BranchSpec, theta: float) -> float:
    """Distance from theta to the nearest cotangent pole of the determinant."""
    dist = min(theta, math.pi - theta)
    for m in spec.lengths:
        k = round(m * theta / math.pi)
        dist = min(dist, abs(theta - k * math.pi / m))
    return dist


def solve_theta(spec: BranchSpec, *, grid_factor: int = 4096) -> ThetaSolution:
    """Locate the smallest root of the characteristic determinant in (0, pi).

    Scans the tangent-form gap on a uniform grid of ``grid_factor *
    max(lengths)`` points per unit interval, split at the analytically
    enumerated poles so every candidate bracket is pole-free, then bisects
    the first sign change.  The returned residual is evaluated with the
    direct determinant so the two formulations check each other.
    """
    max_m = max(spec.lengths)
    step = math.pi / (grid_factor * max_m)
    segment_lo = 0.0
    for pole in _gap_poles(spec):
        inset = max((pole - segment_lo) * 1e-12, 1e-13)
        a, b = segment_lo + inset, pole - inset
        segment_lo = pole
        if b <= a:
            continue
        count = max(2, int(math.ceil((b - a) / step)) + 1)
        xs = np.linspace(a, b, count)
        gs = _tan_gap(spec, xs)
        signs = np.sign(gs)
        flips = np.nonzero((signs[:-1] * signs[1:]) <= 0.0)[0]
        if flips.size == 0:
            continue
        k = int(flips[0])
        theta, bracket = _bisect_gap(spec, float(xs[k]), float(xs[k + 1]), float(gs[k]), float(gs[k + 1]))

        residual = abs(characteristic_det(spec, theta))
        h = min(1e-7, _det_pole_distance(spec, theta) / 8.0)
        slope = abs(
            characteristic_det(spec, theta + h) - characteristic_det(spec, theta - h)
        ) / (2.0 * h)
        relative = residual / max(slope, 1e-300)
        return ThetaSolution(
            theta=theta,
            slem=math.cos(theta),
            residual=residual,
            residual_relative=relative,
            bracket=bracket,
        )
    raise SolverError(
        f"no sign change of the root-condition gap in (0, pi) for {spec.to_dict()}"
    )


def optimal_weights(spec: BranchSpec, solution: ThetaSolution | None = None) -> StratifiedWeights:
    """Rate-optimal stratified weights for a branch specification.

    The core-to-head weight of branch type ``p`` is
    ``(1 - cos(theta)) sin(m_p theta) / (sin(m_p theta) - sin((m_p - 1) theta))``
    divided by the core count; every weight deeper into a branch is exactly
    1/2.  For ``m_p == 1`` the ratio collapses to 1 and the head weight is
    ``(1 - cos(theta)) / K``.
    """
    if solution is None:
        solution = solve_theta(spec)
    theta = solution.theta
    rise = 1.0 - solution.slem
    rows = []
    for m, n in zip(spec.lengths, spec.counts):
        numer = math.sin(m * theta)
        denom = numer - math.sin((m - 1) * theta)
        if abs(denom) < 1e-12:
            raise SolverError(
                f"degenerate head-weight denominator for branch length {m} at theta={theta}"
            )
        w1 = rise * numer / denom / spec.cores
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
