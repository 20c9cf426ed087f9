"""Weight-matrix assembly, eigenvalue reports, and structural decompositions.

The full averaging matrix of a star-of-paths network with ``K`` cores
block-diagonalizes under its branch- and core-permutation symmetry into
one core block coupling the symmetric core coordinate to a representative
of each branch type, ``counts[p] - 1`` copies of a tridiagonal block per
branch type, and the scalar core-replica eigenvalue ``1 - sum n_p w1_p``
repeated ``K - 1`` times (eigenvectors on differences of core
coordinates).  This module builds both the full matrix and those blocks
directly and exposes the invariants that tie them together (spectrum
union, Cauchy interlacing, rank-one expansions), which is how the
construction is verified without ever materializing the symmetry-adapted
basis.

Every spectrum of stratified weights the package reports comes from the
blocks (:func:`block_spectrum`, :func:`block_slem`), at a cost set by
``sum(lengths)`` rather than the node count.  The dense matrix and its
``eigvalsh`` (:func:`symmetric_eigenvalues`, :func:`slem`,
:func:`spectral_report`) are the oracle that the tests and ``validate``'s
``spectrum_union`` check hold the blocks to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .topology import BranchSpec, StarNetwork

if TYPE_CHECKING:
    from .weights import StratifiedWeights


def _check_strata_shape(spec: BranchSpec, weights: StratifiedWeights) -> None:
    if len(weights.strata) != spec.branch_types or any(
        len(row) != m for row, m in zip(weights.strata, spec.lengths)
    ):
        raise ValueError(
            "stratified weights do not match the network's branch structure"
        )


def assemble_weight_matrix(network: StarNetwork, weights: StratifiedWeights) -> np.ndarray:
    """Dense symmetric averaging matrix in node-index order.

    Off-diagonal entries carry the edge weights; each diagonal entry is one
    minus its off-diagonal row sum, so rows sum to one exactly and the
    all-ones vector is fixed.
    """
    _check_strata_shape(network.spec, weights)
    n = network.node_count
    matrix = np.zeros((n, n))
    for stratum in network.strata:
        w = weights.strata[stratum.branch_type - 1][stratum.position - 1]
        for u, v in stratum.edges:
            matrix[u, v] = w
            matrix[v, u] = w
    np.fill_diagonal(matrix, 1.0 - matrix.sum(axis=1))
    return matrix


def symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted descending."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(matrix)[::-1]


def slem(matrix: np.ndarray) -> float:
    """Second-largest eigenvalue modulus max(lambda_2, -lambda_min)."""
    evals = symmetric_eigenvalues(matrix)
    return float(max(evals[1], -evals[-1]))


@dataclass(frozen=True)
class SpectralReport:
    """Sorted spectrum with the quantities that decide convergence."""

    eigenvalues: tuple[float, ...]
    slem: float
    top: float
    slem_multiplicity: int


def spectral_report(matrix: np.ndarray, *, tie_tol: float = 1e-8) -> SpectralReport:
    evals = symmetric_eigenvalues(matrix)
    s = float(max(evals[1], -evals[-1]))
    ties = int(np.sum(np.abs(np.abs(evals[1:]) - s) <= tie_tol))
    return SpectralReport(
        eigenvalues=tuple(float(v) for v in evals),
        slem=s,
        top=float(evals[0]),
        slem_multiplicity=ties,
    )


@dataclass(frozen=True)
class BlockDecomposition:
    """Symmetry blocks of the averaging matrix for any core count ``K``.

    ``branch_blocks[p-1]`` is the tridiagonal block of branch type ``p``
    (appearing with multiplicity ``counts[p] - 1`` in the full spectrum),
    ``core_block`` couples the symmetric core coordinate to one
    representative chain per branch type (coupling ``sqrt(K n_p) w1_p``),
    and ``reduced_block`` is the core block with its core row and column
    deleted (the direct sum of the branch blocks, head diagonal
    ``1 - K w1_p - w2_p``).  The core-replica eigenvalue is not a block;
    :func:`spectrum_union` adds it.
    """

    spec: BranchSpec
    core_block: np.ndarray
    branch_blocks: tuple[np.ndarray, ...]
    reduced_block: np.ndarray


def _branch_block(row: tuple[float, ...], cores: int) -> np.ndarray:
    m = len(row)
    block = np.zeros((m, m))
    for j in range(m):
        nxt = row[j + 1] if j + 1 < m else 0.0
        # The head has one edge to each core.
        block[j, j] = 1.0 - (cores * row[j] if j == 0 else row[j]) - nxt
        if j + 1 < m:
            block[j, j + 1] = nxt
            block[j + 1, j] = nxt
    return block


def block_decomposition(spec: BranchSpec, weights: StratifiedWeights) -> BlockDecomposition:
    """Build the symmetry blocks from stratified weights."""
    _check_strata_shape(spec, weights)
    blocks = tuple(_branch_block(row, spec.cores) for row in weights.strata)

    total = sum(spec.lengths)
    reduced = np.zeros((total, total))
    core = np.zeros((total + 1, total + 1))
    offset = 0
    head_sum = 0.0
    for (m, n), row, block in zip(
        zip(spec.lengths, spec.counts), weights.strata, blocks
    ):
        reduced[offset : offset + m, offset : offset + m] = block
        core[1 + offset : 1 + offset + m, 1 + offset : 1 + offset + m] = block
        coupling = np.sqrt(spec.cores * n) * row[0]
        core[0, 1 + offset] = coupling
        core[1 + offset, 0] = coupling
        head_sum += n * row[0]
        offset += m
    core[0, 0] = 1.0 - head_sum
    return BlockDecomposition(
        spec=spec, core_block=core, branch_blocks=blocks, reduced_block=reduced
    )


def spectrum_union(decomp: BlockDecomposition) -> np.ndarray:
    """Multiset of eigenvalues the blocks predict for the full matrix, descending.

    The core block contributes once; each branch block contributes
    ``counts[p] - 1`` times; the core-replica eigenvalue, the core block's
    diagonal ``1 - sum n_p w1_p``, contributes ``cores - 1`` times.
    """
    spec = decomp.spec
    parts = [symmetric_eigenvalues(decomp.core_block)]
    for n, block in zip(spec.counts, decomp.branch_blocks):
        evals = symmetric_eigenvalues(block)
        parts.extend([evals] * (n - 1))
    parts.append(np.full(spec.cores - 1, decomp.core_block[0, 0]))
    return np.sort(np.concatenate(parts))[::-1]


def block_spectrum(spec: BranchSpec, weights: StratifiedWeights) -> np.ndarray:
    """Eigenvalues of the averaging matrix of ``weights``, descending, from the blocks."""
    return spectrum_union(block_decomposition(spec, weights))


def block_slem(spec: BranchSpec, weights: StratifiedWeights) -> float:
    """Second-largest eigenvalue modulus max(lambda_2, -lambda_min), from the blocks."""
    evals = block_spectrum(spec, weights)
    return float(max(evals[1], -evals[-1]))


@dataclass(frozen=True)
class InterlacingReport:
    """Interlacing of the reduced block inside the core block, plus the moduli tie.

    ``violations`` lists (index, gap) pairs where the interlacing inequality
    failed beyond tolerance.  ``moduli_spread`` is the largest pairwise gap
    between the absolute values of the three quantities that tie at the
    optimal weights: the reduced block's top eigenvalue, the core block's
    second eigenvalue, and the core minimum.  Absolute values matter: when
    the core block is 2x2 (single length-1 branch type) its second
    eigenvalue IS its minimum, so the tie holds in modulus only.
    """

    ok: bool
    violations: tuple[tuple[int, float], ...]
    reduced_top: float
    core_second: float
    core_lowest: float

    @property
    def moduli_spread(self) -> float:
        vals = (abs(self.reduced_top), abs(self.core_second), abs(self.core_lowest))
        return max(vals) - min(vals)


def interlacing_check(decomp: BlockDecomposition, *, tol: float = 1e-10) -> InterlacingReport:
    """Verify the reduced block's eigenvalues interlace the core block's.

    Requires every branch count >= 2; with a count of 1 the corresponding
    branch block does not appear in the full spectrum and the interlacing
    chain no longer identifies the matrix's second eigenvalue.
    """
    if any(n < 2 for n in decomp.spec.counts):
        raise ValueError("interlacing check requires every branch count >= 2")
    core = symmetric_eigenvalues(decomp.core_block)
    reduced = symmetric_eigenvalues(decomp.reduced_block)
    violations = []
    for j in range(len(reduced)):
        upper = core[j] - reduced[j]
        lower = reduced[j] - core[j + 1]
        if upper < -tol:
            violations.append((j, float(-upper)))
        if lower < -tol:
            violations.append((j, float(-lower)))
    return InterlacingReport(
        ok=not violations,
        violations=tuple(violations),
        reduced_top=float(reduced[0]),
        core_second=float(core[1]),
        core_lowest=float(core[-1]),
    )


def stationary_vector(spec: BranchSpec) -> np.ndarray:
    """Unit eigenvector of the core block at eigenvalue one.

    Entry 0 (the core coordinate) is ``sqrt(cores)`` and each branch
    coordinate of type ``p`` is ``sqrt(counts[p])``, normalized: the
    all-ones vector in the symmetry-adapted basis.  The core block fixes it
    for any stratified weights.
    """
    total = sum(spec.lengths)
    v = np.ones(total + 1)
    v[0] = np.sqrt(spec.cores)
    offset = 1
    for m, n in zip(spec.lengths, spec.counts):
        v[offset : offset + m] = np.sqrt(n)
        offset += m
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class IncidenceFactors:
    """Rank-one factor vectors of the symmetry blocks.

    ``reduced[p-1][i-1]`` (length ``sum(lengths)``) and ``core[p-1][i-1]``
    (one longer, with the center coordinate first) satisfy, for arbitrary
    stratified weights ``w``::

        reduced_block = I - sum w[p][i] * r r^T
        core_block    = I - sum w[p][i] * c c^T

    They play the role of signed incidence vectors of the quotient graph:
    the head factor of the core block is ``-sqrt(counts[p]) e_0 +
    sqrt(cores) e_head``, that of the reduced block ``sqrt(cores) e_head``,
    and every deeper factor is a plain difference.
    """

    reduced: tuple[tuple[np.ndarray, ...], ...]
    core: tuple[tuple[np.ndarray, ...], ...]


def incidence_factors(spec: BranchSpec) -> IncidenceFactors:
    total = sum(spec.lengths)
    head = np.sqrt(spec.cores)
    reduced_rows = []
    core_rows = []
    offset = 0
    for m, n in zip(spec.lengths, spec.counts):
        reduced_row = []
        core_row = []
        for i in range(1, m + 1):
            r = np.zeros(total)
            c = np.zeros(total + 1)
            if i == 1:
                r[offset] = head
                c[0] = -np.sqrt(n)
                c[1 + offset] = head
            else:
                r[offset + i - 2] = -1.0
                r[offset + i - 1] = 1.0
                c[offset + i - 1] = -1.0
                c[offset + i] = 1.0
            reduced_row.append(r)
            core_row.append(c)
        reduced_rows.append(tuple(reduced_row))
        core_rows.append(tuple(core_row))
        offset += m
    return IncidenceFactors(reduced=tuple(reduced_rows), core=tuple(core_rows))


def blocks_from_factors(
    spec: BranchSpec, weights: StratifiedWeights, factors: IncidenceFactors | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild (reduced_block, core_block) from the rank-one expansions."""
    if factors is None:
        factors = incidence_factors(spec)
    total = sum(spec.lengths)
    reduced = np.eye(total)
    core = np.eye(total + 1)
    for row, r_vecs, c_vecs in zip(weights.strata, factors.reduced, factors.core):
        for w, r, c in zip(row, r_vecs, c_vecs):
            reduced -= w * np.outer(r, r)
            core -= w * np.outer(c, c)
    return reduced, core
