"""Weight-matrix forms, eigenvalue reports, and structural decompositions.

The averaging matrix ``W`` of a star-of-paths network has about ``2n``
non-zeros, and :func:`edge_form` holds exactly those: the diagonal, the
chain weights on the superdiagonal (cores come first and each branch is a
contiguous path in node order), and one head weight per branch type, the
weight of every core-to-head edge of that type.  The simulator applies
``W`` through :meth:`EdgeForm.step`, one band contraction, and
:func:`count_below` counts the eigenvalues of ``W`` below any probe by
Sylvester's law of inertia, eliminating each path from its tip to its head
and folding the heads into the core Schur complement (Jacobs & Trevisan
2011, "Locating the eigenvalues of trees").  Both cost O(n).

The full matrix block-diagonalizes under its branch- and core-permutation
symmetry into one core block coupling the symmetric core coordinate to a
representative of each branch type, ``counts[p] - 1`` copies of a
tridiagonal block per branch type, and the scalar core-replica eigenvalue
``1 - sum n_p w1_p`` repeated ``K - 1`` times (eigenvectors on differences
of core coordinates).  This module builds those blocks directly and
exposes the invariants that tie them together (spectrum union, Cauchy
interlacing, rank-one expansions), which is how the construction is
verified without ever materializing the symmetry-adapted basis.

Every spectrum of stratified weights the package reports comes from the
blocks (:func:`block_spectrum`, :func:`block_slem`), at a cost set by
``sum(lengths)`` rather than the node count; :func:`union_count_check`
holds the blocks' spectrum to the edge form's inertia counts.  The dense
``n x n`` matrix (:func:`assemble_weight_matrix`) and its ``eigvalsh``
(:func:`symmetric_eigenvalues`, :func:`slem`, :func:`spectral_report`) are
the oracle the tests hold both forms to; no command builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


@dataclass(frozen=True, eq=False)
class EdgeForm:
    """The non-zeros of the averaging matrix ``W``, in node order.

    Row ``i`` of the read-only ``(n, 3)`` ``band`` is ``[chain[i - 1],
    diagonal[i], chain[i]]``, zero past either end, where ``chain[k]`` is the
    weight of edge ``(k, k + 1)`` when both nodes lie on one branch, else 0.
    The heads of branch type ``p`` are the strided slice ``head_slices[p]``
    (``base : base + m n : m``), each joined to all ``cores`` core nodes with
    weight ``head_weights[p]``.  Each diagonal entry is one minus its
    off-diagonal row sum.  ``len(form)`` is the node count.
    """

    cores: int
    band: np.ndarray
    head_slices: tuple[slice, ...]
    head_weights: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.band)

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``W @ x`` for a vector or an ``(n, columns)`` array, into ``out`` if given.

        ``x`` is copied into a zero-padded buffer for :meth:`step`; ``out``
        must not share memory with ``x``.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[0] != len(self):
            raise ValueError(f"state dimension {x.shape[0]} does not match form {len(self)}")
        if out is not None and np.may_share_memory(x, out):
            raise ValueError("out must not share memory with x")
        padded = np.zeros((len(self) + 2,) + x.shape[1:])
        padded[1:-1] = x
        window = sliding_window_view(padded, 3, axis=0)
        return self.step(window, np.empty(x.shape) if out is None else out)

    def step(self, window: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``W @ x`` into ``out``, given ``sliding_window_view(p, 3, axis=0)``.

        ``p`` holds ``x`` in rows ``1 .. n`` and zeros in its first and last
        rows, so one contraction with ``band`` gives the tridiagonal part.
        """
        if np.may_share_memory(window, out):
            raise ValueError("out must not share memory with the state")
        np.einsum("i...k,ik->i...", window, self.band, out=out)
        x = window[..., 1]
        core_total = x[: self.cores].sum(axis=0)
        core_in = 0.0
        for heads, w in zip(self.head_slices, self.head_weights):
            out[heads] += w * core_total
            core_in = core_in + w * x[heads].sum(axis=0)
        out[: self.cores] += core_in
        return out

    def pairs(self) -> set[tuple[int, int]]:
        """Node pairs ``(u, v)``, ``u < v``, that the form joins by an edge."""
        found = {(int(k), int(k) + 1) for k in np.flatnonzero(self.band[:, 2])}
        for heads in self.head_slices:
            found.update((c, h) for h in range(len(self))[heads] for c in range(self.cores))
        return found


def edge_form(network: StarNetwork, weights: StratifiedWeights) -> EdgeForm:
    """The O(n) edge form of the averaging matrix of ``weights`` on ``network``."""
    spec = network.spec
    _check_strata_shape(spec, weights)
    n, k = spec.node_count, spec.cores
    band = np.zeros((n, 3))
    diagonal, chain = band[:, 1], band[:-1, 2]
    head_slices = []
    base = k
    for m, count, row in zip(spec.lengths, spec.counts, weights.strata):
        w = np.asarray(row, dtype=float)
        stop = base + m * count
        links = np.zeros(m)
        links[:-1] = w[1:]
        # Position j's row: the edge toward the cores (all K of them at the
        # head) plus the edge toward the tip.
        toward_core = np.concatenate(([k * w[0]], w[1:]))
        diagonal[base:stop] = np.tile(1.0 - (toward_core + links), count)
        chain[base : stop - 1] = np.tile(links, count)[:-1]
        head_slices.append(slice(base, stop, m))
        base = stop
    diagonal[:k] = 1.0 - sum(count * row[0] for count, row in zip(spec.counts, weights.strata))
    band[1:, 0] = chain
    band.setflags(write=False)
    return EdgeForm(
        cores=k,
        band=band,
        head_slices=tuple(head_slices),
        head_weights=tuple(float(row[0]) for row in weights.strata),
    )


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


# A zero pivot is replaced by minus this (as LAPACK's Sturm counts do): the
# count then treats the probe as lying just above a subtree eigenvalue.
_PIVMIN = np.finfo(float).tiny / np.finfo(float).eps


def _pivot(a: np.ndarray) -> np.ndarray:
    return np.where(a == 0.0, -_PIVMIN, a)


def count_below(form: EdgeForm, probes) -> np.ndarray:
    """Number of eigenvalues of ``W`` strictly below each probe, by inertia.

    ``W - x I`` is factored as ``L D L^T`` in an order that makes no fill:
    each path from its tip to its head (all branches of a type at once, all
    probes at once), then the cores.  Eliminating a head subtracts
    ``w^2 / pivot`` from every entry of the ``K x K`` core block, which is
    diagonal because cores are mutually non-adjacent, so the core Schur
    complement is a diagonal plus a rank-one matrix and its pivots follow
    from a scalar recurrence.  By Sylvester's law of inertia the count of
    negative pivots is the count of eigenvalues below ``x``.
    """
    x = np.asarray(probes, dtype=float)
    count = np.zeros(x.shape, dtype=int)
    fold = np.zeros(x.shape)
    for heads, w in zip(form.head_slices, form.head_weights):
        pivot = None
        length = heads.step
        for j in reversed(range(length)):
            nodes = slice(heads.start + j, heads.stop, length)
            a = form.band[nodes, 1][:, None] - x
            if pivot is not None:
                a -= form.band[nodes, 2][:, None] ** 2 / pivot
            pivot = _pivot(a)
            count += np.count_nonzero(pivot < 0.0, axis=0)
        fold += w * w * (1.0 / pivot).sum(axis=0)
    # Core block diag(d - x) - fold 1 1^T: eliminating one core leaves the
    # same shape with sigma -> sigma (d - x) / pivot.
    sigma = -fold
    for d in form.band[: form.cores, 1]:
        pivot = _pivot(d - x + sigma)
        count += pivot < 0.0
        sigma = sigma * (d - x) / pivot
    return count


@dataclass(frozen=True)
class UnionCount:
    """Inertia counts of ``W`` at the edges of the windows of a predicted spectrum.

    ``worst_error`` is the largest difference between an edge count and the
    predicted count below that edge.  ``first_bad`` is ``(lo, hi, counted,
    predicted)`` for the first window ``[lo, hi]`` whose counted
    multiplicity differs from the predicted one; ``None`` when every count
    agrees.
    """

    windows: int
    worst_error: int
    first_bad: tuple[float, float, int, int] | None

    @property
    def ok(self) -> bool:
        return self.worst_error == 0


def union_count_check(form: EdgeForm, union, *, tol: float = 1e-8) -> UnionCount:
    """Check a predicted spectrum of ``W``, multiplicities included, by counting.

    The predicted eigenvalues are grouped into windows: values within
    ``2 tol`` of each other share one, which spans ``tol`` beyond its
    extremes.  The eigenvalues of ``W`` counted below each window edge must
    equal the prediction's cumulative multiplicity there, so every
    eigenvalue of ``W`` lies within ``tol`` of a predicted window holding
    exactly as many.
    """
    values = np.sort(np.asarray(union, dtype=float))
    if len(values) != len(form):
        raise ValueError(f"{len(values)} predicted eigenvalues for {len(form)} nodes")
    starts = np.flatnonzero(np.r_[True, np.diff(values) > 2.0 * tol])
    ends = np.r_[starts[1:], len(values)]
    lo, hi = values[starts] - tol, values[ends - 1] + tol
    below_lo, below_hi = np.split(count_below(form, np.concatenate([lo, hi])), 2)
    errors = np.maximum(np.abs(below_lo - starts), np.abs(below_hi - ends))
    # With as many predicted eigenvalues as nodes, an edge count is off
    # exactly when some window's multiplicity is.
    counted, predicted = below_hi - below_lo, ends - starts
    bad = np.flatnonzero(counted != predicted)
    first_bad = None
    if len(bad):
        i = bad[0]
        first_bad = (float(lo[i]), float(hi[i]), int(counted[i]), int(predicted[i]))
    return UnionCount(
        windows=len(starts), worst_error=int(errors.max()), first_bad=first_bad
    )


@dataclass(frozen=True)
class InterlacingReport:
    """Interlacing of the reduced block inside the core block, plus the moduli tie.

    ``violations`` lists (index, gap) pairs where the interlacing inequality
    failed beyond tolerance.  ``moduli_spread`` is the largest pairwise gap
    between the absolute values of the quantities that tie at the optimal
    weights: the reduced block's top eigenvalue and the core minimum, plus,
    with two or more branch types, the core block's second eigenvalue.  With
    one branch type that eigenvalue is no part of the tie: it falls strictly
    inside (the top of the tie lives in the branch-block copies), or, when
    the core block is 2x2 (one length-1 branch type), it IS the minimum.
    Absolute values matter: the minimum ties in modulus only.
    """

    ok: bool
    violations: tuple[tuple[int, float], ...]
    reduced_top: float
    core_second: float
    core_lowest: float
    branch_types: int

    @property
    def moduli_spread(self) -> float:
        vals = (abs(self.reduced_top), abs(self.core_lowest))
        if self.branch_types >= 2:
            vals += (abs(self.core_second),)
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
        branch_types=decomp.spec.branch_types,
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
