"""Construction of star-of-paths networks with one or more central cores.

A network is described per branch type: ``counts[p]`` path branches of
``lengths[p]`` nodes each, with every branch head attached to all ``cores``
mutually non-adjacent central nodes.  Node indexing is fixed (cores first,
then branch nodes ordered by type, instance, position) so matrices and
serialized outputs are reproducible bit-for-bit.

Edges are grouped into strata: the equivalence classes of edges under the
symmetry that permutes branches of equal length.  Stratum ``(p, 1)`` holds
every core-to-head edge of branch type ``p``; stratum ``(p, i)`` for
``i >= 2`` holds the i-th edge along each branch of that type.  Weight
schemes that respect the network symmetry are constant on each stratum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BranchSpec:
    """Topology parameters: branch lengths, branch counts, core count.

    ``lengths[p]`` is the number of nodes in each branch of type ``p`` and
    ``counts[p]`` how many such branches the network has.  ``cores`` is the
    number of parallel central nodes (1 for a plain star).  Branch types
    must have distinct lengths; callers holding duplicate lengths can
    consolidate them with :func:`merge_duplicate_lengths` first.
    """

    lengths: tuple[int, ...]
    counts: tuple[int, ...]
    cores: int = 1

    def __post_init__(self) -> None:
        lengths = tuple(int(m) for m in self.lengths)
        counts = tuple(int(n) for n in self.counts)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "cores", int(self.cores))
        if len(lengths) == 0:
            raise ValueError("at least one branch type is required")
        if len(lengths) != len(counts):
            raise ValueError(
                f"lengths and counts disagree: {len(lengths)} != {len(counts)}"
            )
        if any(m < 1 for m in lengths):
            raise ValueError(f"branch lengths must be >= 1, got {lengths}")
        if any(n < 1 for n in counts):
            raise ValueError(f"branch counts must be >= 1, got {counts}")
        if self.cores < 1:
            raise ValueError(f"core count must be >= 1, got {self.cores}")
        if len(set(lengths)) != len(lengths):
            raise ValueError(
                f"duplicate branch lengths {lengths}; merge counts per length first"
            )

    @property
    def branch_types(self) -> int:
        return len(self.lengths)

    @property
    def node_count(self) -> int:
        return self.cores + sum(m * n for m, n in zip(self.lengths, self.counts))

    @property
    def edge_count(self) -> int:
        heads = self.cores * sum(self.counts)
        interior = sum((m - 1) * n for m, n in zip(self.lengths, self.counts))
        return heads + interior

    @property
    def stratum_count(self) -> int:
        return sum(self.lengths)

    @classmethod
    def from_dict(cls, data: dict) -> "BranchSpec":
        """Build from the topology-file schema {"m": [...], "n": [...], "K": int}."""
        try:
            lengths = tuple(data["m"])
            counts = tuple(data["n"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"topology object needs 'm' and 'n' arrays: {data!r}") from exc
        cores = data.get("K", 1)
        return cls(lengths=lengths, counts=counts, cores=cores)

    def to_dict(self) -> dict:
        return {"m": list(self.lengths), "n": list(self.counts), "K": self.cores}


def merge_duplicate_lengths(
    lengths: tuple[int, ...] | list[int],
    counts: tuple[int, ...] | list[int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Consolidate repeated lengths by summing their counts.

    Keeps the order of first occurrence.  Convenience pre-pass for callers;
    :class:`BranchSpec` itself rejects duplicates.
    """
    if len(lengths) != len(counts):
        raise ValueError("lengths and counts disagree")
    merged: dict[int, int] = {}
    for m, n in zip(lengths, counts):
        merged[int(m)] = merged.get(int(m), 0) + int(n)
    return tuple(merged.keys()), tuple(merged.values())


@dataclass(frozen=True)
class CoreNode:
    """One of the parallel central nodes, ``core`` in [1, K]."""

    core: int


@dataclass(frozen=True)
class BranchNode:
    """Node ``position`` (1 = next to the cores) on branch ``instance`` of type ``branch_type``."""

    branch_type: int
    instance: int
    position: int


NodeId = CoreNode | BranchNode


def node_index(spec: BranchSpec, node: NodeId) -> int:
    """Dense index of a node: cores first, then (type, instance, position) ascending."""
    if isinstance(node, CoreNode):
        if not 1 <= node.core <= spec.cores:
            raise ValueError(f"core {node.core} out of range [1, {spec.cores}]")
        return node.core - 1
    p, i, j = node.branch_type, node.instance, node.position
    if not 1 <= p <= spec.branch_types:
        raise ValueError(f"branch type {p} out of range [1, {spec.branch_types}]")
    m, n = spec.lengths[p - 1], spec.counts[p - 1]
    if not 1 <= i <= n:
        raise ValueError(f"branch instance {i} out of range [1, {n}]")
    if not 1 <= j <= m:
        raise ValueError(f"branch position {j} out of range [1, {m}]")
    base = spec.cores + sum(
        spec.lengths[q] * spec.counts[q] for q in range(p - 1)
    )
    return base + (i - 1) * m + (j - 1)


def node_at(spec: BranchSpec, index: int) -> NodeId:
    """Inverse of :func:`node_index`."""
    if not 0 <= index < spec.node_count:
        raise ValueError(f"index {index} out of range [0, {spec.node_count})")
    if index < spec.cores:
        return CoreNode(core=index + 1)
    rest = index - spec.cores
    for p, (m, n) in enumerate(zip(spec.lengths, spec.counts), start=1):
        block = m * n
        if rest < block:
            return BranchNode(branch_type=p, instance=rest // m + 1, position=rest % m + 1)
        rest -= block
    raise AssertionError("unreachable: index inside node_count")


@dataclass(frozen=True)
class EdgeStratum:
    """All edges sharing one symmetric role: position ``position`` along type ``branch_type``.

    ``position == 1`` is the core-to-head stratum (``cores * counts[p]`` edges);
    ``position >= 2`` strata have ``counts[p]`` edges each.
    """

    branch_type: int
    position: int
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class StarNetwork:
    """Concrete node/edge realization of a :class:`BranchSpec`.

    Nodes are addressed by dense index; ``nodes[k]`` recovers the structured
    id.  ``edges`` lists unordered pairs ``(u, v)`` with ``u < v`` in stratum
    order, and ``strata`` partitions that edge list.
    """

    spec: BranchSpec
    nodes: tuple[NodeId, ...]
    edges: tuple[tuple[int, int], ...]
    strata: tuple[EdgeStratum, ...]
    degrees: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return self.spec.node_count

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix in node-index order."""
        n = self.node_count
        adj = np.zeros((n, n))
        for u, v in self.edges:
            adj[u, v] = 1.0
            adj[v, u] = 1.0
        return adj


def build_network(spec: BranchSpec) -> StarNetwork:
    """Materialize nodes, edges and edge strata for a branch specification.

    Node ids and edges are computed per branch type from the indexing of
    :func:`node_index`: the branches of type ``p`` occupy ``base ..
    base + m n - 1``, branch ``i`` (0-based) starting at ``base + i m``.
    """
    k = spec.cores
    nodes: list[NodeId] = [CoreNode(core=c) for c in range(1, k + 1)]
    strata: list[EdgeStratum] = []
    base = k
    for p, (m, n) in enumerate(zip(spec.lengths, spec.counts), start=1):
        nodes.extend(
            BranchNode(branch_type=p, instance=i, position=j)
            for i in range(1, n + 1)
            for j in range(1, m + 1)
        )
        heads = range(base, base + m * n, m)
        core_links = tuple((c, head) for head in heads for c in range(k))
        strata.append(EdgeStratum(branch_type=p, position=1, edges=core_links))
        for j in range(2, m + 1):
            links = tuple((head + j - 2, head + j - 1) for head in heads)
            strata.append(EdgeStratum(branch_type=p, position=j, edges=links))
        base += m * n

    edges = tuple(e for stratum in strata for e in stratum.edges)
    if len(edges) != spec.edge_count:
        raise AssertionError(
            f"edge enumeration produced {len(edges)} edges, expected {spec.edge_count}"
        )
    if len(set(edges)) != len(edges):
        raise AssertionError("edge enumeration produced duplicates")

    degrees = [0] * spec.node_count
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1

    return StarNetwork(
        spec=spec,
        nodes=tuple(nodes),
        edges=edges,
        strata=tuple(strata),
        degrees=tuple(degrees),
    )


def edge_strata(network: StarNetwork) -> tuple[EdgeStratum, ...]:
    """The edge partition by symmetric role; one stratum per (type, position)."""
    return network.strata
