import numpy as np
import pytest
from hypothesis import given, settings

from conftest import branch_specs, make_random_spec
from starmix import (
    BranchSpec,
    BranchNode,
    CoreNode,
    build_network,
    edge_strata,
    merge_duplicate_lengths,
    node_at,
    node_index,
)


def test_demo_star_counts():
    spec = BranchSpec(lengths=(1, 2, 3), counts=(4, 3, 3), cores=1)
    network = build_network(spec)
    assert spec.node_count == 20
    assert len(network.edges) == 19
    assert len(network.strata) == 6


def test_three_node_path_counts():
    spec = BranchSpec(lengths=(1,), counts=(2,), cores=1)
    network = build_network(spec)
    assert spec.node_count == 3
    assert len(network.edges) == 2
    assert len(network.strata) == 1
    assert len(network.strata[0].edges) == 2


def test_two_core_example_against_enumeration_oracle():
    spec = BranchSpec(lengths=(2, 3, 4), counts=(3, 2, 2), cores=2)
    network = build_network(spec)
    assert spec.node_count == 22
    assert len(network.edges) == 2 * 7 + 13 == 27

    # Independent enumeration: every core-head pair plus every chain link.
    expected = set()
    for p, (m, n) in enumerate(zip(spec.lengths, spec.counts), start=1):
        for i in range(1, n + 1):
            head = node_index(spec, BranchNode(p, i, 1))
            for c in range(1, spec.cores + 1):
                core = node_index(spec, CoreNode(c))
                expected.add((min(core, head), max(core, head)))
            for j in range(2, m + 1):
                a = node_index(spec, BranchNode(p, i, j - 1))
                b = node_index(spec, BranchNode(p, i, j))
                expected.add((min(a, b), max(a, b)))
    assert set(network.edges) == expected


def test_two_core_strata_sizes():
    spec = BranchSpec(lengths=(2, 3, 4), counts=(3, 2, 2), cores=2)
    strata = edge_strata(build_network(spec))
    assert len(strata) == 2 + 3 + 4
    head = next(s for s in strata if s.branch_type == 1 and s.position == 1)
    assert len(head.edges) == spec.cores * spec.counts[0] == 6


@pytest.mark.parametrize("trial", range(12))
def test_strata_partition_edges(trial):
    rng = np.random.default_rng(100 + trial)
    spec = make_random_spec(rng, cores=int(rng.integers(1, 4)))
    network = build_network(spec)
    seen = [e for s in network.strata for e in s.edges]
    assert len(seen) == len(set(seen)) == len(network.edges)
    assert set(seen) == set(network.edges)
    assert len(network.strata) == spec.stratum_count


@pytest.mark.parametrize("trial", range(12))
def test_degree_profile(trial):
    rng = np.random.default_rng(200 + trial)
    spec = make_random_spec(rng, cores=int(rng.integers(1, 4)))
    network = build_network(spec)
    total_branches = sum(spec.counts)
    for k, node in enumerate(network.nodes):
        degree = network.degrees[k]
        if isinstance(node, CoreNode):
            assert degree == total_branches
        else:
            m = spec.lengths[node.branch_type - 1]
            if node.position == 1:
                assert degree == (spec.cores + 1 if m > 1 else spec.cores)
            elif node.position == m:
                assert degree == 1
            else:
                assert degree == 2


@pytest.mark.parametrize("trial", range(8))
def test_node_index_roundtrip(trial):
    rng = np.random.default_rng(300 + trial)
    spec = make_random_spec(rng, cores=int(rng.integers(1, 4)))
    for k in range(spec.node_count):
        assert node_index(spec, node_at(spec, k)) == k


@settings(deadline=None)
@given(spec=branch_specs())
def test_build_matches_node_index_enumeration(spec):
    # One node_at / node_index call per node and edge, as a reference for
    # the arithmetic enumeration.
    network = build_network(spec)
    assert network.nodes == tuple(node_at(spec, k) for k in range(spec.node_count))
    strata = []
    for p, (m, n) in enumerate(zip(spec.lengths, spec.counts), start=1):
        heads = [node_index(spec, BranchNode(p, i, 1)) for i in range(1, n + 1)]
        cores = [node_index(spec, CoreNode(c)) for c in range(1, spec.cores + 1)]
        strata.append((p, 1, tuple((c, h) for h in heads for c in cores)))
        for j in range(2, m + 1):
            links = tuple(
                (node_index(spec, BranchNode(p, i, j - 1)), node_index(spec, BranchNode(p, i, j)))
                for i in range(1, n + 1)
            )
            strata.append((p, j, links))
    assert [(s.branch_type, s.position, s.edges) for s in network.strata] == strata
    assert network.edges == tuple(e for _, _, edges in strata for e in edges)
    degrees = [0] * spec.node_count
    for u, v in network.edges:
        degrees[u] += 1
        degrees[v] += 1
    assert network.degrees == tuple(degrees)
    assert all(type(d) is int for d in network.degrees)
    assert all(type(u) is int and type(v) is int for u, v in network.edges)


def test_single_core_network_is_tree():
    rng = np.random.default_rng(7)
    for _ in range(6):
        spec = make_random_spec(rng, cores=1)
        network = build_network(spec)
        assert len(network.edges) == spec.node_count - 1


def test_centers_mutually_nonadjacent():
    spec = BranchSpec(lengths=(1, 2), counts=(2, 2), cores=3)
    network = build_network(spec)
    for u, v in network.edges:
        assert not (u < spec.cores and v < spec.cores)


@pytest.mark.parametrize(
    "lengths, counts, cores",
    [
        ((), (), 1),
        ((1, 2), (1,), 1),
        ((0,), (1,), 1),
        ((1,), (0,), 1),
        ((1,), (1,), 0),
        ((2, 2), (1, 1), 1),
    ],
)
def test_invalid_specs_rejected(lengths, counts, cores):
    with pytest.raises(ValueError):
        BranchSpec(lengths=lengths, counts=counts, cores=cores)


def test_merge_duplicate_lengths():
    lengths, counts = merge_duplicate_lengths((2, 3, 2), (1, 4, 2))
    assert lengths == (2, 3)
    assert counts == (3, 4)
    BranchSpec(lengths, counts, 1)


def test_from_dict_roundtrip():
    spec = BranchSpec.from_dict({"m": [1, 2], "n": [3, 4], "K": 2})
    assert spec.to_dict() == {"m": [1, 2], "n": [3, 4], "K": 2}
    assert BranchSpec.from_dict({"m": [2], "n": [1]}).cores == 1
    with pytest.raises(ValueError):
        BranchSpec.from_dict({"n": [1]})
