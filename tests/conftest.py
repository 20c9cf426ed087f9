import numpy as np
import pytest
from hypothesis import strategies as st

from starmix import BranchSpec, StratifiedWeights


def make_random_spec(
    rng: np.random.Generator,
    *,
    max_types: int = 4,
    max_length: int = 6,
    min_count: int = 1,
    max_count: int = 4,
    cores: int = 1,
) -> BranchSpec:
    """Random valid branch specification with distinct lengths."""
    types = int(rng.integers(1, max_types + 1))
    lengths = tuple(
        int(v)
        for v in sorted(rng.choice(np.arange(1, max_length + 1), size=types, replace=False))
    )
    counts = tuple(int(rng.integers(min_count, max_count + 1)) for _ in range(types))
    return BranchSpec(lengths, counts, cores)


def random_strata(rng: np.random.Generator, spec: BranchSpec):
    """Arbitrary interior stratified weights for property tests."""
    return tuple(
        tuple(float(rng.uniform(0.05, 0.95)) for _ in range(m)) for m in spec.lengths
    )


@st.composite
def branch_specs(draw):
    """Specs in the ranges of ``make_random_spec``, with one to four cores."""
    lengths = sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=4)))
    size = len(lengths)
    counts = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    return BranchSpec(tuple(lengths), tuple(counts), draw(st.integers(1, 4)))


@st.composite
def specs_with_weights(draw):
    """A ``branch_specs`` spec with arbitrary interior stratified weights."""
    spec = draw(branch_specs())
    strata = tuple(
        tuple(draw(st.floats(0.05, 0.95)) for _ in range(m)) for m in spec.lengths
    )
    return spec, StratifiedWeights(scheme="random", strata=strata)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
