import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import specs_with_weights
from dense_oracles import dense_trace, philox_states
from starmix import (
    BranchSpec,
    best_constant_weights,
    build_network,
    max_degree_weights,
    metropolis_weights,
    optimal_weights,
)
from starmix import sim
from starmix.sim import ConvergenceTrace, SimulationConfig, run_trials
from starmix.spectral import assemble_weight_matrix, edge_form, slem

THREE_PATH = BranchSpec(lengths=(1,), counts=(2,), cores=1)
SEVEN_NODES = BranchSpec(lengths=(1, 2), counts=(2, 2), cores=1)
COMPARISON = BranchSpec(lengths=(1, 2, 3), counts=(4, 3, 2), cores=1)
SCHEMES = {
    "optimal": lambda network: optimal_weights(network.spec),
    "metropolis": metropolis_weights,
    "max_degree": max_degree_weights,
    "best_constant": best_constant_weights,
}


def assert_trace_matches_oracle(network, weights, config):
    """Entries of at least 1e-8 agree with the dense oracle to 1e-9 relative."""
    trace = np.array(run_trials(edge_form(network, weights), config).errors)
    oracle = dense_trace(network, weights, config)
    kept = oracle >= 1e-8
    assert np.all(np.abs(trace[kept] - oracle[kept]) <= 1e-9 * oracle[kept])


def three_path_form():
    network = build_network(THREE_PATH)
    return edge_form(network, optimal_weights(THREE_PATH))


def three_path_matrix():
    network = build_network(THREE_PATH)
    return assemble_weight_matrix(network, optimal_weights(THREE_PATH))


class TestConsensusStep:
    def test_all_ones_is_fixed(self):
        form = three_path_form()
        assert np.allclose(form.apply(np.ones(3)), np.ones(3), atol=1e-15)

    def test_unit_impulse_on_tip(self):
        # Node order is (core, tip, tip); a unit value on the first tip
        # spreads half to itself and half to the core.
        out = three_path_form().apply(np.array([0.0, 1.0, 0.0]))
        assert np.allclose(out, [0.5, 0.5, 0.0], atol=1e-15)

    def test_mean_preserved(self):
        rng = np.random.default_rng(5)
        form = three_path_form()
        x = rng.random(3)
        start_mean = x.mean()
        for _ in range(50):
            x = form.apply(x)
            assert abs(x.mean() - start_mean) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            three_path_form().apply(np.ones(4))

    @settings(deadline=None)
    @given(case=specs_with_weights(), columns=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_product(self, case, columns, seed):
        spec, weights = case
        network = build_network(spec)
        form = edge_form(network, weights)
        x = np.random.default_rng(seed).random((network.node_count, columns))
        dense = assemble_weight_matrix(network, weights) @ x
        assert len(form) == network.node_count
        assert np.max(np.abs(form.apply(x) - dense)) <= 1e-14 * max(1.0, np.abs(dense).max())
        out = np.empty_like(x)
        assert form.apply(x, out=out) is out
        assert np.array_equal(out, form.apply(x))

    def test_vector_written_into_out(self):
        network = build_network(SEVEN_NODES)
        weights = optimal_weights(SEVEN_NODES)
        x = np.random.default_rng(2).random(network.node_count)
        out = np.full(network.node_count, np.nan)
        assert edge_form(network, weights).apply(x, out=out) is out
        dense = assemble_weight_matrix(network, weights) @ x
        assert np.max(np.abs(out - dense)) <= 1e-15

    def test_out_sharing_memory_rejected(self):
        form = edge_form(build_network(SEVEN_NODES), optimal_weights(SEVEN_NODES))
        x = np.random.default_rng(3).random((len(form), 4))
        for out in (x, x[::-1], x[:, ::-1]):
            with pytest.raises(ValueError, match="share memory"):
                form.apply(x, out=out)
        padded = np.zeros((len(form) + 2, 4))
        padded[1:-1] = x
        window = np.lib.stride_tricks.sliding_window_view(padded, 3, axis=0)
        with pytest.raises(ValueError, match="share memory"):
            form.step(window, out=padded[1:-1])


class TestInitialStates:
    @pytest.mark.parametrize("n", [2, 3, 17, 1401])
    @pytest.mark.parametrize("seed", [0, 1, -1, 2**63, 2**64 + 7, 12345678901234567890])
    def test_bitwise_equal_to_per_trial_philox(self, n, seed):
        # Enough trials to span several chunks at n = 17 and n = 1401.
        config = SimulationConfig(trials=25 if n > 100 else 700, iterations=0, seed=seed)
        states = sim._initial_states(np.empty((n, config.trials)), config.seed)
        assert np.array_equal(states, philox_states(n, config))

    @settings(deadline=None)
    @given(n=st.integers(1, 23), offset=st.integers(0, 70), seed=st.integers(-(2**64), 2**65))
    def test_stream_offsets(self, n, offset, seed):
        seed_word = seed & ((1 << 64) - 1)
        trials = np.array([0, 5, 2**40], dtype=np.uint64)
        drawn = sim._philox_uniform(seed_word, trials, n, offset)
        for row, trial in zip(drawn, trials):
            rng = np.random.Generator(np.random.Philox(key=(seed_word << 64) | int(trial)))
            assert np.array_equal(row, rng.random(offset + n)[offset:])

    def test_flat_draw_continues_its_stream(self, monkeypatch):
        # Force trial 3's first draw to be flat: it must be redrawn from
        # outputs n .. 2n - 1 of its own stream, as the per-trial loop does.
        n, config = 5, SimulationConfig(trials=6, iterations=0, seed=11)
        kernel = sim._philox_uniform

        def flat_first_draw(seed_word, trials, size, offset):
            draws = kernel(seed_word, trials, size, offset)
            if offset == 0:
                draws[trials == 3] = 0.25
            return draws

        monkeypatch.setattr(sim, "_philox_uniform", flat_first_draw)
        states = sim._initial_states(np.empty((n, config.trials)), config.seed)
        expected = philox_states(n, config)
        rng = np.random.Generator(np.random.Philox(key=(11 << 64) | 3))
        expected[:, 3] = rng.random(2 * n)[n:]
        assert np.array_equal(states, expected)


class TestRunTrials:
    def test_zero_iterations_trace(self):
        trace = run_trials(
            three_path_form(), SimulationConfig(trials=1, iterations=0, seed=42)
        )
        assert trace.errors == (1.0,)

    def test_seed_determinism(self):
        config = SimulationConfig(trials=64, iterations=40, seed=1234)
        form = three_path_form()
        first = run_trials(form, config)
        second = run_trials(form, config)
        assert first.errors == second.errors

    def test_different_seeds_differ(self):
        form = three_path_form()
        a = run_trials(form, SimulationConfig(trials=16, iterations=10, seed=1))
        b = run_trials(form, SimulationConfig(trials=16, iterations=10, seed=2))
        assert a.errors != b.errors

    def test_normalized_start_and_monotone_decay(self):
        trace = run_trials(three_path_form(), SimulationConfig(trials=50, iterations=80, seed=9))
        assert trace.errors[0] == 1.0
        diffs = np.diff(np.array(trace.errors))
        # Symmetric contraction: the deviation norm shrinks every step.
        assert np.all(diffs <= 1e-15)

    def test_mean_preserved_across_trace(self):
        spec = BranchSpec(lengths=(1, 2), counts=(2, 2), cores=1)
        network = build_network(spec)
        form = edge_form(network, optimal_weights(spec))
        rng = np.random.default_rng(11)
        states = rng.random((network.node_count, 20))
        start_means = states.mean(axis=0)
        for _ in range(120):
            states = form.apply(states)
        assert np.max(np.abs(states.mean(axis=0) - start_means)) <= 1e-10

    @settings(deadline=None, max_examples=40)
    @given(
        case=specs_with_weights(),
        trials=st.integers(1, 6),
        iterations=st.integers(0, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_dense_oracle(self, case, trials, iterations, seed):
        spec, weights = case
        config = SimulationConfig(trials=trials, iterations=iterations, seed=seed)
        assert_trace_matches_oracle(build_network(spec), weights, config)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize(
        "spec, iterations",
        [
            (BranchSpec(lengths=(1,), counts=(1,), cores=1), 40),
            (BranchSpec(lengths=(1000,), counts=(3,), cores=1), 20),
            (COMPARISON, 300),
        ],
        ids=["two-node", "long-branch", "comparison"],
    )
    def test_schemes_match_dense_oracle(self, spec, iterations, scheme):
        network = build_network(spec)
        config = SimulationConfig(trials=4, iterations=iterations, seed=17)
        assert_trace_matches_oracle(network, SCHEMES[scheme](network), config)

    def test_optimal_trace_reaches_rounding_floor(self):
        # The deviation is stepped itself, so nothing holds the error at the
        # consensus value's rounding (about 3e-15): it falls monotonically to
        # its own floor.
        network = build_network(COMPARISON)
        form = edge_form(network, optimal_weights(COMPARISON))
        errors = run_trials(form, SimulationConfig(trials=1000, iterations=500, seed=0)).errors
        assert np.all(np.diff(errors) <= 0.0)
        assert errors[-1] < 1e-15

    def test_rate_law_on_three_path(self):
        rate = slem(three_path_matrix())
        trace = run_trials(three_path_form(), SimulationConfig(trials=200, iterations=60, seed=7))
        fitted = trace.fitted_decay_rate()
        assert abs(np.log(fitted) - np.log(rate)) <= 0.02 * abs(np.log(rate))

    def test_decay_property(self):
        trace = ConvergenceTrace(errors=(1.0, 0.5, 0.25))
        assert trace.decay == (0.5, 0.5)

    def test_per_trial_dump(self):
        form = three_path_form()
        config = SimulationConfig(trials=8, iterations=6, seed=3)
        trace = run_trials(form, config, keep_trials=True)
        assert trace.per_trial.shape == (7, 8)
        assert np.allclose(trace.per_trial.mean(axis=1), trace.errors)
        assert run_trials(form, config).per_trial is None

    def test_fit_requires_signal(self):
        with pytest.raises(ValueError):
            ConvergenceTrace(errors=(1.0, 1e-16, 1e-16)).fitted_decay_rate()

    def test_noise_floor_points_excluded(self):
        # Geometric decay down to an artificial floor; the fit must ignore
        # the flat tail.
        rate = 0.8
        errors = [max(rate**t, 1e-14) for t in range(200)]
        errors[0] = 1.0
        fitted = ConvergenceTrace(errors=tuple(errors)).fitted_decay_rate(floor=1e-13)
        assert fitted == pytest.approx(rate, rel=1e-6)


class TestConfigValidation:
    @pytest.mark.parametrize("trials, iterations", [(0, 1), (-1, 1), (1, -1)])
    def test_rejects_bad_config(self, trials, iterations):
        with pytest.raises(ValueError):
            SimulationConfig(trials=trials, iterations=iterations, seed=0)
