"""Averaging-iteration simulator: x(t+1) = W x(t) over many random trials.

``W`` is applied through its O(n) edge form (:func:`starmix.spectral.edge_form`)
as a banded stencil, never as an ``n x n`` matrix.  Each trial draws
i.i.d. uniform [0, 1) initial node values from its own counter-based
Philox substream, keyed by (seed, trial index) in disjoint 64-bit words,
so traces are reproducible regardless of execution order and distinct
seeds never share streams.  (A plain seed-XOR-trial key would reuse one
key set across nearby seeds and leave the trial mean seed-independent.)
The streams are generated for many trials at once by a vectorized
Philox4x64-10 kernel, bit-identical to ``np.random.Philox`` with the same
key.  The reported trace is the per-iteration mean over trials of the
normalized consensus error
``||x(t) - mean(x(0)) 1|| / ||x(0) - mean(x(0)) 1||``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import EdgeForm

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SimulationConfig:
    trials: int = 10_000
    iterations: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


@dataclass(frozen=True)
class ConvergenceTrace:
    """Mean normalized consensus error per iteration; errors[0] == 1 exactly.

    ``per_trial`` (iterations+1, trials) is populated only when requested;
    the mean trace is what the comparisons use.
    """

    errors: tuple[float, ...]
    per_trial: np.ndarray | None = None

    @property
    def decay(self) -> tuple[float, ...]:
        """Per-step geometric decay estimates errors[t+1] / errors[t]."""
        e = self.errors
        return tuple(
            e[t + 1] / e[t] if e[t] > 0.0 else float("nan") for t in range(len(e) - 1)
        )

    def fitted_decay_rate(
        self, *, window_fraction: float = 1.0 / 3.0, floor: float = 1e-13
    ) -> float:
        """Asymptotic per-step decay from a log-linear fit over the trailing window.

        Points at or below ``floor`` are dropped: once the error reaches the
        double-precision consensus residual it stops decaying and would bias
        the slope.  Falls back to every usable point when the window keeps
        fewer than two.
        """
        e = np.asarray(self.errors)
        t = np.arange(len(e))
        start = int(len(e) * (1.0 - window_fraction))
        usable = (e > floor) & (t >= start)
        if int(usable.sum()) < 2:
            usable = e > floor
        if int(usable.sum()) < 2:
            raise ValueError("trace has fewer than two points above the noise floor")
        slope = np.polyfit(t[usable], np.log(e[usable]), 1)[0]
        return float(np.exp(slope))


# Philox4x64-10 constants (Salmon, Moraes, Dror & Shaw 2011, "Parallel
# random numbers: as easy as 1, 2, 3"), as numpy's Philox uses them.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox blocks (four draws each) generated at once: bounds transient memory.
_CHUNK_BLOCKS = 4096


def _mulhilo(a: np.ndarray, multiplier: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of ``a * multiplier``, from 32-bit halves."""
    m_lo, m_hi = np.uint64(multiplier & 0xFFFFFFFF), np.uint64(multiplier >> 32)
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    lo_lo, lo_hi, hi_lo = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    carry = (lo_lo >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    hi = a_hi * m_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (carry >> _SHIFT32)
    return hi, a * np.uint64(multiplier)


def _philox_uniform(seed_word: int, trials: np.ndarray, n: int, offset: int) -> np.ndarray:
    """Draws ``offset .. offset + n - 1`` of each trial's stream, one row per trial.

    Trial ``t``'s stream is ``np.random.Generator(np.random.Philox(key=(seed_word
    << 64) | t)).random``: the key words are ``(t, seed_word)``, block ``b``
    is Philox4x64-10 at counter ``(b + 1, 0, 0, 0)``, and each 64-bit word
    ``u`` becomes the double ``(u >> 11) * 2**-53``.
    """
    first = offset // 4
    blocks = (offset + n + 3) // 4 - first
    counter = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)
    shape = (len(trials), blocks)
    c0 = np.broadcast_to(counter, shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0 = trials.astype(np.uint64)[:, None]
    for r in range(10):
        bump0 = np.uint64((r * _PHILOX_W0) & _SEED_MASK)
        k1 = np.uint64((seed_word + r * _PHILOX_W1) & _SEED_MASK)
        hi0, lo0 = _mulhilo(c0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ (k0 + bump0), lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(trials), 4 * blocks)
    skip = offset - 4 * first
    return (words[:, skip : skip + n] >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _initial_states(n: int, config: SimulationConfig) -> np.ndarray:
    """Column-per-trial initial values; trials with no consensus deviation are redrawn.

    A redrawn trial continues its own stream: draw ``k`` is outputs
    ``k n .. k n + n - 1``.
    """
    states = np.empty((n, config.trials))
    seed_word = config.seed & _SEED_MASK
    chunk = max(1, _CHUNK_BLOCKS // ((n + 3) // 4 + 1))
    for start in range(0, config.trials, chunk):
        trials = np.arange(start, min(start + chunk, config.trials), dtype=np.uint64)
        x = _philox_uniform(seed_word, trials, n, 0)
        draw = 0
        flat = np.linalg.norm(x - x.mean(axis=1, keepdims=True), axis=1) < 1e-12
        while flat.any():
            draw += 1
            x[flat] = _philox_uniform(seed_word, trials[flat], n, draw * n)
            flat[flat] = np.linalg.norm(
                x[flat] - x[flat].mean(axis=1, keepdims=True), axis=1
            ) < 1e-12
        states[:, start : start + len(trials)] = x.T
    return states


def _deviation_norms(states: np.ndarray, targets: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-column ``||x - mean||``, with ``out`` holding the deviations."""
    np.subtract(states, targets, out=out)
    return np.sqrt(np.einsum("ij,ij->j", out, out))


def run_trials(
    form: EdgeForm, config: SimulationConfig, *, keep_trials: bool = False
) -> ConvergenceTrace:
    """Mean normalized-error trace of the averaging iteration.

    Deterministic given the config seed.  All trials advance in lockstep as
    the columns of one ``(n, trials)`` array, stepped by the edge form's
    banded stencil; three such arrays are kept, the step scratch doubling
    as the deviation buffer.  The mean over trials is a fixed-order
    pairwise reduction, so results do not depend on scheduling.
    ``keep_trials`` additionally records every trial's own error trace.
    """
    states = _initial_states(len(form), config)
    nxt = np.empty_like(states)
    scratch = np.empty_like(states)
    targets = states.mean(axis=0)
    scale = _deviation_norms(states, targets, scratch)

    errors = [1.0]
    per_trial = [np.ones(config.trials)] if keep_trials else None
    for _ in range(config.iterations):
        form.apply(states, out=nxt, scratch=scratch)
        states, nxt = nxt, states
        normalized = _deviation_norms(states, targets, scratch) / scale
        errors.append(float(np.mean(normalized)))
        if per_trial is not None:
            per_trial.append(normalized)
    return ConvergenceTrace(
        errors=tuple(errors),
        per_trial=np.array(per_trial) if per_trial is not None else None,
    )
