"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro.fsm.dfa import DFA


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator; tests derive all randomness from it."""
    return np.random.default_rng(12345)


def make_random_dfa(
    num_states: int, num_inputs: int, seed: int, accepting_fraction: float = 0.3
) -> DFA:
    """Uniform random complete DFA (deterministic in ``seed``)."""
    return DFA.random(
        num_states, num_inputs, rng=seed, accepting_fraction=accepting_fraction
    )


def random_input(
    num_inputs: int, length: int, seed: int
) -> np.ndarray:
    """Random symbol-id stream for a machine with ``num_inputs`` symbols."""
    return (
        np.random.default_rng(seed)
        .integers(0, num_inputs, size=length)
        .astype(np.int32)
    )


def native_builds() -> bool:
    """Whether a C compiler builds a kernel here, not just loads a cached one.

    The probe compiles into a fresh artifact directory: with ``CC=/bin/false``
    a warm artifact cache still loads every kernel compiled into it before,
    so a probe through that cache reports a compiler that is not there.
    """
    from repro.core.native import load_native_plan, native_available

    if not native_available():
        return False
    with tempfile.TemporaryDirectory() as fresh:
        probe = DFA.random(4, 3, rng=0)
        return load_native_plan(probe, k=1, cache_dir=fresh) is not None
