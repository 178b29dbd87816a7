"""Seed derivation: stability, role separation, and sensitivity."""

import numpy as np
import pytest

from csbm.seeds import (
    ROLE_EDGE_HOLDOUT,
    ROLE_LABELS,
    ROLE_PARENT_EDGES,
    ROLE_SUBSAMPLE,
    cell_key,
    fold_bytes,
    splitmix64,
    stream,
    trial_seed,
)

MASK = (1 << 64) - 1


def reference_splitmix64(x):
    # Transcribed from the published splitmix64 reference (Steele/Vigna).
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def test_splitmix64_published_vector():
    # First output of the splitmix64 stream seeded with 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_matches_reference():
    rng = np.random.default_rng(0)
    for x in rng.integers(0, 1 << 63, size=200):
        assert splitmix64(int(x)) == reference_splitmix64(int(x))


def test_splitmix64_frozen_values():
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert splitmix64(42) == 0xBDD732262FEB6E95


def test_stream_is_deterministic():
    a = stream(123, ROLE_LABELS).integers(0, 1 << 32, size=16)
    b = stream(123, ROLE_LABELS).integers(0, 1 << 32, size=16)
    assert np.array_equal(a, b)


def test_stream_roles_are_separated():
    draws = {
        role: tuple(stream(7, role).integers(0, 1 << 32, size=8))
        for role in (ROLE_LABELS, ROLE_PARENT_EDGES, ROLE_SUBSAMPLE, ROLE_EDGE_HOLDOUT)
    }
    values = list(draws.values())
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert values[i] != values[j]


def test_stream_rejects_negative_seed():
    with pytest.raises(ValueError):
        stream(-1, ROLE_LABELS)


@pytest.mark.parametrize("seed", [1.5, True, "1"])
def test_stream_rejects_a_seed_that_is_not_a_whole_number(seed):
    with pytest.raises(ValueError, match="^seed "):
        stream(seed, ROLE_LABELS)


def test_fold_bytes_sensitive_to_order():
    h0 = splitmix64(0)
    assert fold_bytes(h0, b"abcdefgh" + b"12345678") != fold_bytes(
        h0, b"12345678" + b"abcdefgh"
    )
    assert fold_bytes(h0, b"") == h0


def test_cell_key_sensitive_to_every_field():
    base = (3000, 9.0, 1.0, 0.4, 3, 13)
    key = cell_key(*base)
    variants = [
        (3001, 9.0, 1.0, 0.4, 3, 13),
        (3000, 9.5, 1.0, 0.4, 3, 13),
        (3000, 9.0, 1.5, 0.4, 3, 13),
        (3000, 9.0, 1.0, 0.5, 3, 13),
        (3000, 9.0, 1.0, 0.4, 2, 13),
        (3000, 9.0, 1.0, 0.4, 3, 12),
    ]
    for variant in variants:
        assert cell_key(*variant) != key


def test_cell_key_frozen_value():
    assert cell_key(3000, 9.0, 1.0, 0.4, 3, 13) == 16112085491285395310


def test_trial_seed_depends_only_on_inputs():
    key = cell_key(3000, 9.0, 1.0, 0.4, 3, 13)
    assert trial_seed(0, key, 0) == 7271695624262909923
    assert trial_seed(0, key, 1) == 15721564824173958972
    seen = {trial_seed(0, key, t) for t in range(100)}
    assert len(seen) == 100
    assert trial_seed(1, key, 0) != trial_seed(0, key, 0)


def test_trial_seed_feeds_stream():
    # Derived seeds can exceed 2**63; the stream constructor must accept them.
    key = cell_key(100, 2.0, 1.0, 0.9, 2, 1)
    g = stream(trial_seed(3, key, 5), ROLE_LABELS)
    assert g.integers(0, 10, size=4).shape == (4,)
