"""Deterministic RNG streams."""
from __future__ import annotations

import pytest

from qhead.seeding import stream


@pytest.mark.parametrize("seed, path", [(-1, ()), (0, (4, -2))], ids=["seed", "path_entry"])
def test_negative_stream_entries_rejected(seed, path):
    with pytest.raises(ValueError, match="seed path entries must be non-negative"):
        stream(seed, *path)
