import struct
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def wrapping_checkpoint(tmp_path):
    """A checkpoint header with dims (2^32 - 1, 2^32 - 1) and no data.

    The element count, 2^64 - 2^33 + 1, wraps negative in int64 arithmetic.
    """
    path = tmp_path / "huge.qhd1"
    path.write_bytes(b"QHD1" + struct.pack("<III", 1, 0, 1) + struct.pack("<H", 1) + b"a"
                     + struct.pack("<III", 2, 0xFFFFFFFF, 0xFFFFFFFF))
    return path
