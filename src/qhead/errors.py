"""Exception types shared across the package, and the UTF-8 decoder that raises them."""


class ConfigurationError(ValueError):
    """A parameter, index, or shape is outside the supported range."""


class DegenerateInputError(ValueError):
    """An input vector is too close to zero to be normalized safely."""


class DataFormatError(ValueError):
    """A dataset or checkpoint file does not match its on-disk layout."""


class DataError(ValueError):
    """File contents are structurally valid but semantically wrong."""


class UnsupportedModeError(RuntimeError):
    """The requested evaluation mode is not available for this operation."""


def decode_utf8(blob: bytes, error: type[ValueError], what, offset: int = 0) -> str:
    """``blob`` as text; a non-UTF-8 byte raises ``error`` naming its line and file offset."""
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise error(f"{what}: line {line} is not UTF-8 (byte {offset + exc.start})") from None
