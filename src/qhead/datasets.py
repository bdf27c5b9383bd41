"""Embedding datasets: binary/CSV ingestion, split construction, synthetic data.

Binary layout ("EMB1", all little-endian):

    bytes 0-3   magic "EMB1"
    u32         dim
    u32         count
    data        count rows of dim float32 values
    labels      count uint8 class indices

The CSV form is one header line ``label,f0,...,f{dim-1}`` followed by one row
per sample; both encodings describe the identical in-memory dataset.
"""
from __future__ import annotations

import io
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import seeding
from .errors import ConfigurationError, DataError, DataFormatError, decode_utf8

MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sII")
# vectors are stored as float32; a larger value would become inf
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass
class EmbeddingDataset:
    """Labeled embedding vectors plus optional train/val/test index splits."""

    vectors: np.ndarray  # (count, dim) float32
    labels: np.ndarray  # (count,) int64
    train_idx: np.ndarray | None = None
    val_idx: np.ndarray | None = None
    test_idx: np.ndarray | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.vectors.ndim != 2:
            raise ConfigurationError(f"vectors must be 2-D, got shape {self.vectors.shape}")
        if self.labels.shape != (len(self.vectors),):
            raise ConfigurationError(
                f"got {len(self.labels)} labels for {len(self.vectors)} vectors"
            )

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.vectors)

    def split_indices(self, split: str) -> np.ndarray:
        idx = {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx}.get(split)
        if idx is None:
            raise ConfigurationError(f"dataset has no {split!r} split")
        return idx

    def split_arrays(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        idx = self.split_indices(split)
        return self.vectors[idx], self.labels[idx]


def _check_labels(labels: np.ndarray, num_classes: int | None) -> None:
    """Every label must lie in [0, num_classes), or be >= 0 when the count is open."""
    bad = labels < 0
    if num_classes is not None:
        bad |= labels >= num_classes
    if bad.any():
        where = f" for {num_classes} classes" if num_classes is not None else ""
        raise DataError(f"label {int(labels[bad][0])} out of range{where}")


def save_embeddings_binary(dataset: EmbeddingDataset, path) -> None:
    if len(dataset) > 0xFFFFFFFF or dataset.dim > 0xFFFFFFFF:
        raise ConfigurationError("dataset too large for the binary header")
    if dataset.labels.size and (dataset.labels.min() < 0 or dataset.labels.max() > 255):
        raise DataError("labels must fit in an unsigned byte")
    parts = [
        _HEADER.pack(MAGIC, dataset.dim, len(dataset)),
        np.ascontiguousarray(dataset.vectors, dtype="<f4").tobytes(),
        dataset.labels.astype(np.uint8).tobytes(),
    ]
    Path(path).write_bytes(b"".join(parts))


def _load_binary(path, num_classes: int | None) -> EmbeddingDataset:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise DataFormatError(
            f"file is {len(blob)} bytes, shorter than the {_HEADER.size}-byte header"
        )
    magic, dim, count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise DataFormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    expected = _HEADER.size + count * dim * 4 + count
    if len(blob) != expected:
        raise DataFormatError(
            f"payload for dim={dim}, count={count} needs {expected} bytes, file has {len(blob)}"
        )
    vec_bytes = count * dim * 4
    vectors = np.frombuffer(
        blob, dtype="<f4", count=count * dim, offset=_HEADER.size
    ).reshape(count, dim)
    labels = np.frombuffer(blob, dtype=np.uint8, count=count, offset=_HEADER.size + vec_bytes)
    labels = labels.astype(np.int64)
    _check_labels(labels, num_classes)
    return EmbeddingDataset(vectors.copy(), labels)


def save_embeddings_csv(dataset: EmbeddingDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(f"f{i}" for i in range(dataset.dim)) + "\n")
        for label, row in zip(dataset.labels, dataset.vectors):
            fh.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def _parse_cell(parse, name: str, cell: str, lineno: int):
    """``parse(cell)``, or a DataFormatError naming the line and the column; the
    digit separators and non-ASCII digits that Python's ``int`` and ``float``
    take (``1_000``, full-width digits) are refused."""
    try:
        if "_" in cell or not cell.isascii():
            raise ValueError(cell)
        return parse(cell)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise DataFormatError(f"line {lineno}: {name} cell {cell!r} is not {kind}") from None


def _load_csv(path, num_classes: int | None) -> EmbeddingDataset:
    with io.StringIO(decode_utf8(Path(path).read_bytes(), DataFormatError, path),
                     newline=None) as fh:
        header = fh.readline().strip()
        fields = header.split(",")
        dim = len(fields) - 1
        if dim < 1 or fields[0] != "label" or fields[1:] != [f"f{i}" for i in range(dim)]:
            raise DataFormatError(
                f"bad CSV header {header[:60]!r}, expected 'label,f0,...,f{{dim-1}}'"
            )
        labels = []
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != dim + 1:
                raise DataFormatError(
                    f"line {lineno} has {len(cells)} fields, expected {dim + 1}"
                )
            labels.append(_parse_cell(int, "label", cells[0], lineno))
            row = np.array([_parse_cell(float, name, cell, lineno)
                            for name, cell in zip(fields[1:], cells[1:])])
            big = np.flatnonzero(np.isfinite(row) & (np.abs(row) > _FLOAT32_MAX))
            if big.size:
                raise DataError(f"line {lineno}: {fields[1 + big[0]]} cell {cells[1 + big[0]]!r} "
                                f"is beyond the float32 range")
            rows.append(row.astype(np.float32))
    labels = np.asarray(labels, dtype=np.int64)
    _check_labels(labels, num_classes)
    vectors = np.vstack(rows) if rows else np.zeros((0, dim), dtype=np.float32)
    return EmbeddingDataset(vectors, labels)


def load_embeddings(path, format: str = "binary",
                    num_classes: int | None = None) -> EmbeddingDataset:
    """Read an embedding dataset from disk (format "binary" or "csv").

    Rows holding NaN or infinite values are rejected with a ``DataError``.
    """
    if format == "binary":
        dataset = _load_binary(path, num_classes)
    elif format == "csv":
        dataset = _load_csv(path, num_classes)
    else:
        raise ConfigurationError(f"unknown dataset format {format!r}")
    bad = np.flatnonzero(~np.isfinite(dataset.vectors).all(axis=1))
    if bad.size:
        raise DataError(f"row {bad[0]} holds a non-finite value ({bad.size} such rows)")
    return dataset


def make_benchmark_splits(dataset: EmbeddingDataset, seed: int) -> EmbeddingDataset:
    """256 samples per class for train+val (85/15, stratified); the rest is test.

    The 15% validation share rounds down per class (38 of 256), so with two
    classes the sizes are 436 train / 76 val; every class present in the
    labels is drawn, and every remaining sample lands in the test split.
    """
    return make_count_splits(dataset, 256 - 38, 38, seed)


def make_count_splits(dataset: EmbeddingDataset, train_per_class: int,
                      val_per_class: int, seed: int) -> EmbeddingDataset:
    """Stratified splits with explicit per-class counts; the rest is test.

    Each class, in label order, draws one permutation of its samples; the
    first ``val_per_class`` of its picks go to val, the next
    ``train_per_class`` to train.
    """
    for name, count in (("train_per_class", train_per_class), ("val_per_class", val_per_class)):
        if count < 0:
            raise ConfigurationError(f"{name}: must be >= 0, got {count}")
    if len(dataset) == 0:
        raise DataError("dataset has no samples")
    want = train_per_class + val_per_class
    rng = seeding.stream(seed, seeding.DATA_SPLIT)
    train_parts, val_parts = [], []
    test = np.ones(len(dataset), dtype=bool)
    for cls in np.unique(dataset.labels):
        pool = np.flatnonzero(dataset.labels == cls)
        if len(pool) < want:
            raise DataError(f"class {cls} has only {len(pool)} samples, need at least {want}")
        idx = pool[rng.permutation(len(pool))[:want]]
        val_parts.append(idx[:val_per_class])
        train_parts.append(idx[val_per_class:])
        test[idx] = False
    return replace(dataset, train_idx=np.sort(np.concatenate(train_parts)),
                   val_idx=np.sort(np.concatenate(val_parts)), test_idx=np.flatnonzero(test))


def pca_project(dataset: EmbeddingDataset, out_dim: int) -> EmbeddingDataset:
    """Project vectors onto their top principal components (labels unused).

    The components are fit on the train split (on all vectors when the
    dataset has no splits) so evaluation data never shapes the projection.
    This is the standard way to fit wide embeddings into a small
    amplitude-encoding register without washing out their structure.
    """
    if out_dim < 1 or out_dim > dataset.dim:
        raise ConfigurationError(
            f"PCA target must be in [1, {dataset.dim}], got {out_dim}"
        )
    if dataset.train_idx is not None:
        fit_vectors = dataset.split_arrays("train")[0]
    else:
        fit_vectors = dataset.vectors
    fit = np.asarray(fit_vectors, dtype=np.float64)
    if len(fit) < out_dim:
        raise ConfigurationError(
            f"PCA to {out_dim} components needs at least {out_dim} fit rows, got {len(fit)}"
        )
    center = fit.mean(axis=0)
    _, _, vt = np.linalg.svd(fit - center, full_matrices=False)
    components = vt[:out_dim]
    projected = (np.asarray(dataset.vectors, dtype=np.float64) - center) @ components.T
    return replace(dataset, vectors=projected.astype(np.float32))


def append_anchor_feature(dataset: EmbeddingDataset, value: float = 1.0) -> EmbeddingDataset:
    """Append a constant feature to every vector.

    Amplitude encoding followed by expectation values is blind to a global
    sign flip of the state, so data whose class structure is an exact
    reflection through the origin (e.g. clusters with antipodal means) would
    be invisible to the head. A constant anchor component pins the sign and
    makes such structure measurable again.
    """
    if not abs(value) <= _FLOAT32_MAX or np.float32(value) == 0.0:
        raise ConfigurationError(
            f"anchor value must be finite, non-zero and within the float32 range, got {value}"
        )
    column = np.full((len(dataset), 1), value, dtype=np.float32)
    return replace(dataset, vectors=np.hstack([dataset.vectors, column]))


def synthetic_clusters(dim: int, n_per_class: int, separation: float,
                       seed: int) -> EmbeddingDataset:
    """Two isotropic Gaussian clusters at +/- (separation/2) along a random axis."""
    if not 0 <= separation < np.inf:
        raise ConfigurationError(f"separation must be finite and >= 0, got {separation}")
    rng = seeding.stream(seed, seeding.SYNTHETIC)
    axis = rng.standard_normal(dim)
    axis /= np.linalg.norm(axis)
    centers = np.stack([-0.5 * separation * axis, 0.5 * separation * axis])
    vectors = np.empty((2 * n_per_class, dim), dtype=np.float32)
    labels = np.empty(2 * n_per_class, dtype=np.int64)
    for cls in (0, 1):
        block = slice(cls * n_per_class, (cls + 1) * n_per_class)
        rows = centers[cls] + rng.standard_normal((n_per_class, dim))
        if np.any(np.abs(rows) > _FLOAT32_MAX):
            raise ConfigurationError(
                f"separation {separation} puts vectors beyond the float32 range"
            )
        vectors[block] = rows.astype(np.float32)
        labels[block] = cls
    return EmbeddingDataset(vectors, labels)
