"""Dataset ingestion, split construction, synthetic generation."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from qhead.datasets import (
    EmbeddingDataset,
    append_anchor_feature,
    load_embeddings,
    make_count_splits,
    make_benchmark_splits,
    pca_project,
    save_embeddings_binary,
    save_embeddings_csv,
    synthetic_clusters,
)
from qhead.errors import ConfigurationError, DataError, DataFormatError


def _tiny_dataset():
    vectors = np.array([[1.0, -2.5, 0.125], [3.5, 0.0, -7.25]], dtype=np.float32)
    labels = np.array([1, 0])
    return EmbeddingDataset(vectors, labels)


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = _tiny_dataset()
        path = tmp_path / "tiny.emb"
        save_embeddings_binary(ds, path)
        back = load_embeddings(path, "binary")
        np.testing.assert_array_equal(back.vectors, ds.vectors)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_handcrafted_bytes(self, tmp_path):
        import struct

        blob = b"EMB1" + struct.pack("<II", 3, 2)
        blob += struct.pack("<6f", 1.0, -2.5, 0.125, 3.5, 0.0, -7.25)
        blob += bytes([1, 0])
        path = tmp_path / "hand.emb"
        path.write_bytes(blob)
        ds = load_embeddings(path, "binary")
        np.testing.assert_array_equal(ds.vectors, _tiny_dataset().vectors)
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(DataFormatError, match="byte 0"):
            load_embeddings(path, "binary")

    def test_truncated_names_lengths(self, tmp_path):
        path = tmp_path / "trunc.emb"
        save_embeddings_binary(_tiny_dataset(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(DataFormatError, match=rf"needs {len(blob)} bytes.*has {len(blob) - 3}"):
            load_embeddings(path, "binary")

    def test_dim_mismatch_rejected(self, tmp_path):
        import struct

        # header promises dim=4 but payload carries dim=3 rows
        blob = b"EMB1" + struct.pack("<II", 4, 2)
        blob += struct.pack("<6f", *range(6))
        blob += bytes([0, 1])
        path = tmp_path / "mismatch.emb"
        path.write_bytes(blob)
        with pytest.raises(DataFormatError):
            load_embeddings(path, "binary")

    def test_label_out_of_class_range(self, tmp_path):
        ds = EmbeddingDataset(np.ones((2, 2), dtype=np.float32), np.array([0, 3]))
        path = tmp_path / "labels.emb"
        save_embeddings_binary(ds, path)
        with pytest.raises(DataError, match="label 3"):
            load_embeddings(path, "binary", num_classes=2)


class TestCsvFormat:
    def test_csv_equals_binary(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = EmbeddingDataset(
            rng.standard_normal((5, 4)).astype(np.float32), rng.integers(2, size=5)
        )
        bin_path = tmp_path / "d.emb"
        csv_path = tmp_path / "d.csv"
        save_embeddings_binary(ds, bin_path)
        save_embeddings_csv(ds, csv_path)
        a = load_embeddings(bin_path, "binary")
        b = load_embeddings(csv_path, "csv")
        np.testing.assert_array_equal(a.vectors, b.vectors)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,x0,x1\n0,1.0,2.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_embeddings(path, "csv")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_embeddings(path, "csv")

    @pytest.mark.parametrize("num_classes", [None, 2])
    def test_negative_label_rejected(self, tmp_path, num_classes):
        path = tmp_path / "negative.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n-1,3.0,4.0\n")
        with pytest.raises(DataError, match="label -1"):
            load_embeddings(path, "csv", num_classes=num_classes)

    def test_label_at_class_count_rejected(self, tmp_path):
        path = tmp_path / "high.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n2,3.0,4.0\n")
        assert load_embeddings(path, "csv", num_classes=3).labels.tolist() == [0, 2]
        with pytest.raises(DataError, match="label 2 out of range for 2 classes"):
            load_embeddings(path, "csv", num_classes=2)

    def test_blank_lines_are_skipped(self, tmp_path):
        ds = _tiny_dataset()
        path = tmp_path / "blank.csv"
        save_embeddings_csv(ds, path)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, "", rows[0], "   ", "", rows[1], ""]) + "\n")
        back = load_embeddings(path, "csv")
        np.testing.assert_array_equal(back.vectors, ds.vectors)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_embeddings(tmp_path / "x", "json")


@pytest.mark.parametrize("fmt, save", [("binary", save_embeddings_binary),
                                       ("csv", save_embeddings_csv)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rows_rejected(tmp_path, fmt, save, bad):
    ds = EmbeddingDataset(np.ones((4, 3), dtype=np.float32), np.array([0, 1, 0, 1]))
    ds.vectors[2, 1] = bad
    path = tmp_path / f"bad.{fmt}"
    save(ds, path)
    with pytest.raises(DataError, match="row 2"):
        load_embeddings(path, fmt)


def _short_file(path):
    path.write_bytes(b"EMB1\x03")
    load_embeddings(path, "binary")


@pytest.mark.parametrize("make, error, message", [
    (lambda path: EmbeddingDataset(np.ones(3), np.zeros(3)),
     ConfigurationError, r"vectors must be 2-D, got shape \(3,\)"),
    (lambda path: EmbeddingDataset(np.ones((2, 3)), np.zeros(1)),
     ConfigurationError, "got 1 labels for 2 vectors"),
    (lambda path: save_embeddings_binary(EmbeddingDataset(np.ones((2, 3)), [0, 256]), path),
     DataError, "labels must fit in an unsigned byte"),
    (_short_file, DataFormatError, "file is 5 bytes, shorter than the 12-byte header"),
], ids=["vectors_1d", "label_count", "label_over_255", "shorter_than_header"])
def test_bad_datasets_rejected(tmp_path, make, error, message):
    with pytest.raises(error, match=message):
        make(tmp_path / "bad.emb")


class TestBenchmarkSplits:
    def _corpus(self, n_total=9613, seed=0):
        rng = np.random.default_rng(seed)
        labels = np.zeros(n_total, dtype=np.int64)
        labels[: n_total // 2] = 1
        vectors = rng.standard_normal((n_total, 8)).astype(np.float32)
        return EmbeddingDataset(vectors, labels)

    def test_reference_sizes(self):
        ds = make_benchmark_splits(self._corpus(), seed=1)
        assert len(ds.train_idx) == 436
        assert len(ds.val_idx) == 76
        assert len(ds.test_idx) == 9613 - 512
        assert len(ds.test_idx) == 9101

    def test_train_plus_val_is_512(self):
        ds = make_benchmark_splits(self._corpus(5000), seed=2)
        assert len(ds.train_idx) + len(ds.val_idx) == 512

    def test_stratified_class_balance(self):
        ds = make_benchmark_splits(self._corpus(), seed=3)
        for idx, per_class in ((ds.train_idx, 218), (ds.val_idx, 38)):
            counts = np.bincount(ds.labels[idx], minlength=2)
            np.testing.assert_array_equal(counts, [per_class, per_class])

    def test_disjoint_and_complete(self):
        ds = make_benchmark_splits(self._corpus(2000), seed=4)
        all_idx = np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx])
        assert len(np.unique(all_idx)) == len(all_idx) == 2000

    def test_seed_changes_membership_not_sizes(self):
        a = make_benchmark_splits(self._corpus(), seed=5)
        b = make_benchmark_splits(self._corpus(), seed=6)
        assert len(a.train_idx) == len(b.train_idx)
        assert not np.array_equal(a.train_idx, b.train_idx)

    def test_same_seed_identical(self):
        a = make_benchmark_splits(self._corpus(), seed=7)
        b = make_benchmark_splits(self._corpus(), seed=7)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        np.testing.assert_array_equal(a.val_idx, b.val_idx)

    def test_insufficient_class_count(self):
        rng = np.random.default_rng(1)
        ds = EmbeddingDataset(
            rng.standard_normal((400, 4)).astype(np.float32),
            np.concatenate([np.zeros(300, dtype=np.int64), np.ones(100, dtype=np.int64)]),
        )
        with pytest.raises(DataError, match="class 1"):
            make_benchmark_splits(ds, seed=0)

    def test_every_class_is_drawn(self):
        # three classes: synthetic clusters plus a relabelled copy of one cluster
        two = synthetic_clusters(dim=4, n_per_class=300, separation=3.0, seed=8)
        extra = synthetic_clusters(dim=4, n_per_class=300, separation=3.0, seed=9)
        keep = extra.labels == 0
        ds = EmbeddingDataset(np.vstack([two.vectors, extra.vectors[keep]]),
                              np.concatenate([two.labels, np.full(keep.sum(), 2)]))
        split = make_benchmark_splits(ds, seed=3)
        for idx, per_class in ((split.train_idx, 218), (split.val_idx, 38),
                               (split.test_idx, 300 - 256)):
            np.testing.assert_array_equal(np.bincount(ds.labels[idx], minlength=3),
                                          [per_class] * 3)


class TestCountSplits:
    def test_sizes_and_disjointness(self):
        ds = synthetic_clusters(dim=6, n_per_class=50, separation=2.0, seed=1)
        split = make_count_splits(ds, train_per_class=20, val_per_class=10, seed=2)
        assert len(split.train_idx) == 40
        assert len(split.val_idx) == 20
        assert len(split.test_idx) == 40
        combined = np.concatenate([split.train_idx, split.val_idx, split.test_idx])
        assert len(np.unique(combined)) == 100


class TestSyntheticClusters:
    def test_shapes_and_finiteness(self):
        ds = synthetic_clusters(dim=16, n_per_class=25, separation=4.0, seed=9)
        assert ds.vectors.shape == (50, 16)
        assert np.all(np.isfinite(ds.vectors))
        np.testing.assert_array_equal(np.bincount(ds.labels), [25, 25])

    def test_separation_grows_distance(self):
        near = synthetic_clusters(dim=8, n_per_class=200, separation=0.0, seed=3)
        far = synthetic_clusters(dim=8, n_per_class=200, separation=10.0, seed=3)

        def center_gap(ds):
            return np.linalg.norm(
                ds.vectors[ds.labels == 0].mean(axis=0) - ds.vectors[ds.labels == 1].mean(axis=0)
            )

        assert center_gap(near) < 1.0
        assert center_gap(far) == pytest.approx(10.0, abs=1.0)

    def test_negative_separation_rejected(self):
        with pytest.raises(ConfigurationError):
            synthetic_clusters(4, 10, -1.0, 0)

    @pytest.mark.parametrize("separation", [float("nan"), float("inf")])
    def test_non_finite_separation_rejected(self, separation):
        with pytest.raises(ConfigurationError, match="separation must be finite"):
            synthetic_clusters(4, 10, separation, 0)

    @pytest.mark.parametrize("separation", [1e39, 1e300])
    def test_separation_beyond_float32_rejected(self, separation):
        # finite as float64, but the float32 vectors would hold inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="separation .* beyond the float32 range"):
                synthetic_clusters(4, 2, separation, 0)

    def test_zero_separation_trains_to_chance(self):
        from qhead.baselines import LogisticModel
        from qhead.trainer import TrainConfig, train

        ds = synthetic_clusters(dim=16, n_per_class=600, separation=0.0, seed=11)
        split = make_count_splits(ds, train_per_class=60, val_per_class=20, seed=11)
        report, _ = train(LogisticModel(split.dim), split,
                          TrainConfig(learning_rate=0.02, epochs=30, seed=1))
        assert abs(report.test_accuracy - 0.5) <= 0.05

    def test_wide_separation_trains_to_ceiling(self):
        from qhead.baselines import LogisticModel
        from qhead.trainer import TrainConfig, train

        ds = synthetic_clusters(dim=768, n_per_class=120, separation=10.0, seed=13)
        split = make_count_splits(ds, train_per_class=50, val_per_class=20, seed=13)
        report, _ = train(LogisticModel(split.dim), split,
                          TrainConfig(learning_rate=0.05, epochs=40, seed=2))
        assert report.test_accuracy >= 0.99


class TestPreprocessing:
    def test_anchor_appends_constant_column(self):
        ds = EmbeddingDataset(np.zeros((3, 2), dtype=np.float32), np.array([0, 1, 0]))
        out = append_anchor_feature(ds, value=2.5)
        assert out.dim == 3
        np.testing.assert_array_equal(out.vectors[:, 2], [2.5, 2.5, 2.5])
        with pytest.raises(ConfigurationError):
            append_anchor_feature(ds, value=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_anchor_rejected(self, value):
        ds = EmbeddingDataset(np.zeros((3, 2), dtype=np.float32), np.array([0, 1, 0]))
        with pytest.raises(ConfigurationError, match="anchor value must be finite"):
            append_anchor_feature(ds, value=value)

    @pytest.mark.parametrize("value", [1e39, -1e39, 1e-50])
    def test_anchor_outside_float32_rejected(self, value):
        # finite and non-zero as float64, but the float32 column would hold inf or 0
        ds = EmbeddingDataset(np.zeros((3, 2), dtype=np.float32), np.array([0, 1, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="float32 range"):
                append_anchor_feature(ds, value=value)

    def test_pca_recovers_dominant_direction(self):
        # antipodal clusters: the separation axis carries most variance, so
        # the first principal component keeps the full separation
        ds = synthetic_clusters(dim=100, n_per_class=150, separation=10.0, seed=5)
        split = make_count_splits(ds, train_per_class=80, val_per_class=20, seed=5)
        projected = pca_project(split, 4)
        gap = np.abs(
            projected.vectors[projected.labels == 0, 0].mean()
            - projected.vectors[projected.labels == 1, 0].mean()
        )
        assert gap > 8.0

    def test_pca_fit_ignores_test_split(self):
        ds = synthetic_clusters(dim=20, n_per_class=60, separation=4.0, seed=6)
        split = make_count_splits(ds, train_per_class=30, val_per_class=10, seed=6)
        a = pca_project(split, 3)
        mutated = split.vectors.copy()
        mutated[split.test_idx] += 50.0
        b = pca_project(
            EmbeddingDataset(mutated, split.labels, split.train_idx, split.val_idx,
                             split.test_idx),
            3,
        )
        np.testing.assert_allclose(
            a.vectors[split.train_idx], b.vectors[split.train_idx], atol=1e-4
        )

    def test_pca_without_splits_fits_all_vectors(self):
        # the leading component of all vectors is the first axis; fit on the
        # first two rows alone it would be the second
        vectors = np.array([[0.0, 1.0], [0.0, -1.0], [4.0, 0.0], [-4.0, 0.0]],
                           dtype=np.float32)
        ds = EmbeddingDataset(vectors, np.array([0, 0, 1, 1]))
        projected = pca_project(ds, 1)
        np.testing.assert_allclose(np.abs(projected.vectors[:, 0]), [0.0, 0.0, 4.0, 4.0],
                                   atol=1e-6)

    def test_pca_bounds(self):
        ds = EmbeddingDataset(np.ones((4, 3), dtype=np.float32), np.zeros(4, dtype=np.int64))
        with pytest.raises(ConfigurationError):
            pca_project(ds, 5)

    def test_pca_needs_as_many_fit_rows_as_components(self):
        # 4 train rows span at most 4 components; 8 must not quietly become 4
        ds = synthetic_clusters(dim=20, n_per_class=10, separation=4.0, seed=7)
        split = make_count_splits(ds, train_per_class=2, val_per_class=2, seed=7)
        with pytest.raises(ConfigurationError, match="8 components needs at least 8 fit rows, got 4"):
            pca_project(split, 8)


@pytest.mark.parametrize("row, cell", [("x,1.0,2.0", "label cell 'x'"),
                                       ("1,1.0,abc", "f1 cell 'abc'")])
def test_malformed_csv_cell_names_line_and_cell(tmp_path, row, cell):
    path = tmp_path / "cells.csv"
    path.write_text(f"label,f0,f1\n0,1.0,2.0\n{row}\n")
    with pytest.raises(DataFormatError, match=f"line 3: {cell}"):
        load_embeddings(path, "csv")


@pytest.mark.parametrize("row, cell", [("1,1_000,2.0", "f0 cell '1_000'"),
                                       ("1,1.0,\uff11.5", "f1 cell '\uff11.5'"),
                                       ("1_0,1.0,2.0", "label cell '1_0'"),
                                       ("\uff11,1.0,2.0", "label cell '\uff11'")])
def test_csv_cell_in_python_only_number_syntax_names_line_and_cell(tmp_path, row, cell):
    # Python's int and float take digit separators and non-ASCII digits
    path = tmp_path / "syntax.csv"
    path.write_text(f"label,f0,f1\n0,1.0,2.0\n{row}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"line 3: {cell} is not an? "):
        load_embeddings(path, "csv")


@pytest.mark.parametrize("cell", ["1e39", "-3.5e38"])
def test_csv_cell_beyond_float32_names_line_and_cell(tmp_path, cell):
    # finite as float64, but the float32 vectors would hold inf
    path = tmp_path / "big.csv"
    path.write_text(f"label,f0,f1\n0,1.0,2.0\n1,{cell},2.0\n")
    with pytest.raises(DataError, match=f"line 3: f0 cell '{cell}' is beyond the float32 range"):
        load_embeddings(path, "csv")


@pytest.mark.parametrize("train, val", [(-1, 3), (3, -1), (-1, -3)])
def test_negative_split_counts_name_their_field(train, val):
    ds = synthetic_clusters(dim=4, n_per_class=20, separation=2.0, seed=1)
    field = "train_per_class" if train < 0 else "val_per_class"
    with pytest.raises(ConfigurationError, match=field):
        make_count_splits(ds, train, val, seed=0)


@pytest.mark.parametrize("num_classes", [2, 3])
def test_benchmark_split_is_the_218_38_count_split(num_classes):
    rng = np.random.default_rng(num_classes)
    labels = rng.permutation(np.arange(num_classes * 300) % num_classes)
    ds = EmbeddingDataset(rng.standard_normal((len(labels), 3)), labels)
    for seed in (0, 4):
        a = make_benchmark_splits(ds, seed)
        b = make_count_splits(ds, 218, 38, seed)
        for split in ("train", "val", "test"):
            np.testing.assert_array_equal(a.split_indices(split), b.split_indices(split))


def test_csv_byte_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"label,f0,f1\n0,1.0,2.0\n1,1.0,2\xe9\n")
    with pytest.raises(DataFormatError, match="line 3 is not UTF-8"):
        load_embeddings(path, "csv")


@pytest.mark.parametrize("end", [b"\r\n", b"\r"])
def test_csv_lines_may_end_in_crlf_or_cr(tmp_path, end):
    ds = _tiny_dataset()
    path = tmp_path / "ends.csv"
    save_embeddings_csv(ds, path)
    path.write_bytes(path.read_bytes().replace(b"\n", end))
    back = load_embeddings(path, "csv")
    np.testing.assert_array_equal(back.vectors, ds.vectors)
    np.testing.assert_array_equal(back.labels, ds.labels)


@pytest.mark.parametrize("split", [lambda ds: make_count_splits(ds, 0, 0, seed=0),
                                   lambda ds: make_count_splits(ds, 2, 1, seed=0),
                                   lambda ds: make_benchmark_splits(ds, seed=0)])
def test_empty_dataset_cannot_be_split(tmp_path, split):
    path = tmp_path / "empty.emb"
    save_embeddings_binary(EmbeddingDataset(np.zeros((0, 3)), np.zeros(0)), path)
    empty = load_embeddings(path, "binary")
    assert len(empty) == 0
    with pytest.raises(DataError, match="dataset has no samples"):
        split(empty)
