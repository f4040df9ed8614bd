import hashlib
import os
import re
import tracemalloc

import numpy as np
import pytest

from icmix import data
from icmix.data import (
    _STAT_ROWS,
    Dataset,
    DatasetFileError,
    _blob_means,
    _byte_statistics,
    load_cifar,
    longtail_subsample,
    standardize,
    stratified_subsample,
    synth_blobs,
)
from icmix.harness import build_dataset_pair, dataset_spec_from_dict, evaluate
from icmix.model import init_model
from icmix.numerics import RngState, round_half_up

from oracles import byte_statistics_from_sums, float_blobs_pair, float_dataset_pair, scalar_rng


def _balanced_blob_train(per_class=500, num_classes=10, seed=3):
    train, _ = synth_blobs(num_classes, per_class, 4, 0.5, seed)
    return train


class TestLoadCifar:
    def test_cifar10_counts_and_labels(self, cifar10_dir):
        train = load_cifar(cifar10_dir, "cifar10", "train")
        test = load_cifar(cifar10_dir, "cifar10", "test")
        assert train.size == 50000 and test.size == 10000
        assert train.num_classes == 10
        assert train.labels.min() >= 0 and train.labels.max() < 10
        assert train.images.shape == (50000, 3072)
        assert train.channels == 3

    def test_cifar100_counts_and_fine_labels(self, cifar100_dir):
        train = load_cifar(cifar100_dir, "cifar100", "train")
        test = load_cifar(cifar100_dir, "cifar100", "test")
        assert train.size == 50000 and test.size == 10000
        assert train.num_classes == 100
        assert train.labels.max() < 100

    def test_pixels_are_the_raw_bytes(self, cifar10_dir):
        raw = np.fromfile(cifar10_dir / "test_batch.bin", dtype=np.uint8).reshape(10000, 3073)
        ds = load_cifar(cifar10_dir, "cifar10", "test")
        assert ds.images.dtype == np.uint8
        assert np.array_equal(ds.images, raw[:, 1:])

    def test_byte_offset_oracle(self, cifar10_dir):
        # first pixel of record k sits at k*3073 + 1 in the raw file
        raw = (cifar10_dir / "data_batch_1.bin").read_bytes()
        ds = load_cifar(cifar10_dir, "cifar10", "train")
        assert ds.images.dtype == np.uint8
        for k in (0, 1, 9999):
            assert ds.labels[k] == raw[k * 3073]
            assert ds.images[k, 0] == raw[k * 3073 + 1]
            assert ds.images[k, 3071] == raw[k * 3073 + 3072]

    def test_cifar100_fine_label_is_second_byte(self, cifar100_dir):
        raw = (cifar100_dir / "test.bin").read_bytes()
        ds = load_cifar(cifar100_dir, "cifar100", "test")
        assert ds.images.dtype == np.uint8
        assert ds.labels[0] == raw[1]
        assert ds.images[0, 0] == raw[2]

    def test_truncated_file_rejected_with_byte_counts(self, tmp_path, cifar10_dir):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ["data_batch_1.bin", "data_batch_2.bin", "data_batch_3.bin",
                     "data_batch_4.bin", "data_batch_5.bin", "test_batch.bin"]:
            (broken / name).write_bytes((cifar10_dir / name).read_bytes())
        full = (broken / "data_batch_3.bin").read_bytes()
        (broken / "data_batch_3.bin").write_bytes(full[:-100])
        with pytest.raises(DatasetFileError, match=r"expected 30730000 bytes, found 30729900"):
            load_cifar(broken, "cifar10", "train")

    @pytest.mark.parametrize("variant, name, label_offset, num_classes", [
        ("cifar10", "test_batch.bin", 0, 10), ("cifar100", "test.bin", 1, 100),
    ])
    def test_label_outside_the_variant_names_file_and_record(self, tmp_path, cifar10_dir, cifar100_dir,
                                                             variant, name, label_offset, num_classes):
        source = cifar10_dir if variant == "cifar10" else cifar100_dir
        raw = bytearray((source / name).read_bytes())
        record_len = 3072 + label_offset + 1
        raw[17 * record_len + label_offset] = num_classes
        raw[40 * record_len + label_offset] = 255
        (tmp_path / name).write_bytes(raw)
        with pytest.raises(DatasetFileError,
                           match=rf"{name}: record 17 has label {num_classes}, expected one in \[0, {num_classes}\)"):
            load_cifar(tmp_path, variant, "test")

    @pytest.mark.parametrize("coarse", [20, 200])
    def test_cifar100_coarse_label_outside_its_20_classes(self, tmp_path, cifar100_dir, coarse):
        # the coarse byte is dropped, but a record whose coarse byte is out of range is malformed
        raw = bytearray((cifar100_dir / "test.bin").read_bytes())
        raw[5 * 3074] = coarse
        (tmp_path / "test.bin").write_bytes(raw)
        with pytest.raises(DatasetFileError,
                           match=rf"test.bin: record 5 has coarse label {coarse}, expected one in \[0, 20\)$"):
            load_cifar(tmp_path, "cifar100", "test")

    @pytest.mark.parametrize("variant, split, message", [
        ("cifar", "train", "unknown variant 'cifar', expected 'cifar10' or 'cifar100'"),
        ("cifar10", "validation", "split must be one of ('train', 'test')"),
    ])
    def test_unknown_variant_or_split(self, tmp_path, variant, split, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            load_cifar(tmp_path, variant, split)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetFileError, match="missing"):
            load_cifar(tmp_path, "cifar10", "train")

    def test_wrong_variant_size_mismatch(self, tmp_path, cifar100_dir):
        # a cifar100 archive read as cifar10 has the wrong record stride
        wrong = tmp_path / "wrong"
        wrong.mkdir()
        (wrong / "test_batch.bin").write_bytes((cifar100_dir / "test.bin").read_bytes())
        with pytest.raises(DatasetFileError, match="corrupt or wrong-variant"):
            load_cifar(wrong, "cifar10", "test")


def _load_then_subsample(spec):
    """The split pair as built by reading every record, then subsampling the Dataset."""
    from icmix.harness import _STREAM_FRACTION, _STREAM_LONGTAIL

    train = load_cifar(spec.path, spec.kind, "train")
    root = RngState(spec.seed)
    if spec.fraction < 1.0:
        train = stratified_subsample(train, spec.fraction, root.derive(_STREAM_FRACTION).seed)
    if spec.imbalance_ratio < 1.0:
        train = longtail_subsample(train, spec.imbalance_ratio, root.derive(_STREAM_LONGTAIL).seed)
    return standardize(train, load_cifar(spec.path, spec.kind, "test"))


def _copy_tree(tmp_path, source, name):
    """``source``'s CIFAR files under ``tmp_path``: ``name`` copied, the rest linked."""
    for other in source.iterdir():
        if other.name != name:
            (tmp_path / other.name).symlink_to(other)
    (tmp_path / name).write_bytes((source / name).read_bytes())
    return tmp_path


class TestKeptRecords:
    """A subsampled training split reads only the records it keeps."""

    @pytest.mark.parametrize("kind", ["cifar10", "cifar100"])
    @pytest.mark.parametrize("fields", [
        {"fraction": 0.1}, {"fraction": 0.5}, {"imbalance_ratio": 0.1}, {"fraction": 0.5, "imbalance_ratio": 0.1},
    ], ids=["fraction_0.1", "fraction_0.5", "ratio_0.1", "fraction_0.5_ratio_0.1"])
    def test_equals_load_then_subsample_bitwise(self, kind, fields, request):
        path = request.getfixturevalue(f"{kind}_dir")
        spec = dataset_spec_from_dict({"kind": kind, "path": str(path), "seed": 23, **fields})
        for got, want in zip(build_dataset_pair(spec), _load_then_subsample(spec)):
            assert got.images.dtype == want.images.dtype == np.uint8
            assert got.images.shape == want.images.shape and np.array_equal(got.images, want.images)
            assert got.labels.tolist() == want.labels.tolist()
            assert (got.num_classes, got.split, got.channels) == (want.num_classes, want.split, want.channels)
            assert got.mean.tobytes() == want.mean.tobytes() and got.std.tobytes() == want.std.tobytes()

    def test_kept_pixels_are_one_contiguous_array(self, cifar10_dir):
        train = load_cifar(cifar10_dir, "cifar10", "train", keep=lambda labels, c: np.array([49999, 3, 3, 10000]))
        whole = load_cifar(cifar10_dir, "cifar10", "train")
        assert train.images.flags.c_contiguous and train.images.base is None
        assert np.array_equal(train.images, whole.images[[49999, 3, 3, 10000]])
        assert np.array_equal(train.labels, whole.labels[[49999, 3, 3, 10000]])

    def test_keep_sees_every_label(self, cifar100_dir):
        seen = []
        load_cifar(cifar100_dir, "cifar100", "test", keep=lambda labels, c: seen.append((labels, c)) or [0])
        (labels, num_classes), = seen
        assert num_classes == 100 and labels.dtype == np.int64
        assert np.array_equal(labels, load_cifar(cifar100_dir, "cifar100", "test").labels)

    @pytest.mark.parametrize("rows", [[-1], [10000], [[0, 1]], [0.0], [True]], ids=str)
    def test_rows_outside_the_split_are_a_value_error(self, cifar10_dir, rows):
        with pytest.raises(ValueError, match=re.escape("kept rows must be a 1-D vector of indices in [0, 10000)")):
            load_cifar(cifar10_dir, "cifar10", "test", keep=lambda labels, c: np.array(rows))

    def test_label_out_of_range_in_a_record_not_kept(self, tmp_path, cifar10_dir):
        spec = {"kind": "cifar10", "fraction": 0.1, "seed": 31}
        intact = build_dataset_pair(dataset_spec_from_dict({**spec, "path": str(cifar10_dir)}))[0]
        whole = load_cifar(cifar10_dir, "cifar10", "train")
        kept = {row.tobytes() for row in intact.images}
        record = next(k for k in range(10000) if whole.images[20000 + k].tobytes() not in kept)
        broken = _copy_tree(tmp_path, cifar10_dir, "data_batch_3.bin")
        with open(broken / "data_batch_3.bin", "r+b") as f:
            f.seek(record * 3073)
            f.write(b"\x0a")
        with pytest.raises(DatasetFileError,
                           match=rf"data_batch_3.bin: record {record} has label 10, expected one in \[0, 10\)$"):
            build_dataset_pair(dataset_spec_from_dict({**spec, "path": str(broken)}))

    def test_short_read_of_a_kept_record_names_file_and_record(self, tmp_path, cifar10_dir):
        # the file shrinks after the label pass has checked its size: the pixel pass finds it short
        broken = _copy_tree(tmp_path, cifar10_dir, "data_batch_2.bin")

        def truncate_then_keep(labels, num_classes):
            with open(broken / "data_batch_2.bin", "r+b") as f:
                f.truncate(10000 * 3073 - 100)
            return np.array([0, 19999, 10000])

        with pytest.raises(DatasetFileError,
                           match=r"data_batch_2.bin: record 9999: expected 3072 pixel bytes, read 2972$"):
            load_cifar(broken, "cifar10", "train", keep=truncate_then_keep)

    def test_file_shrinking_after_its_size_check_is_a_dataset_file_error(self, tmp_path, cifar10_dir, monkeypatch):
        # the size check passes, then the file loses a record before the label pass maps it: mmap's own
        # check raises ValueError, which must reach the caller as a DatasetFileError naming the file (exit 3)
        broken = _copy_tree(tmp_path, cifar10_dir, "data_batch_4.bin")
        real_checked_open = data._checked_open

        def open_then_truncate(fp, expected):
            f = real_checked_open(fp, expected)
            if fp.name == "data_batch_4.bin":
                with open(fp, "r+b") as g:
                    g.truncate(expected - 3073)
            return f

        monkeypatch.setattr(data, "_checked_open", open_then_truncate)
        with pytest.raises(DatasetFileError,
                           match=r"data_batch_4.bin: corrupt or wrong-variant file, expected 30730000 bytes, "
                                 r"found 30726927$"):
            load_cifar(broken, "cifar10", "train", keep=lambda labels, c: np.array([0]))

    def test_a_keep_that_raises_leaves_no_map_and_no_open_file(self, cifar10_dir):
        def failing_keep(labels, num_classes):
            raise RuntimeError("keep failed")

        fds = set(os.listdir("/proc/self/fd"))
        with pytest.raises(RuntimeError, match="keep failed"):
            load_cifar(cifar10_dir, "cifar10", "train", keep=failing_keep)
        with open("/proc/self/maps") as maps:
            assert "data_batch" not in maps.read()
        assert set(os.listdir("/proc/self/fd")) == fds

    def test_build_memory_is_bounded_by_the_kept_rows(self, cifar10_dir):
        spec = dataset_spec_from_dict({"kind": "cifar10", "path": str(cifar10_dir), "fraction": 0.1, "seed": 5})
        tracemalloc.start()
        try:
            train, test = build_dataset_pair(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the kept pixels, the test split's one record buffer, and 4 MiB for the labels and the 1.5 MB
        # block of the byte statistics; reading every record first peaks near 200 MB
        assert train.images.shape == (5000, 3072) and test.images.base.shape == (10000, 3073)
        assert peak <= 5000 * 3072 + 10000 * 3073 + 4 * 2**20, peak


class TestStratifiedSubsample:
    def test_fraction_one_keeps_everything(self):
        ds = _balanced_blob_train(per_class=40, num_classes=3)
        out = stratified_subsample(ds, 1.0, seed=1)
        assert out.size == ds.size
        assert np.array_equal(np.sort(out.labels), np.sort(ds.labels))

    def test_balanced_counts_exact(self):
        ds = _balanced_blob_train(per_class=500, num_classes=10)
        for fraction, expected in [(0.5, 250), (0.25, 125), (0.1, 50)]:
            out = stratified_subsample(ds, fraction, seed=2)
            assert np.all(out.class_counts() == expected)

    def test_cifar_per_class_counts_exact(self, cifar10_dir):
        ds = load_cifar(cifar10_dir, "cifar10", "train")
        assert np.all(ds.class_counts() == 5000)
        out = stratified_subsample(ds, 0.1, seed=3)
        assert np.all(out.class_counts() == 500)

    def test_cifar100_quarter_fraction(self, cifar100_dir):
        ds = load_cifar(cifar100_dir, "cifar100", "train")
        out = stratified_subsample(ds, 0.25, seed=11)
        assert np.all(out.class_counts() == 125)
        assert out.size == 12500

    def test_unbalanced_proportions_up_to_rounding(self, cifar10_dir):
        ds = load_cifar(cifar10_dir, "cifar10", "test")
        skewed = Dataset(ds.images[123:], ds.labels[123:], 10, "test", channels=3)
        counts = skewed.class_counts()
        out = stratified_subsample(skewed, 0.25, seed=3)
        expected = np.array([round_half_up(0.25 * int(n)) for n in counts])
        assert np.array_equal(out.class_counts(), expected)

    def test_deterministic(self):
        ds = _balanced_blob_train(per_class=50, num_classes=4)
        a = stratified_subsample(ds, 0.3, seed=9)
        b = stratified_subsample(ds, 0.3, seed=9)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_sampling_without_replacement(self):
        ds = _balanced_blob_train(per_class=30, num_classes=3)
        out = stratified_subsample(ds, 0.5, seed=4)
        rows = {tuple(row) for row in out.images}
        assert len(rows) == out.size

    def test_class_dropping_to_zero_is_an_error(self):
        ds = _balanced_blob_train(per_class=10, num_classes=3)
        with pytest.raises(ValueError, match="0 samples"):
            stratified_subsample(ds, 0.01, seed=5)

    def test_fraction_out_of_range(self):
        ds = _balanced_blob_train(per_class=10, num_classes=2)
        with pytest.raises(ValueError):
            stratified_subsample(ds, 0.0, seed=6)
        with pytest.raises(ValueError):
            stratified_subsample(ds, 1.5, seed=6)


class TestLongtailSubsample:
    def test_ratio_one_is_identity_on_counts(self):
        ds = _balanced_blob_train(per_class=100, num_classes=5)
        out = longtail_subsample(ds, 1.0, seed=1)
        assert np.all(out.class_counts() == 100)

    def test_two_class_extreme(self):
        ds = _balanced_blob_train(per_class=500, num_classes=2)
        out = longtail_subsample(ds, 0.01, seed=2)
        assert out.class_counts().tolist() == [500, 5]

    def test_counts_match_formula(self):
        ds = _balanced_blob_train(per_class=500, num_classes=10)
        for ratio in (0.1, 0.01):
            out = longtail_subsample(ds, ratio, seed=3)
            expected = [round_half_up(500 * ratio ** (c / 9)) for c in range(10)]
            assert out.class_counts().tolist() == expected

    def test_monotone_and_endpoint_ratio(self):
        ds = _balanced_blob_train(per_class=400, num_classes=8)
        out = longtail_subsample(ds, 0.05, seed=4)
        counts = out.class_counts()
        assert np.all(np.diff(counts) <= 0)
        assert counts[0] == 400
        assert abs(counts[-1] - 0.05 * 400) <= 1

    def test_unbalanced_input_decays_from_smallest_class(self):
        ds = _balanced_blob_train(per_class=100, num_classes=4)
        keep = np.r_[0:100, 100:180, 200:300, 300:390]  # class counts 100, 80, 100, 90
        unbalanced = Dataset(ds.images[keep], ds.labels[keep], 4, "train")
        out = longtail_subsample(unbalanced, 0.1, seed=5)
        assert out.class_counts().tolist() == [round_half_up(80 * 0.1 ** (c / 3)) for c in range(4)]
        for c in range(4):  # distinct rows of their own class
            mine = {tuple(r) for r in unbalanced.images[unbalanced.labels == c].tolist()}
            kept = [tuple(r) for r in out.images[out.labels == c].tolist()]
            assert len(set(kept)) == len(kept) and set(kept) <= mine

    def test_empty_class_is_an_error(self):
        ds = _balanced_blob_train(per_class=10, num_classes=3)
        keep = ds.labels != 1
        with pytest.raises(ValueError, match="class 1 has no samples"):
            longtail_subsample(Dataset(ds.images[keep], ds.labels[keep], 3, "train"), 0.5, seed=6)

    def test_class_rounding_to_zero_is_an_error(self):
        ds = _balanced_blob_train(per_class=10, num_classes=6)
        with pytest.raises(ValueError, match="0 samples"):
            longtail_subsample(ds, 0.001, seed=6)

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5])
    def test_ratio_out_of_range(self, ratio):
        ds = _balanced_blob_train(per_class=10, num_classes=2)
        with pytest.raises(ValueError, match=re.escape("ratio must be in (0, 1]")):
            longtail_subsample(ds, ratio, seed=6)

    def test_deterministic(self):
        ds = _balanced_blob_train(per_class=100, num_classes=5)
        a = longtail_subsample(ds, 0.1, seed=7)
        b = longtail_subsample(ds, 0.1, seed=7)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.images, b.images)


class TestSynthBlobs:
    def test_counts(self):
        train, test = synth_blobs(3, 100, 10, 0.3, seed=1)
        assert train.size == 300 and test.size == 300
        assert np.all(train.class_counts() == 100)
        assert train.split == "train" and test.split == "test"

    def test_same_draws_as_one_normals_call_per_row(self):
        # an odd per_class * dim leaves a pending spare at a class boundary, which the next class takes
        for num_classes, per_class, dim in ((3, 300, 5), (3, 7, 5), (2, 3, 1)):
            train, test = synth_blobs(num_classes, per_class, dim, 0.3, seed=7)
            means = _blob_means(num_classes, dim)
            for ds, stream in ((train, 0), (test, 1)):
                rng = scalar_rng(RngState(7).derive(stream).seed)
                expected = np.stack([means[c] + 0.3 * rng.normals(dim)
                                     for c in range(num_classes) for _ in range(per_class)])
                assert np.array_equal(ds.images.view(np.uint64), expected.view(np.uint64))
                assert np.array_equal(ds.labels, np.repeat(np.arange(num_classes), per_class))

    def test_tiny_spread_nearest_mean_is_perfect(self):
        train, test = synth_blobs(4, 25, 6, 1e-6, seed=2)
        means = np.stack([train.images[train.labels == c].mean(axis=0) for c in range(4)])
        dists = ((test.images[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assert np.mean(np.argmin(dists, axis=1) == test.labels) == 1.0

    def test_deterministic_and_split_independent(self):
        t1, s1 = synth_blobs(3, 20, 5, 0.3, seed=7)
        t2, s2 = synth_blobs(3, 20, 5, 0.3, seed=7)
        assert np.array_equal(t1.images, t2.images)
        assert np.array_equal(s1.images, s2.images)
        assert not np.array_equal(t1.images, s1.images)

    @pytest.mark.parametrize("num_classes, per_class, dim, spread, message", [
        (0, 10, 4, 0.3, "num_classes, per_class, and dim must all be >= 1"),
        (3, 0, 4, 0.3, "num_classes, per_class, and dim must all be >= 1"),
        (3, 10, 0, 0.3, "num_classes, per_class, and dim must all be >= 1"),
        (3, 10, 4, 0.0, "spread must be > 0"),
        (3, 10, 4, -1.0, "spread must be > 0"),
    ])
    def test_bad_arguments_rejected(self, num_classes, per_class, dim, spread, message):
        with pytest.raises(ValueError, match=message):
            synth_blobs(num_classes, per_class, dim, spread, seed=1)

    def test_one_dimension_alternates_poles(self):
        # dataset.dim 1 is a valid config: the classes sit at +1 and -1 in turn
        assert _blob_means(5, 1).ravel().tolist() == [1.0, -1.0, 1.0, -1.0, 1.0]
        train, test = synth_blobs(4, 20, 1, 1e-6, seed=8)
        for ds in (train, test):
            assert ds.images.shape == (80, 1)
            assert np.max(np.abs(ds.images[:, 0] - np.where(ds.labels % 2 == 0, 1.0, -1.0))) < 1e-4

    def test_trained_linear_model_accuracy(self):
        from icmix.harness import train, train_config_from_dict

        accs = []
        for seed in (1, 2, 3, 4, 5):
            cfg = train_config_from_dict({
                "seed": seed,
                "dataset": {"kind": "blobs", "num_classes": 3, "per_class": 100, "dim": 10, "spread": 0.3},
                "model": {"hidden_dims": []},
                "train": {"epochs": 50, "batch_size": 64},
                "method": {"name": "none"},
            })
            accs.append(train(cfg).final_test_accuracy)
        assert min(accs) > 0.95


class TestStandardize:
    def test_train_channels_zero_mean_unit_std(self, cifar10_dir):
        train = load_cifar(cifar10_dir, "cifar10", "test")  # smaller split as the fit set
        test = Dataset(train.images[:5], train.labels[:5], train.num_classes, "test", channels=3)
        train_std, _ = standardize(train, test)
        grouped = train_std.rows(slice(None)).reshape(train_std.size, 3, 1024)
        assert np.max(np.abs(grouped.mean(axis=(0, 2)))) < 1e-6
        assert np.max(np.abs(grouped.std(axis=(0, 2)) - 1.0)) < 1e-6

    def test_test_split_uses_train_statistics(self):
        train, test = synth_blobs(3, 50, 4, 0.3, seed=9)
        grouped = train.images
        mean, std = grouped.mean(), grouped.std()
        train_std, test_std = standardize(train, test)
        features = test_std.rows(slice(None))
        assert np.max(np.abs(features - (test.images - mean) / std)) < 1e-12
        # test split statistics are close to, but not exactly, 0/1
        assert abs(features.mean()) > 0.0

    @pytest.mark.parametrize("test_width, test_channels", [(6, 2), (4, 1)])
    def test_train_and_test_layouts_must_agree(self, test_width, test_channels):
        train = Dataset(np.arange(12.0).reshape(2, 6), np.array([0, 1]), 2, "train")
        test = Dataset(np.zeros((2, test_width)), np.array([0, 1]), 2, "test", channels=test_channels)
        with pytest.raises(ValueError, match="train and test layouts disagree"):
            standardize(train, test)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 5000])
    def test_byte_statistics_are_exactly_rounded(self, n):
        # around the 256-row blocks: mean is Fraction(S1, 255 N) rounded once, std the sqrt of var rounded once
        images = np.random.default_rng(n).integers(0, 256, size=(n, 3072), dtype=np.uint8)
        train = Dataset(images, np.zeros(n, dtype=int), 1, "train", channels=3)
        train_std, test_std = standardize(train, train)
        grouped = images.reshape(n, 3, 1024).astype(np.int64)
        mean, std = byte_statistics_from_sums(grouped.sum(axis=(0, 2)), (grouped * grouped).sum(axis=(0, 2)), n * 1024)
        for ds in (train_std, test_std):
            assert ds.images is images
            assert ds.mean.tobytes() == mean.tobytes()
            assert ds.std.tobytes() == std.tobytes()

    def test_byte_statistics_past_int64(self):
        # N S2 - S1^2 = N^2 Var(v) > 2**63 at N = 30.72M pixels of mostly 0 or 255: the products need Python ints
        rng = np.random.default_rng(8)
        images = rng.integers(0, 2, size=(10000, 3072), dtype=np.uint8) * np.uint8(255)
        images[:, 0] = rng.integers(0, 256, size=10000, dtype=np.uint8)
        train = Dataset(images, np.zeros(10000, dtype=int), 1, "train")
        s1 = int(images.sum(dtype=np.int64))
        s2 = int(np.square(images, dtype=np.int64).sum())
        assert images.size * s2 - s1 * s1 > 2**63
        train_std, _ = standardize(train, train)
        mean, std = byte_statistics_from_sums([s1], [s2], images.size)
        assert train_std.mean.tobytes() == mean.tobytes()
        assert train_std.std.tobytes() == std.tobytes()

    @pytest.mark.parametrize("rows, width", [(2 * _STAT_ROWS + 3, 1024), (3, 66052)], ids=["cifar", "wide_rows"])
    def test_byte_statistics_at_the_byte_extremes(self, rows, width):
        # channels of all-0 bytes, all-255 bytes and random bytes, over row blocks with a short last one; at
        # 66052 pixels a row's channel holds 255^2 * 66052 > 2**32, past a uint32 row sum
        images = np.zeros((rows, 3, width), dtype=np.uint8)
        images[:, 1] = 255
        images[:, 2] = np.random.default_rng(width).integers(0, 256, size=(rows, width), dtype=np.uint8)
        grouped = images.astype(np.int64)
        want = byte_statistics_from_sums(grouped.sum(axis=(0, 2)), (grouped * grouped).sum(axis=(0, 2)), rows * width)
        got = _byte_statistics(Dataset(images.reshape(rows, -1), np.zeros(rows, dtype=int), 1, "train", channels=3))
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert got[0][:2].tolist() == [0.0, 1.0] and got[1][:2].tolist() == [0.0, 0.0]

    def test_byte_and_float_splits_cannot_mix(self):
        train = Dataset(np.arange(12, dtype=np.uint8).reshape(2, 6), np.array([0, 1]), 2, "train", channels=3)
        test = Dataset(np.zeros((2, 6)), np.array([0, 1]), 2, "test", channels=3)
        with pytest.raises(ValueError, match="train and test layouts disagree"):
            standardize(train, test)

    def test_zero_variance_channel_rejected(self):
        # first channel (columns 0-1) is constant across all samples
        images = np.tile(np.array([0.5, 0.5, 1.0, 2.0, 3.0, 4.0]), (4, 1))
        images[:, 2:] += np.arange(4)[:, None]
        ds = Dataset(images, np.zeros(4, dtype=int), 1, "train", channels=3)
        with pytest.raises(ValueError, match="zero variance"):
            standardize(ds, ds)

    def test_constant_byte_channel_rejected(self):
        # the second channel holds 7 in every pixel: N S2 = S1^2 exactly
        images = np.random.default_rng(4).integers(0, 256, size=(300, 3072), dtype=np.uint8)
        images[:, 1024:2048] = 7
        ds = Dataset(images, np.zeros(300, dtype=int), 1, "train", channels=3)
        with pytest.raises(ValueError, match="zero variance"):
            standardize(ds, ds)


class TestDatasetValidation:
    def test_labels_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((2, 3)), np.array([0, 5]), 3, "train")

    def test_non_finite_images(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[np.inf, 0.0]]), np.array([0]), 1, "train")

    def test_bad_split(self):
        with pytest.raises(ValueError, match="split"):
            Dataset(np.zeros((1, 2)), np.array([0]), 1, "validation")

    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    def test_images_must_be_uint8_or_float64(self, dtype):
        with pytest.raises(ValueError, match="uint8 or float64"):
            Dataset(np.zeros((2, 3), dtype=dtype), np.array([0, 1]), 2, "train")

    @pytest.mark.parametrize("images, labels, channels, message", [
        (np.zeros(6, dtype=np.uint8), [0] * 6, 1, "images must be 2-D, got ndim=1"),
        (np.zeros((1, 2, 3), dtype=np.uint8), [0], 1, "images must be 2-D, got ndim=3"),
        (np.zeros((0, 3)), [], 1, "dataset must contain at least one sample"),
        (np.zeros((0, 3), dtype=np.uint8), [], 1, "dataset must contain at least one sample"),
        (np.zeros((3, 2)), [0, 1], 1, "labels length must match the number of images"),
        (np.zeros((2, 2)), [[0, 1]], 1, "labels length must match the number of images"),
        (np.zeros((2, 7)), [0, 1], 3, "feature width 7 not divisible into 3 channels"),
    ], ids=["uint8_1d", "uint8_3d", "float_no_rows", "uint8_no_rows", "fewer_labels", "labels_2d", "width_7_in_3"])
    def test_malformed_dataset_rejected(self, images, labels, channels, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset(images, np.array(labels), 2, "train", channels=channels)

    def test_raw_pixels_cannot_be_evaluated(self, cifar10_dir):
        params = init_model(3072, [], 10, RngState(1))
        with pytest.raises(ValueError, match="standardize them first"):
            evaluate(params, load_cifar(cifar10_dir, "cifar10", "test"))

    @pytest.mark.parametrize("images, mean, std, message", [
        (np.zeros((2, 3), dtype=np.uint8), [0.5], None, "mean and std must be given together"),
        (np.zeros((2, 3), dtype=np.uint8), [0.5, 0.5], [0.2, 0.2], "mean and std must have shape (1,)"),
        (np.zeros((2, 3), dtype=np.uint8), [0.5], [0.0], "std finite and > 0"),
        (np.zeros((2, 3), dtype=np.uint8), [np.nan], [0.2], "mean must be finite"),
    ], ids=["mean_alone", "two_channels", "zero_std", "nan_mean"])
    def test_malformed_statistics_rejected(self, images, mean, std, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset(images, np.array([0, 1]), 2, "train", mean=mean, std=std)

    def test_rows_standardizes_bytes_in_order(self):
        images = np.array([[0, 51, 255, 128]], dtype=np.uint8)
        ds = Dataset(images, np.array([0]), 1, "train", channels=2, mean=[0.25, 0.5], std=[0.5, 0.125])
        want = [[(0 / 255.0 - 0.25) / 0.5, (51 / 255.0 - 0.25) / 0.5,
                 (255 / 255.0 - 0.5) / 0.125, (128 / 255.0 - 0.5) / 0.125]]
        assert ds.rows(slice(None)).tolist() == want
        out = np.empty((1, 4))
        assert ds.rows(np.array([0]), out) is out and out.tolist() == want
        assert ds.rows(0).tolist() == want[0]

    def test_uint8_images_kept_without_copy(self):
        records = np.arange(12, dtype=np.uint8).reshape(3, 4)
        ds = Dataset(records[:, 1:], np.array([0, 1, 0]), 2, "train")
        assert ds.images.dtype == np.uint8 and np.shares_memory(ds.images, records)


def _bits(ds):
    """Digest of the exact float64 bit patterns of the features, plus labels and layout.

    The features are read through ``rows`` in blocks, so a uint8 split is
    never converted whole.
    """
    digest = hashlib.sha256()
    for start in range(0, ds.size, 4096):
        digest.update(np.ascontiguousarray(ds.rows(slice(start, start + 4096))).view(np.uint64))
    return digest.hexdigest(), ds.images.shape, ds.labels.tolist(), ds.num_classes, ds.split, ds.channels


class TestBuildMatchesFloatPath:
    """The data path, which keeps each split's samples and makes features in
    ``rows``, builds the same float64 splits, bit for bit, as converting every
    CIFAR record to float64 before subsampling did, and as standardizing whole
    blobs splits did."""

    @pytest.mark.parametrize("kind, fields", [
        ("cifar10", {"fraction": 0.1}),
        ("cifar10", {"fraction": 1.0}),
        ("cifar10", {"imbalance_ratio": 0.1}),
        ("cifar100", {"fraction": 0.5}),
        ("blobs", {}),
        ("blobs", {"fraction": 0.5}),
        ("blobs", {"imbalance_ratio": 0.2}),
        # 5000 rows per split: _bits reads them in two blocks
        ("blobs", {"num_classes": 10, "per_class": 500, "dim": 8}),
    ])
    def test_bit_identical(self, kind, fields, request):
        if kind == "blobs":
            spec = dataset_spec_from_dict({"kind": kind, "seed": 17, **fields})
            oracle = float_blobs_pair
        else:
            path = request.getfixturevalue(f"{kind}_dir")
            spec = dataset_spec_from_dict({"kind": kind, "path": str(path), "seed": 17, **fields})
            oracle = float_dataset_pair
        # one pair at a time: the full CIFAR split is 1.2 GB of float64 per copy
        got = [_bits(ds) for ds in build_dataset_pair(spec)]
        want = [_bits(ds) for ds in oracle(spec)]
        assert got == want
