import hashlib

import numpy as np
import pytest

from icmix.data import (
    Dataset,
    DatasetFileError,
    _blob_means,
    load_cifar,
    longtail_subsample,
    standardize,
    stratified_subsample,
    synth_blobs,
)
from icmix.harness import build_dataset_pair, dataset_spec_from_dict, evaluate
from icmix.model import init_model
from icmix.numerics import RngState, round_half_up

from oracles import float_dataset_pair, scalar_rng


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
        train, test = synth_blobs(3, 300, 5, 0.3, seed=7)
        means = _blob_means(3, 5)
        for ds, stream in ((train, 0), (test, 1)):
            rng = scalar_rng(RngState(7).derive(stream).seed)
            expected = np.stack([means[c] + 0.3 * rng.normals(5) for c in range(3) for _ in range(300)])
            assert np.array_equal(ds.images.view(np.uint64), expected.view(np.uint64))

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
        grouped = train_std.images.reshape(train_std.size, 3, 1024)
        assert np.max(np.abs(grouped.mean(axis=(0, 2)))) < 1e-6
        assert np.max(np.abs(grouped.std(axis=(0, 2)) - 1.0)) < 1e-6

    def test_test_split_uses_train_statistics(self):
        train, test = synth_blobs(3, 50, 4, 0.3, seed=9)
        grouped = train.images
        mean, std = grouped.mean(), grouped.std()
        train_std, test_std = standardize(train, test)
        assert np.max(np.abs(test_std.images - (test.images - mean) / std)) < 1e-12
        # test split statistics are close to, but not exactly, 0/1
        assert abs(test_std.images.mean()) > 0.0

    def test_zero_variance_channel_rejected(self):
        # first channel (columns 0-1) is constant across all samples
        images = np.tile(np.array([0.5, 0.5, 1.0, 2.0, 3.0, 4.0]), (4, 1))
        images[:, 2:] += np.arange(4)[:, None]
        ds = Dataset(images, np.zeros(4, dtype=int), 1, "train", channels=3)
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

    def test_raw_pixels_cannot_be_evaluated(self, cifar10_dir):
        params = init_model(3072, [], 10, RngState(1))
        with pytest.raises(ValueError, match="standardize them first"):
            evaluate(params, load_cifar(cifar10_dir, "cifar10", "test"))

    def test_uint8_images_kept_without_copy(self):
        records = np.arange(12, dtype=np.uint8).reshape(3, 4)
        ds = Dataset(records[:, 1:], np.array([0, 1, 0]), 2, "train")
        assert ds.images.dtype == np.uint8 and np.shares_memory(ds.images, records)


def _bits(ds):
    """Digest of the exact float64 bit patterns, plus labels and layout."""
    digest = hashlib.sha256(np.ascontiguousarray(ds.images).view(np.uint64)).hexdigest()
    return digest, ds.images.shape, ds.labels.tolist(), ds.num_classes, ds.split, ds.channels


class TestBuildMatchesFloatPath:
    """The uint8 data path builds the same float64 splits, bit for bit, as
    converting every record to float64 before subsampling did."""

    @pytest.mark.parametrize("kind, fields", [
        ("cifar10", {"fraction": 0.1}),
        ("cifar10", {"fraction": 1.0}),
        ("cifar10", {"imbalance_ratio": 0.1}),
        ("cifar100", {"fraction": 0.5}),
    ])
    def test_bit_identical(self, kind, fields, cifar10_dir, cifar100_dir):
        path = cifar10_dir if kind == "cifar10" else cifar100_dir
        spec = dataset_spec_from_dict({"kind": kind, "path": str(path), "seed": 17, **fields})
        # one pair at a time: the full split is 1.2 GB of float64 per copy
        got = [_bits(ds) for ds in build_dataset_pair(spec)]
        want = [_bits(ds) for ds in float_dataset_pair(spec)]
        assert got == want
