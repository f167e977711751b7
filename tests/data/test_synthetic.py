import numpy as np
import pytest

from repro.data import (
    TABLE1,
    SyntheticSpec,
    list_entries,
    make_classification,
    train_val_split,
)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=3, n_classes=4)
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=10, n_classes=1)
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=10, n_classes=2, intra_modes=0)


class TestMakeClassification:
    def test_shapes_and_dtypes(self):
        X, y = make_classification(SyntheticSpec(100, 5, n_features=8))
        assert X.shape == (100, 8)
        assert X.dtype == np.float32
        assert y.shape == (100,)
        assert y.dtype == np.int64

    def test_balanced_labels(self):
        _, y = make_classification(SyntheticSpec(103, 5))
        counts = np.bincount(y, minlength=5)
        assert counts.max() - counts.min() <= 1

    def test_reproducible(self):
        spec = SyntheticSpec(64, 4, seed=9)
        X1, y1 = make_classification(spec)
        X2, y2 = make_classification(spec)
        assert np.array_equal(X1, X2)
        assert np.array_equal(y1, y2)

    def test_seed_changes_data(self):
        X1, _ = make_classification(SyntheticSpec(64, 4, seed=1))
        X2, _ = make_classification(SyntheticSpec(64, 4, seed=2))
        assert not np.array_equal(X1, X2)

    def test_separation_is_learnable_signal(self):
        """Nearest-prototype accuracy must beat chance when separated, and
        collapse towards chance when separation is ~0."""

        def centroid_acc(sep, spread):
            X, y = make_classification(
                SyntheticSpec(
                    600, 3, n_features=16, separation=sep, mode_spread=spread,
                    noise=1.0, seed=3,
                )
            )
            cents = np.stack([X[y == c].mean(0) for c in range(3)])
            pred = np.argmin(((X[:, None, :] - cents[None]) ** 2).sum(-1), axis=1)
            return (pred == y).mean()

        assert centroid_acc(4.0, 1.0) > 0.9
        # With no prototype separation and no mode structure the classes are
        # identical distributions -> near-chance accuracy.
        assert centroid_acc(0.0, 0.0) < 0.55


class TestSplit:
    def test_split_sizes(self):
        X, y = make_classification(SyntheticSpec(100, 4))
        tr, va = train_val_split(X, y, val_fraction=0.2, seed=0)
        assert len(tr) == 80 and len(va) == 20

    def test_split_disjoint(self):
        X = np.arange(50, dtype=np.float32).reshape(50, 1)
        y = np.zeros(50, dtype=np.int64)
        tr, va = train_val_split(X, y, val_fraction=0.3, seed=1)
        tr_vals = {float(tr[i][0][0]) for i in range(len(tr))}
        va_vals = {float(va[i][0][0]) for i in range(len(va))}
        assert not tr_vals & va_vals
        assert len(tr_vals | va_vals) == 50

    def test_bad_fraction(self):
        X, y = make_classification(SyntheticSpec(10, 2))
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                train_val_split(X, y, val_fraction=frac)


class TestRegistry:
    def test_table1_has_all_paper_rows(self):
        keys = {e.key for e in list_entries()}
        assert len(keys) == 8
        assert "resnet50/imagenet1k" in keys
        assert "deepcam/deepcam" in keys

    def test_paper_scale_facts(self):
        e = TABLE1["deepcam/deepcam"]
        assert e.paper_samples == 122_000
        assert e.paper_bytes > 8 * 10**12
        # DeepCAM samples are ~70 MB each.
        assert 50e6 < e.paper_bytes / e.paper_samples < 100e6

    def test_repro_specs_are_generable(self):
        for e in list_entries():
            X, y = make_classification(e.repro_spec)
            assert len(X) == e.repro_spec.n_samples
