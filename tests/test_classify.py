import math
from dataclasses import replace

import numpy as np
import pytest

from desksense import PipelineConfig
from desksense.classify import (
    FeatureVector,
    GestureLabel,
    LabeledExample,
    cross_validate,
    extract_features,
    fit,
)
from desksense.corpus import generate_gesture_dataset
from desksense.segmentation import GestureSegment

FS = 1000.0


def make_segment(waveform, fs=FS):
    w = np.asarray(waveform, dtype=float)
    return GestureSegment(start_idx=0, end_idx=len(w) - 1, waveform=w, fs=fs)


def example(variance, slope_ratio, duration, label):
    return LabeledExample(
        features=FeatureVector(variance=variance, slope_ratio=slope_ratio, duration=duration),
        label=label,
    )


class TestFeatures:
    def test_symmetric_triangle(self):
        w = np.concatenate([np.linspace(0, 1, 50), np.linspace(1, 0, 50)])
        f = extract_features(make_segment(w))
        assert f.slope_ratio == pytest.approx(1.0, rel=0.05)
        assert f.duration == pytest.approx(100 / FS)

    def test_constant_waveform(self):
        f = extract_features(make_segment(np.full(40, 2.0)))
        assert f.variance == 0.0
        assert f.slope_ratio == 1.0

    def test_worked_example(self):
        # halves [0,2,4,2] and [0,0,0,0]: s1 = (4-0)/(2/fs) = 2000, s2 = 0
        f = extract_features(make_segment([0, 2, 4, 2, 0, 0, 0, 0]))
        assert f.variance == pytest.approx(2.0)
        assert f.duration == pytest.approx(0.008)
        assert math.isinf(f.slope_ratio)

    def test_offset_invariance(self):
        rng = np.random.default_rng(2)
        w = rng.normal(0, 1, 64)
        a = extract_features(make_segment(w))
        b = extract_features(make_segment(w + 123.45))
        assert a.variance == pytest.approx(b.variance, rel=1e-9)
        assert a.slope_ratio == pytest.approx(b.slope_ratio, rel=1e-9)

    def test_time_scaling_keeps_symmetry(self):
        base = np.concatenate([np.linspace(0, 1, 40), np.linspace(1, 0, 40)])
        doubled = np.repeat(base, 2)
        fa = extract_features(make_segment(base))
        fb = extract_features(make_segment(doubled))
        assert fb.duration == pytest.approx(2 * fa.duration)
        assert fb.slope_ratio == pytest.approx(1.0, rel=0.05)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="4 samples"):
            extract_features(make_segment([1.0, 2.0, 3.0]))

    def test_feature_vector_invariants(self):
        with pytest.raises(ValueError):
            FeatureVector(variance=-1.0, slope_ratio=1.0, duration=0.5)
        with pytest.raises(ValueError):
            FeatureVector(variance=0.0, slope_ratio=0.5, duration=0.5)
        with pytest.raises(ValueError):
            FeatureVector(variance=0.0, slope_ratio=1.0, duration=0.0)


class TestFit:
    def test_gaussian_nb_parameters(self):
        examples = [
            example(1.0, 1.0, 0.5, GestureLabel.TYPING),
            example(1.0, 1.0, 0.5, GestureLabel.TYPING),
            example(3.0, 1.0, 0.5, GestureLabel.MOUSE),
            example(3.0, 1.0, 0.5, GestureLabel.MOUSE),
        ]
        model = fit("gaussian_nb", examples)
        np.testing.assert_allclose(np.exp(model.log_priors), [0.5, 0.5])
        # class means in standardized space: variance feature standardizes to -/+1
        assert model.means[0][0] == pytest.approx(-1.0)
        assert model.means[1][0] == pytest.approx(1.0)

    def test_knn_stores_standardized_points(self):
        rng = np.random.default_rng(0)
        examples = [
            example(rng.uniform(1, 5), rng.uniform(1, 3), rng.uniform(0.2, 1),
                    GestureLabel(int(i % 2)))
            for i in range(10)
        ]
        model = fit("knn", examples, k=3)
        assert model.points.shape == (10, 3)
        np.testing.assert_allclose(model.points.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(model.points.std(axis=0), 1.0, rtol=1e-12)

    def test_single_class_rejected(self):
        examples = [example(1.0, 1.0, 0.5, GestureLabel.TYPING)] * 4
        with pytest.raises(ValueError, match="both classes"):
            fit("knn", examples)

    def test_unknown_kind_rejected(self):
        examples = [
            example(1.0, 1.0, 0.5, GestureLabel.TYPING),
            example(2.0, 1.0, 0.5, GestureLabel.MOUSE),
        ]
        with pytest.raises(ValueError, match="unknown classifier"):
            fit("svm", examples)


class TestPredict:
    def test_knn_exact_match(self):
        examples = [
            example(1.0, 1.2, 0.7, GestureLabel.TYPING),
            example(5.0, 3.0, 0.4, GestureLabel.MOUSE),
            example(6.0, 2.5, 0.5, GestureLabel.MOUSE),
        ]
        model = fit("knn", examples, k=1)
        assert model.predict(examples[0].features) is GestureLabel.TYPING
        assert model.predict(examples[1].features) is GestureLabel.MOUSE

    def test_gaussian_nb_prior_dominates_at_midpoint(self):
        examples = (
            [example(1.0, 1.0, 0.5, GestureLabel.TYPING)] * 6
            + [example(1.2, 1.0, 0.5, GestureLabel.TYPING)] * 6
            + [example(3.0, 1.0, 0.5, GestureLabel.MOUSE)] * 2
            + [example(3.2, 1.0, 0.5, GestureLabel.MOUSE)] * 2
        )
        model = fit("gaussian_nb", examples)
        midpoint = FeatureVector(variance=2.1, slope_ratio=1.0, duration=0.5)
        assert model.predict(midpoint) is GestureLabel.TYPING

    def test_knn_invariant_to_uniform_feature_scaling(self):
        rng = np.random.default_rng(4)
        examples = []
        for _ in range(20):
            label = GestureLabel(int(rng.integers(0, 2)))
            base = 2.0 if label is GestureLabel.TYPING else 4.0
            examples.append(
                example(base + rng.normal(0, 0.3), 1.0 + rng.uniform(0, 2),
                        0.3 + rng.uniform(0, 0.5), label)
            )
        scaled = [
            example(ex.features.variance * 10, ex.features.slope_ratio * 10,
                    ex.features.duration * 10, ex.label)
            for ex in examples
        ]
        m1 = fit("knn", examples, k=3)
        m2 = fit("knn", scaled, k=3)
        for ex, exs in zip(examples, scaled):
            assert m1.predict(ex.features) is m2.predict(exs.features)


class TestCrossValidate:
    def separable_dataset(self, n=60):
        rng = np.random.default_rng(7)
        out = []
        for i in range(n):
            if i % 2 == 0:
                out.append(example(5 + rng.normal(0, 0.2), 1.1, 0.7, GestureLabel.TYPING))
            else:
                out.append(example(1 + rng.normal(0, 0.2), 2.5, 0.4, GestureLabel.MOUSE))
        return out

    def test_perfectly_separable(self):
        for kind in ("knn", "gaussian_nb"):
            result = cross_validate(kind, self.separable_dataset(), folds=10, seed=1)
            assert result.mean_accuracy == 1.0
            assert result.confusion.sum() == 60

    def test_permutation_null(self):
        rng = np.random.default_rng(11)
        examples = [
            example(
                2.0 + rng.normal(0, 0.5),
                1.0 + abs(rng.normal(0, 0.5)),
                0.5 + rng.uniform(-0.2, 0.2),
                GestureLabel(int(i % 2)),  # labels independent of features
            )
            for i in range(400)
        ]
        for kind in ("knn", "gaussian_nb"):
            result = cross_validate(kind, examples, folds=10, seed=3)
            assert 0.4 <= result.mean_accuracy <= 0.6

    def test_deterministic(self):
        data = self.separable_dataset()
        a = cross_validate("knn", data, folds=10, seed=5)
        b = cross_validate("knn", data, folds=10, seed=5)
        assert a.fold_accuracies == b.fold_accuracies
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_fold_count_validated(self):
        data = self.separable_dataset(8)
        with pytest.raises(ValueError, match="folds"):
            cross_validate("knn", data, folds=9)

    def test_synthetic_dataset_accuracy(self, session_config, gesture_dataset):
        # simulator-labeled corpus: both mandated classifiers well above chance
        for kind in ("knn", "gaussian_nb"):
            result = cross_validate(
                kind, gesture_dataset, folds=10,
                seed=session_config.seeds.cross_validation,
            )
            assert result.mean_accuracy >= 0.9


class TestGestureDataset:
    @pytest.mark.parametrize("seed", [1, 7, 12])
    @pytest.mark.parametrize("n", [10, 24, 400])
    def test_class_quotas(self, n, seed):
        # one subcarrier: the class quotas do not depend on the channel's width
        config = PipelineConfig()
        config = replace(config, simulation=replace(config.simulation, subcarriers=1),
                         seeds=replace(config.seeds, simulation=seed))
        dataset = generate_gesture_dataset(config, n_segments=n)
        typing = sum(ex.label is GestureLabel.TYPING for ex in dataset)
        assert len(dataset) == n
        assert (typing, n - typing) == ((n + 1) // 2, n // 2)
