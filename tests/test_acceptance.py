"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers (run with `pytest -s` to see them
on success)."""
import json
import time

import numpy as np

from conftest import brute_force_likelihood
from desksense.behavior import BehaviorHmm, GestureSequence, baum_welch, forward_log_likelihood
from desksense.channel import (
    _fill_band,
    ChannelModel,
    FresnelGeometry,
    GestureKind,
    GestureModel,
    path_length,
    simulate_plate_sweep,
    simulate_trace,
    zone_boundary_radius,
)
from desksense.classify import FeatureVector, GestureLabel, LabeledExample, cross_validate
from desksense.cli import main as cli_main
from desksense.corpus import evaluate_segmentation, keystroke_burst_script, segment_trace, simulate_script
from desksense.pipeline import behavior_confusion_table, behavior_study
from desksense.preprocess import FilterSpec, analytic_gain, measured_gain

GEOM = FresnelGeometry()


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def test_criterion_1_zone_geometry():
    with Stopwatch() as sw:
        b9 = zone_boundary_radius(GEOM, 9)
        b10 = zone_boundary_radius(GEOM, 10)
        b11 = zone_boundary_radius(GEOM, 11)
    t_9_10 = (b10 - b9) * 100
    t_10_11 = (b11 - b10) * 100
    ok = 3.5 <= t_9_10 <= 4.3 and 3.5 <= t_10_11 <= 4.3 and sw.elapsed < 1.0
    report(1, ok, f"zone thickness 9->10 {t_9_10:.2f} cm, 10->11 {t_10_11:.2f} cm "
                  f"(target [3.5, 4.3] cm), {sw.elapsed:.3f}s")


def test_criterion_2_superposition_physics():
    def response(point):
        # the simulator's band kernel, row 0 of gain 1 at lambda_0 = lambda
        h = np.empty((1, 1), dtype=complex)
        _fill_band(h, 1.0, [(path_length(GEOM, np.array([point])), 0.5)], GEOM.wavelength,
                   0.0, [1.0])
        return h[0, 0]

    # constructive: on-axis reflector, total path 8 * lambda
    err_c = abs(abs(response([0.25, 0.0, 0.0])) - 1.5)
    # destructive: total path 8.5 * lambda
    y = np.sqrt(0.53125**2 - 0.25)
    err_d = abs(abs(response([0.5, y, 0.0])) - 0.5)

    def keystroke_amplitude(depth):
        gesture = GestureModel(
            kind=GestureKind.KEYSTROKE, rest_pos=np.array([0.5, 0.0, -depth]),
            travel=0.02, duration=0.7,
        )
        model = ChannelModel(geometry=GEOM, static_component=1.0, noise_std=0.0)
        trace = simulate_trace(
            model, [(1.0, gesture)], duration=2.5, fs=1000.0,
            subcarriers=1,
            reflection_amplitude=0.5,
        )
        return np.abs(trace.samples[0])

    # case 1: stroke inside zone 10 -> strictly monotone per stroke
    amp1 = keystroke_amplitude(0.61)
    case1 = bool(np.all(np.diff(amp1[1001:1350]) > 0) and np.all(np.diff(amp1[1351:1700]) < 0))

    # case 2: stroke crossing one boundary -> exactly one interior extremum
    amp2 = keystroke_amplitude(0.63)
    down = amp2[1001:1350]
    d = np.diff(down)
    flips = int(np.sum(np.diff(np.sign(d[d != 0])) != 0))
    case2 = flips == 1 and 0 < int(np.argmax(down)) < len(down) - 1

    ok = err_c <= 1e-12 and err_d <= 1e-12 and case1 and case2
    report(2, ok, f"|A+a| err {err_c:.1e}, |A-a| err {err_d:.1e} (<=1e-12); "
                  f"case1 monotone {case1}; case2 single extremum {case2}")


def test_criterion_3_filter_response():
    fs = 1000.0
    spec = FilterSpec()
    with Stopwatch() as sw:
        freqs = np.concatenate([np.logspace(np.log10(0.1), 2.0, 25), [7.5]])
        worst_abs = 0.0
        worst_rel = 0.0
        for f in freqs:
            measured = measured_gain(f, fs, spec)
            ideal = float(analytic_gain(f, spec))
            worst_abs = max(worst_abs, abs(measured - ideal))
            if ideal > 0.1:
                worst_rel = max(worst_rel, abs(measured - ideal) / ideal)
        corner = measured_gain(7.5, fs, spec)
    ok = (
        worst_abs < 0.01
        and worst_rel < 0.01
        and abs(corner - 0.707) <= 0.01
        and sw.elapsed < 5.0
    )
    report(3, ok, f"gain error <= {worst_abs:.2e} abs / {worst_rel:.2e} rel over "
                  f"0.1-100 Hz; corner gain {corner:.4f} (0.707 +/- 0.01); {sw.elapsed:.1f}s")


def test_criterion_4_segmentation(session_config, segmentation_corpus, corpus_timing):
    with Stopwatch() as sw:
        metrics = evaluate_segmentation(session_config, segmentation_corpus)
        script, duration = keystroke_burst_script(session_config, count=17)
        trace = simulate_script(session_config, script, duration, seed=1)
        n17 = len(segment_trace(session_config, trace))
    elapsed = sw.elapsed + corpus_timing["segmentation_corpus"]
    ok = (
        metrics.recall >= 0.95
        and metrics.precision >= 0.95
        and metrics.mean_boundary_error_s <= 0.1
        and n17 == 17
        and elapsed < 60.0
    )
    report(4, ok, f"recall {metrics.recall:.3f} precision {metrics.precision:.3f} "
                  f"boundary {metrics.mean_boundary_error_s * 1000:.0f} ms "
                  f"(targets >=0.95 / >=0.95 / <=100 ms); 17-keystroke -> {n17}; "
                  f"{elapsed:.1f}s")


def test_criterion_5_gesture_classification(
    session_config, gesture_dataset, gesture_cv_results, corpus_timing
):
    with Stopwatch() as sw:
        rng = np.random.default_rng(session_config.seeds.cross_validation)
        null_examples = [
            LabeledExample(
                FeatureVector(
                    variance=2.0 + rng.normal(0, 0.5),
                    slope_ratio=1.0 + abs(rng.normal(0, 0.5)),
                    duration=0.5 + rng.uniform(-0.2, 0.2),
                ),
                GestureLabel(int(i % 2)),
            )
            for i in range(400)
        ]
        null = cross_validate("knn", null_examples, folds=10, seed=3)
    knn = gesture_cv_results["knn"].mean_accuracy
    gnb = gesture_cv_results["gaussian_nb"].mean_accuracy
    elapsed = sw.elapsed + corpus_timing["gesture_dataset"] + corpus_timing["gesture_cv"]
    ok = (
        knn >= 0.90
        and gnb >= 0.90
        and 0.4 <= null.mean_accuracy <= 0.6
        and elapsed < 60.0
    )
    report(5, ok, f"10-fold accuracy knn {knn:.3f}, gaussian_nb {gnb:.3f} (>=0.90); "
                  f"permutation-null {null.mean_accuracy:.3f} (0.5 +/- 0.1); {elapsed:.1f}s")


def test_criterion_6_hmm_correctness():
    with Stopwatch() as sw:
        rng = np.random.default_rng(2024)
        worst_rel = 0.0
        for _ in range(200):
            pi = rng.dirichlet([1, 1])
            A = np.array([rng.dirichlet([1, 1]), rng.dirichlet([1, 1])])
            B = np.array([rng.dirichlet([1, 1]), rng.dirichlet([1, 1])])
            hmm = BehaviorHmm(pi=pi, A=A, B=B)
            obs = rng.integers(0, 2, int(rng.integers(1, 9)))
            expected = brute_force_likelihood(pi, A, B, obs)
            got = np.exp(forward_log_likelihood(hmm, GestureSequence(obs)))
            worst_rel = max(worst_rel, abs(got - expected) / expected)
        forward_ok = worst_rel <= 1e-10

        B_fixed = np.array([[0.9, 0.1], [0.2, 0.8]])
        monotone_ok = True
        for run in range(50):
            run_rng = np.random.default_rng(10_000 + run)
            A_true = np.array([run_rng.dirichlet([4, 2]), run_rng.dirichlet([2, 4])])
            seqs = []
            for _ in range(3):
                hidden = [int(run_rng.integers(0, 2))]
                for _ in range(59):
                    hidden.append(int(run_rng.choice(2, p=A_true[hidden[-1]])))
                obs = np.array([int(run_rng.choice(2, p=B_fixed[h])) for h in hidden])
                seqs.append(GestureSequence(obs))
            _, history = baum_welch(seqs, B=B_fixed, pi=np.array([0.5, 0.5]), max_iter=30)
            if np.any(np.diff(history) < -1e-9):
                monotone_ok = False

        A_star = np.array([[0.8, 0.2], [0.3, 0.7]])
        gen = np.random.default_rng(77)
        train = []
        for _ in range(20):
            hidden = [int(gen.integers(0, 2))]
            for _ in range(499):
                hidden.append(int(gen.choice(2, p=A_star[hidden[-1]])))
            obs = np.array([int(gen.choice(2, p=B_fixed[h])) for h in hidden])
            train.append(GestureSequence(obs))
        A_hat, _ = baum_welch(train, B=B_fixed, pi=np.array([0.5, 0.5]))
        recovery_err = float(np.max(np.abs(A_hat - A_star)))
        recovery_ok = recovery_err <= 0.05
    ok = forward_ok and monotone_ok and recovery_ok and sw.elapsed < 120.0
    report(6, ok, f"forward vs brute force rel err {worst_rel:.1e} (<=1e-10, 200 pairs); "
                  f"BW log-likelihood monotone over 50 runs {monotone_ok}; "
                  f"recovery max err {recovery_err:.3f} (<=0.05); {sw.elapsed:.1f}s")


def test_criterion_7_behavior_classification(session_config, gesture_cv_results, corpus_timing):
    with Stopwatch() as sw:
        confusion = np.asarray(gesture_cv_results[session_config.classifier.kind].confusion)
        macro, confusion_b, _models = behavior_study(
            session_config, confusion, n_test=100, test_length=50
        )
        table = behavior_confusion_table(confusion_b)
    print(table)
    total = confusion_b.sum()
    ok = macro >= 0.85 and total == 300 and sw.elapsed < 30.0
    report(7, ok, f"macro accuracy {macro:.3f} over {total} length-50 sequences "
                  f"(>=0.85, emission from criterion-5 confusion); {sw.elapsed:.1f}s")


def test_criterion_8_plate_sweep():
    with Stopwatch() as sw:
        sides = [s / 100 for s in range(2, 13)]
        rows = simulate_plate_sweep(GEOM, sides)
        pp = np.array([v for _s, v in rows])
    rising = np.flatnonzero(np.diff(pp) > 0)
    falling = np.flatnonzero(np.diff(pp) < 0)
    has_max = len(rising) > 0 and len(falling[falling > rising[0]]) > 0
    has_min_after = False
    if has_max:
        first_fall = falling[falling > rising[0]][0]
        has_min_after = len(rising[rising > first_fall]) > 0
    ok = has_max and has_min_after and sw.elapsed < 60.0
    report(8, ok, f"2-12 cm sweep non-monotonic (local max then local min): "
                  f"{np.array2string(pp, precision=6)}; {sw.elapsed:.1f}s")


def test_criterion_9_pipeline_determinism(tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(["--out", str(sim), "--seed", "5", "simulate", "--keystrokes", "4"]) == 0
    reports = []
    for name in ("r1", "r2"):
        rdir = tmp_path / name
        assert cli_main([
            "--out", str(rdir), "--seed", "5", "pipeline",
            "--trace", str(sim / "trace.csv"), "--annotations", str(sim / "trace.ann"),
        ]) == 0
        doc = json.loads((rdir / "report.json").read_text())
        doc.pop("timings_s")
        reports.append(doc)
    ok = reports[0] == reports[1]
    report(9, ok, "identical config + seeds give identical pipeline reports "
                  "(timings excluded by design)")
