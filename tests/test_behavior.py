import logging
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_likelihood
from desksense import pipeline
from desksense.behavior import (
    Behavior,
    BehaviorHmm,
    GestureSequence,
    PROFILES,
    _forward,
    baum_welch,
    build_emission,
    classify_behavior,
    estimate_initial,
    fit_behavior_models,
    forward_log_likelihood,
    sample_behavior_sequence,
)
from desksense.config import PipelineConfig

IDENTITY = np.eye(2)
# A strictly positive 2-vector summing to 1, or a matrix of two such rows.
POSITIVE = st.floats(1e-3, 1 - 1e-3)
STOCHASTIC_ROW = POSITIVE.map(lambda p: [p, 1 - p])
STOCHASTIC_MATRIX = st.lists(STOCHASTIC_ROW, min_size=2, max_size=2)
B_REF = np.array([[0.9, 0.1], [0.2, 0.8]])
A_REF = np.array([[0.7, 0.3], [0.4, 0.6]])
PI_REF = np.array([0.6, 0.4])


def unscaled_forward(hmm, obs):
    """Textbook forward recursion without scaling (oracle for short sequences)."""
    alpha = hmm.pi * hmm.B[:, obs[0]]
    for o in obs[1:]:
        alpha = (alpha @ hmm.A) * hmm.B[:, o]
    return float(alpha.sum())


def reference_forward(pi, A, B, obs):
    """One sequence at a time, a step at a time: (alphas, log-likelihood)."""
    alpha = pi * B[:, obs[0]]
    scale = alpha.sum()
    if scale == 0.0:
        return None, -np.inf
    alpha = alpha / scale
    log_like = np.log(scale)
    alphas = [alpha]
    for o in obs[1:]:
        alpha = (alpha @ A) * B[:, o]
        scale = alpha.sum()
        if scale == 0.0:
            return None, -np.inf
        alpha = alpha / scale
        log_like += np.log(scale)
        alphas.append(alpha)
    return np.array(alphas), float(log_like)


def reference_backward(A, B, obs):
    """Backward variables of one sequence, normalized per step."""
    betas = np.empty((len(obs), 2))
    betas[-1] = 1.0
    for t in range(len(obs) - 2, -1, -1):
        b = A @ (B[:, obs[t + 1]] * betas[t + 1])
        s = b.sum()
        betas[t] = b / s if s > 0 else 0.0
    return betas


def reference_baum_welch(sequences, B, pi, A, max_iter, tol):
    """Baum-Welch over one sequence at a time: (A, log-likelihood history)."""
    history = []
    for _ in range(max_iter):
        total_ll = 0.0
        xi_num = np.zeros((2, 2))
        gamma_den = np.zeros(2)
        for obs in sequences:
            alphas, ll = reference_forward(pi, A, B, obs)
            if alphas is None:
                total_ll = -np.inf
                continue
            total_ll += ll
            if len(obs) < 2:
                continue
            betas = reference_backward(A, B, obs)
            emit_beta = B[:, obs[1:]].T * betas[1:]
            terms = alphas[:-1, :, None] * A[None, :, :] * emit_beta[:, None, :]
            norms = terms.sum(axis=(1, 2))
            ok = norms > 0
            xi = terms[ok] / norms[ok, None, None]
            xi_num += xi.sum(axis=0)
            gamma_den += xi.sum(axis=(0, 2))
        history.append(total_ll)
        new_A = A.copy()
        for i in range(2):
            if gamma_den[i] > 0:
                new_A[i] = xi_num[i] / gamma_den[i]
        new_A = np.clip(new_A, 0.0, None)
        new_A /= new_A.sum(axis=1, keepdims=True)
        A = new_A
        if len(history) >= 2:
            prev, last = history[-2], history[-1]
            if last == prev == -np.inf or abs(last - prev) < tol:
                break
    return A, np.array(history)


# A probability in [0, 1] that is 0 or 1 now and then, so that some
# sequences cannot be emitted.
PROBABILITY = st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1 - 1e-3)
ROW = PROBABILITY.map(lambda p: np.array([p, 1 - p]))
MATRIX = st.tuples(ROW, ROW).map(np.array)


@st.composite
def mixed_length_sequences(draw):
    """1-10 observation arrays; lengths repeat, so stacks have several rows."""
    lengths = draw(st.lists(st.sampled_from([1, 2, 5, 8, 13, 40]), min_size=1, max_size=10))
    return [np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=int)
            for n in lengths]


class TestBatchedKernel:
    """The (N, T) kernels against the per-sequence reference above."""

    @settings(max_examples=150)
    @given(pi=ROW, A=MATRIX, B=MATRIX, sequences=mixed_length_sequences())
    def test_stack_matches_each_sequence_alone(self, pi, A, B, sequences):
        hmm = BehaviorHmm(pi=pi, A=A, B=B)
        for n in {len(obs) for obs in sequences}:
            stack = [obs for obs in sequences if len(obs) == n]
            _, got = _forward(pi, A, B, np.stack(stack))
            for obs, log_like in zip(stack, got):
                _, want = reference_forward(pi, A, B, obs)
                # N = 1 gives the reference's bits, -inf included
                alone = forward_log_likelihood(hmm, GestureSequence(obs))
                assert np.float64(alone).tobytes() == np.float64(want).tobytes()
                if want == -np.inf:
                    assert log_like == -np.inf
                else:
                    assert abs(log_like - want) <= 1e-12 * abs(want)
                if n <= 8:
                    brute = brute_force_likelihood(pi, A, B, obs)
                    assert np.exp(log_like) == pytest.approx(brute, rel=1e-10, abs=0)

    @settings(max_examples=60)
    @given(pi=ROW, B=MATRIX, A_init=STOCHASTIC_MATRIX, sequences=mixed_length_sequences())
    def test_baum_welch_matches_per_sequence_reference(self, pi, B, A_init, sequences):
        A, history = baum_welch([GestureSequence(obs) for obs in sequences], B=B, pi=pi,
                                A_init=A_init, max_iter=12, tol=0.0)
        A_ref, history_ref = reference_baum_welch(sequences, B, pi, np.array(A_init),
                                                  max_iter=12, tol=0.0)
        assert len(history) == len(history_ref)
        np.testing.assert_allclose(history, history_ref, rtol=1e-9)
        np.testing.assert_allclose(A, A_ref, rtol=0, atol=1e-9)


class TestForward:
    def test_deterministic_chain(self):
        hmm = BehaviorHmm(pi=[1.0, 0.0], A=IDENTITY, B=IDENTITY)
        seq = GestureSequence(np.array([0, 0, 0]))
        assert forward_log_likelihood(hmm, seq) == pytest.approx(0.0, abs=1e-14)

    def test_impossible_emission(self):
        hmm = BehaviorHmm(pi=[1.0, 0.0], A=IDENTITY, B=IDENTITY)
        seq = GestureSequence(np.array([0, 1, 0]))
        assert forward_log_likelihood(hmm, seq) == -np.inf

    def test_two_step_example(self):
        # brute force over the 4 hidden paths: .0378 + .1296 + .0032 + .0384
        hmm = BehaviorHmm(pi=PI_REF, A=A_REF, B=B_REF)
        seq = GestureSequence(np.array([0, 1]))
        assert np.exp(forward_log_likelihood(hmm, seq)) == pytest.approx(0.2090, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            pi = rng.dirichlet([1, 1])
            A = np.array([rng.dirichlet([1, 1]), rng.dirichlet([1, 1])])
            B = np.array([rng.dirichlet([1, 1]), rng.dirichlet([1, 1])])
            hmm = BehaviorHmm(pi=pi, A=A, B=B)
            n = int(rng.integers(1, 9))
            obs = rng.integers(0, 2, n)
            expected = brute_force_likelihood(pi, A, B, obs)
            got = np.exp(forward_log_likelihood(hmm, GestureSequence(obs)))
            assert got == pytest.approx(expected, rel=1e-10)

    def test_scaling_matches_unscaled(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            hmm = BehaviorHmm(
                pi=rng.dirichlet([2, 2]),
                A=np.array([rng.dirichlet([2, 2]), rng.dirichlet([2, 2])]),
                B=np.array([rng.dirichlet([2, 2]), rng.dirichlet([2, 2])]),
            )
            obs = rng.integers(0, 2, int(rng.integers(1, 9)))
            expected = unscaled_forward(hmm, obs)
            got = np.exp(forward_log_likelihood(hmm, GestureSequence(obs)))
            assert got == pytest.approx(expected, rel=1e-10)

    def test_result_nonpositive(self):
        hmm = BehaviorHmm(pi=PI_REF, A=A_REF, B=B_REF)
        rng = np.random.default_rng(1)
        for _ in range(20):
            seq = GestureSequence(rng.integers(0, 2, 30))
            assert forward_log_likelihood(hmm, seq) <= 0.0


def sample_set(A_true, n_seqs=20, length=500, seed=17):
    profile_like = BehaviorHmm(pi=np.array([0.5, 0.5]), A=A_true, B=B_REF)
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n_seqs):
        hidden = np.empty(length, dtype=int)
        hidden[0] = rng.choice(2, p=profile_like.pi)
        for t in range(1, length):
            hidden[t] = rng.choice(2, p=A_true[hidden[t - 1]])
        obs = np.array([rng.choice(2, p=B_REF[h]) for h in hidden])
        seqs.append(GestureSequence(obs))
    return seqs


class TestBaumWelch:
    @settings(max_examples=60)
    @given(pi=STOCHASTIC_ROW, B=STOCHASTIC_MATRIX, A_init=STOCHASTIC_MATRIX,
           observations=st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=60),
                                 min_size=1, max_size=8))
    @example(pi=[0.5, 0.5], B=B_REF, A_init=None,
             observations=[s.observations for s in sample_set(A_REF, n_seqs=4, length=60)])
    def test_log_likelihood_non_decreasing(self, pi, B, A_init, observations):
        seqs = [GestureSequence(obs) for obs in observations]
        _, history = baum_welch(seqs, B=B, pi=pi, A_init=A_init, max_iter=40)
        assert np.all(np.isfinite(history))
        assert np.all(np.diff(history) >= -1e-9 * np.maximum(1.0, np.abs(history[:-1])))

    def test_parameter_recovery(self):
        A_true = np.array([[0.8, 0.2], [0.3, 0.7]])
        seqs = sample_set(A_true)
        A, _ = baum_welch(seqs, B=B_REF, pi=np.array([0.5, 0.5]))
        assert np.max(np.abs(A - A_true)) < 0.05

    def test_fixed_point(self):
        A_true = np.array([[0.75, 0.25], [0.35, 0.65]])
        seqs = sample_set(A_true, n_seqs=10, length=400, seed=3)
        A_star, _ = baum_welch(seqs, B=B_REF, pi=np.array([0.5, 0.5]))
        again, history = baum_welch(
            seqs, B=B_REF, pi=np.array([0.5, 0.5]), A_init=A_star, max_iter=2
        )
        assert np.max(np.abs(again - A_star)) < 1e-4

    def test_rows_stay_stochastic(self):
        seqs = sample_set(A_REF, n_seqs=3, length=50)
        A, _ = baum_welch(seqs, B=B_REF, pi=np.array([0.5, 0.5]), max_iter=25)
        np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(A >= 0)

    def test_rejects_nonpositive_init(self):
        seqs = sample_set(A_REF, n_seqs=2, length=30)
        with pytest.raises(ValueError, match="strictly positive"):
            baum_welch(seqs, B=B_REF, pi=np.array([0.5, 0.5]),
                       A_init=np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_capped_fit_logs_a_warning(self, caplog):
        seqs = sample_set(A_REF, n_seqs=3, length=50)
        weak = np.array([[0.55, 0.45], [0.45, 0.55]])
        with caplog.at_level(logging.WARNING, logger="desksense.behavior"):
            _, history = baum_welch(seqs, B=weak, pi=np.array([0.5, 0.5]), max_iter=3)
            assert len(history) == 3
            [record] = caplog.records
            assert record.levelno == logging.WARNING
            assert "max_iter=3" in record.getMessage()
            assert f"change {history[-1] - history[-2]:.3g} " in record.getMessage()
            caplog.clear()
            baum_welch(seqs, B=B_REF, pi=np.array([0.5, 0.5]))
            assert caplog.records == []

    def test_impossible_data_flagged_not_failed(self):
        # emissions cannot produce the observed symbol: likelihood stays -inf
        # and the transition matrix is left at its initial value
        B = np.array([[0.0, 1.0], [0.0, 1.0]])
        seqs = [GestureSequence(np.zeros(10, dtype=int))]
        A, history = baum_welch(seqs, B=B, pi=np.array([0.5, 0.5]), max_iter=20)
        assert np.all(np.isinf(history))
        np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-12)
        assert len(history) <= 3


class TestEmission:
    def test_perfect_classifier_smoothed(self):
        B = build_emission(np.array([[50, 0], [0, 50]]))
        np.testing.assert_allclose(B, [[51 / 52, 1 / 52], [1 / 52, 51 / 52]])

    def test_plain_normalization(self):
        B = build_emission(np.array([[90, 10], [20, 80]]))
        np.testing.assert_allclose(B, [[0.9, 0.1], [0.2, 0.8]])

    def test_uniform(self):
        B = build_emission(np.array([[1, 1], [1, 1]]))
        np.testing.assert_allclose(B, 0.5)

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError, match="at least one count"):
            build_emission(np.array([[0, 0], [5, 5]]))

    def test_estimate_initial(self):
        seqs = [GestureSequence(np.array([0, 1])), GestureSequence(np.array([0])),
                GestureSequence(np.array([1, 1]))]
        pi = estimate_initial(seqs)
        np.testing.assert_allclose(pi, [3 / 5, 2 / 5])   # add-one smoothing


class TestBehaviorModels:
    def test_fitted_models_closer_to_own_generator(self):
        B = B_REF
        rng_seed = 100
        training = {
            b: [
                sample_behavior_sequence(replace(PROFILES[b], B=B), 200,
                                         seed=rng_seed + 37 * i + b_i)
                for i in range(20)
            ]
            for b_i, b in enumerate(Behavior)
        }
        models = fit_behavior_models(training, B=B)
        for b in Behavior:
            own = np.linalg.norm(models[b].A - PROFILES[b].A)
            for other in Behavior:
                if other is b:
                    continue
                cross = np.linalg.norm(models[b].A - PROFILES[other].A)
                assert own < cross

    def test_keyboard_only_training(self):
        # near-deterministic emissions and all-typing observations push the
        # typing self-transition toward 1
        B = np.array([[0.99, 0.01], [0.01, 0.99]])
        seqs = [GestureSequence(np.zeros(80, dtype=int)) for _ in range(5)]
        models = fit_behavior_models({Behavior.WORKING: seqs}, B=B)
        assert models[Behavior.WORKING].A[0, 0] > 0.9

    def test_identical_training_identical_models(self):
        B = B_REF
        seqs = [
            sample_behavior_sequence(replace(PROFILES[Behavior.GAMING], B=B), 100, seed=s)
            for s in range(8)
        ]
        m1 = fit_behavior_models({Behavior.SURFING: seqs, Behavior.WORKING: seqs}, B=B)
        np.testing.assert_array_equal(
            m1[Behavior.SURFING].A, m1[Behavior.WORKING].A
        )
        np.testing.assert_array_equal(
            m1[Behavior.SURFING].pi, m1[Behavior.WORKING].pi
        )


class TestClassifyBehavior:
    def degenerate_models(self):
        return {
            Behavior.SURFING: BehaviorHmm(pi=[1, 0], A=IDENTITY, B=IDENTITY),
            Behavior.WORKING: BehaviorHmm(pi=PI_REF, A=A_REF, B=B_REF),
        }

    def test_degenerate_sequence_matches_its_model(self):
        models = self.degenerate_models()
        seq = GestureSequence(np.zeros(10, dtype=int))
        result = classify_behavior(models, seq)
        assert result.behavior is Behavior.SURFING
        assert not result.tie

    def test_unclassifiable(self):
        models = {
            Behavior.SURFING: BehaviorHmm(pi=[1, 0], A=IDENTITY, B=IDENTITY),
            Behavior.WORKING: BehaviorHmm(pi=[1, 0], A=IDENTITY, B=IDENTITY),
        }
        seq = GestureSequence(np.array([0, 1]))
        result = classify_behavior(models, seq)
        assert result.unclassifiable
        assert result.behavior is None

    def test_tie_resolves_in_fixed_order(self):
        shared = BehaviorHmm(pi=PI_REF, A=A_REF, B=B_REF)
        models = {
            Behavior.GAMING: shared,
            Behavior.WORKING: BehaviorHmm(pi=PI_REF, A=A_REF, B=B_REF),
        }
        seq = GestureSequence(np.array([0, 1, 1, 0]))
        result = classify_behavior(models, seq)
        assert result.tie
        assert result.behavior is Behavior.WORKING  # working precedes gaming


def hidden_chain(hmm, length, seed):
    """The hidden chain sample_behavior_sequence draws first from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    hidden = [int(rng.choice(2, p=hmm.pi))]
    for _ in range(1, length):
        hidden.append(int(rng.choice(2, p=hmm.A[hidden[-1]])))
    return np.array(hidden)


def chain_then_emission(pi, A, B, length, seed):
    """A sampler over a chain (pi, A) and a separate emission matrix B, the
    draws in sample_behavior_sequence's order: states, then observations."""
    rng = np.random.default_rng(seed)
    hidden = np.empty(length, dtype=int)
    hidden[0] = rng.choice(2, p=pi)
    for t in range(1, length):
        hidden[t] = rng.choice(2, p=A[hidden[t - 1]])
    return np.array([rng.choice(2, p=B[h]) for h in hidden])


def stationary_typing(hmm):
    """Typing share of A's stationary distribution: for a two-state chain,
    the mouse-to-typing rate over the sum of both switching rates."""
    A = hmm.A
    return A[1, 0] / (A[0, 1] + A[1, 0])


class TestSampling:
    def test_identity_emission_reveals_hidden(self):
        seq = sample_behavior_sequence(PROFILES[Behavior.WORKING], 200, seed=4)
        np.testing.assert_array_equal(seq.observations,
                                      hidden_chain(PROFILES[Behavior.WORKING], 200, 4))

    def test_gaming_switches_more_than_working(self):
        # through the identity emission the observations are the hidden chain
        assert all(np.array_equal(hmm.B, IDENTITY) for hmm in PROFILES.values())
        gaming = sample_behavior_sequence(PROFILES[Behavior.GAMING], 10_000, seed=8)
        working = sample_behavior_sequence(PROFILES[Behavior.WORKING], 10_000, seed=8)
        switch = lambda s: np.mean(s.observations[1:] != s.observations[:-1])
        assert switch(gaming) > switch(working)

    def test_working_typing_fraction_near_stationary(self):
        profile = PROFILES[Behavior.WORKING]
        expected = stationary_typing(profile)
        seq = sample_behavior_sequence(profile, 10_000, seed=21)
        assert np.mean(seq.observations == 0) == pytest.approx(expected, abs=0.05)

    def test_profile_stationary_values(self):
        assert stationary_typing(PROFILES[Behavior.SURFING]) == pytest.approx(0.25)
        assert stationary_typing(PROFILES[Behavior.WORKING]) == pytest.approx(0.65)
        assert stationary_typing(PROFILES[Behavior.GAMING]) == pytest.approx(0.50)

    def test_determinism(self):
        hmm = replace(PROFILES[Behavior.GAMING], B=B_REF)
        a = sample_behavior_sequence(hmm, 50, seed=33)
        b = sample_behavior_sequence(hmm, 50, seed=33)
        np.testing.assert_array_equal(a.observations, b.observations)

    @settings(max_examples=30)
    @given(behavior=st.sampled_from(Behavior), B=STOCHASTIC_MATRIX,
           length=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_same_draws_as_chain_then_emission(self, behavior, B, length, seed):
        # the profile's chain with B swapped in draws what a sampler over the
        # chain and a separate B draws, bit for bit
        chain = PROFILES[behavior]
        seq = sample_behavior_sequence(replace(chain, B=B), length, seed=seed)
        np.testing.assert_array_equal(
            seq.observations, chain_then_emission(chain.pi, chain.A, np.array(B), length, seed))


class TestValidation:
    def test_hmm_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            BehaviorHmm(pi=[0.5, 0.6], A=IDENTITY, B=IDENTITY)
        with pytest.raises(ValueError):
            BehaviorHmm(pi=[0.5, 0.5], A=[[0.9, 0.2], [0.5, 0.5]], B=IDENTITY)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="A must be finite"):
            BehaviorHmm(pi=PI_REF, A=[[bad, 0.3], [0.4, 0.6]], B=B_REF)
        with pytest.raises(ValueError, match="pi must be finite"):
            baum_welch([GestureSequence([0, 1])], B=B_REF, pi=[bad, 0.5])
        with pytest.raises(ValueError, match="confusion counts must be finite"):
            build_emission(np.array([[bad, 1.0], [2.0, 3.0]]))

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            GestureSequence(np.array([], dtype=int))
        with pytest.raises(ValueError):
            GestureSequence(np.array([0, 2]))


CONFUSION = np.array([[18, 2], [3, 17]])


class TestSampledSequenceCounts:
    # sequence i of the i_b-th behavior draws seed seed0 + 1000 * i_b + i,
    # so sequence 1000 of one behavior would draw the next one's first seed
    @pytest.mark.parametrize("run, name", [
        (lambda c: pipeline.train_behavior_models(c, B_REF, n_train=1001, train_length=1),
         "n_train"),
        (lambda c: pipeline.behavior_study(c, CONFUSION, n_train=1001, train_length=1, n_test=1),
         "n_train"),
        (lambda c: pipeline.behavior_study(c, CONFUSION, n_train=1, n_test=1001, test_length=1),
         "n_test"),
        (lambda c: pipeline.evaluate_system(c, n_traces=1, n_gesture_segments=10,
                                            n_behavior_test=1001), "n_behavior_test"),
    ], ids=["train_behavior_models", "behavior_study-n_train", "behavior_study-n_test",
            "evaluate_system"])
    def test_more_than_a_seed_stride_refused_before_sampling(self, run, name):
        with mock.patch.object(pipeline, "sample_behavior_sequence") as sample, \
                mock.patch.object(pipeline, "generate_segmentation_corpus") as corpus, \
                pytest.raises(ValueError, match=f"^{name} must be at most 1000, got 1001: "):
            run(PipelineConfig())
        sample.assert_not_called()
        corpus.assert_not_called()

    def test_a_seed_stride_of_sequences_draw_distinct_seeds(self):
        seeds = []
        sample = pipeline.sample_behavior_sequence

        def recording(hmm, length, seed):
            seeds.append(seed)
            return sample(hmm, length, seed)

        with mock.patch.object(pipeline, "sample_behavior_sequence", recording):
            pipeline.behavior_study(PipelineConfig(), CONFUSION, n_train=1000, train_length=2,
                                    n_test=1000, test_length=2)
        assert len(seeds) == len(set(seeds)) == 6000
