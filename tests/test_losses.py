import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadapt import tensor as T
from qadapt.losses import (
    MEDIAN_MULTIPLIERS,
    ContrastiveConfig,
    KernelConfig,
    MalformedSampleError,
    class_means,
    contrastive_loss,
    mmd_squared,
    span_cross_entropy,
)
from qadapt.model import ConfigError, PackedBatch, SpanLogits, TokenizedSample, tokenize_sample
from qadapt.training import TrainConfig, _half_step, _split_point
from conftest import make_sample, stack_means, two_pass_bandwidths


def answer_means(stacked):
    """The [B x H] answer means of a [2B x H] class-mean stack, as an array:
    its first B rows."""
    return stacked.data[:len(stacked.data) // 2]


def cq_means(stacked):
    """The [B x H] question/context means of a class-mean stack, as an array:
    the rows after the B answer means."""
    return stacked.data[len(stacked.data) // 2:]


def unit_apart(d2, dim=4):
    """Two vectors with squared distance exactly d2."""
    x = np.zeros(dim)
    y = np.zeros(dim)
    y[0] = math.sqrt(d2)
    return x, y


def reference_bandwidths(points, kernel):
    """The bandwidths of a kernel config for a point set: the explicit ones,
    or the two-pass median heuristic."""
    if kernel.bandwidths is not None:
        return list(kernel.bandwidths)
    return two_pass_bandwidths(points, kernel.median_multipliers)


def brute_kernel(x, y, bandwidths):
    d2 = float(np.sum((np.asarray(x) - np.asarray(y)) ** 2))
    return sum(math.exp(-d2 / g) for g in bandwidths) / len(bandwidths)


def pair_kernel(x, y, bandwidths):
    """k(x, y) of two vectors: the kernel sum over the stacked [x; y] with
    weight 1 on the pair (x, y) and 0 elsewhere."""
    return T.kernel_sum(T.constant(np.vstack([x, y])), np.array([[0.0, 1.0], [0.0, 0.0]]),
                        bandwidths).item()


class TestGaussianKernel:
    def test_zero_distance_is_one(self):
        x = np.random.default_rng(0).standard_normal(6)
        for bw in [(1.0,), (0.5, 2.0, 8.0)]:
            assert pair_kernel(x, x, bw) == 1.0

    def test_unit_distance_single_bandwidth(self):
        x, y = unit_apart(1.0)
        got = pair_kernel(x, y, (1.0,))
        assert abs(got - math.exp(-1.0)) < 1e-12

    def test_unit_distance_two_bandwidths(self):
        # hand average: (exp(-1) + exp(-1/4)) / 2
        x, y = unit_apart(1.0)
        got = pair_kernel(x, y, (1.0, 4.0))
        expected = (math.exp(-1.0) + math.exp(-0.25)) / 2.0
        assert abs(got - expected) < 1e-12
        assert abs(expected - 0.5733401121214237) < 1e-15

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidths: must be .* > 0"):
            KernelConfig(bandwidths=(1.0, -2.0))
        with pytest.raises(ValueError):
            KernelConfig(bandwidths=())

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(3)
        bw = (0.7, 3.1)
        for _ in range(20):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            assert pair_kernel(x, y, bw) == pair_kernel(y, x, bw)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = pair_kernel(rng.standard_normal(4), rng.standard_normal(4), (0.5, 1.5))
            assert 0.0 < v <= 1.0


class TestMedianHeuristic:
    """The bandwidths a kernel sum resolves, read off the kernel distances
    they give: the median heuristic of the distances the sum exponentiates,
    or explicit bandwidths as multipliers of a scale of 1.0."""

    POINTS = np.array([[0.0], [1.0], [3.0]])  # pairwise d2: 1, 9, 4 -> median 4

    def test_explicit_bandwidths_pass_through(self):
        x, y = self.POINTS[:1], self.POINTS[1:]
        side = np.array([1.0, -0.5, -0.5])
        got = mmd_squared(x, y, KernelConfig(bandwidths=(2.0, 5.0)))
        assert got == T.kernel_sum(T.constant(self.POINTS), np.outer(side, side), (2.0, 5.0)).item()
        assert got != T.kernel_sum(T.constant(self.POINTS), np.outer(side, side), (2.0, 5.0),
                                   median=True).item()

    def test_median_times_multipliers(self):
        x, y = self.POINTS[:1], self.POINTS[1:]
        got = mmd_squared(x, y, KernelConfig(median_multipliers=(0.5, 1.0, 2.0)))
        assert got == mmd_squared(x, y, KernelConfig(bandwidths=(2.0, 4.0, 8.0)))
        assert got != mmd_squared(x, y, KernelConfig(bandwidths=(0.5, 1.0, 2.0)))

    def test_degenerate_points_fall_back(self):
        # 6 of the 10 pairs are at distance 0, so the median is 0; the scale
        # is 1.0, as for all-equal points and for a single point
        x, y = np.zeros((4, 2)), np.array([[0.6, 0.8]])
        got = mmd_squared(x, y, KernelConfig(median_multipliers=(1.0,)))
        assert got == mmd_squared(x, y, KernelConfig(bandwidths=(1.0,)))
        assert got != mmd_squared(x, y, KernelConfig(bandwidths=(2.0,)))
        assert T.median_scale(T.sq_dists(np.zeros((4, 3)))) == 1.0
        assert T.median_scale(T.sq_dists(np.ones((1, 3)))) == 1.0

    def test_overflowing_median_falls_back(self):
        """A median so small that -1 / gamma overflows for a bandwidth
        falls back to 1.0, as a zero median does, rather than giving NaN."""
        x, y = np.array([[3.4e-158]]), np.array([[0.0]])  # d2 1.2e-315, subnormal
        got = mmd_squared(x, y)
        assert got == mmd_squared(x, y, KernelConfig(bandwidths=MEDIAN_MULTIPLIERS))
        d2 = T.sq_dists(np.array([[0.0], [1e-154]]))  # median 1e-308: 1 / 1e-308 is finite
        assert T.median_scale(d2) == d2[0, 1] > 0.0
        assert T.median_scale(d2, (0.25, 1.0)) == 1.0  # 1 / 2.5e-309 is not

    def test_one_rule_for_a_usable_bandwidth(self):
        """The rule both the config's bandwidths and the median's fallback use."""
        assert T.usable_bandwidth(1e-308) and T.usable_bandwidth(1e308)
        for gamma in (0.0, -1.0, 1e-320, math.inf, math.nan):
            assert not T.usable_bandwidth(gamma), gamma

    def test_bandwidth_without_finite_reciprocal_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^bandwidths: must be .* reciprocal is finite"):
            KernelConfig(bandwidths=(1e-320,))
        with pytest.raises(ConfigError, match=r"^median_multipliers: must be .* whose reciprocal"):
            KernelConfig(median_multipliers=(0.5, 1e-320))

    def test_one_distance_pass_per_kernel_sum(self, monkeypatch):
        calls, sq_dists = [], T.sq_dists

        def counted(x):
            calls.append(x.shape)
            return sq_dists(x)

        monkeypatch.setattr(T, "sq_dists", counted)
        rng = np.random.default_rng(12)
        mmd_squared(rng.standard_normal((5, 3)), rng.standard_normal((4, 3)))
        contrastive_loss(T.constant(rng.standard_normal((6, 3))), ContrastiveConfig())
        assert calls == [(9, 3), (6, 3)]


class TestMMD:
    def brute_mmd(self, X, Y, bandwidths):
        n, m = len(X), len(Y)
        kxx = sum(brute_kernel(a, b, bandwidths) for a in X for b in X) / n**2
        kyy = sum(brute_kernel(a, b, bandwidths) for a in Y for b in Y) / m**2
        kxy = sum(brute_kernel(a, b, bandwidths) for a in X for b in Y) / (n * m)
        return kxx + kyy - 2 * kxy

    def test_identical_sets_zero(self):
        x = np.random.default_rng(5).standard_normal((6, 3))
        assert abs(mmd_squared(x, x, KernelConfig(bandwidths=(1.0, 2.0)))) <= 1e-12

    def test_single_points(self):
        cfg = KernelConfig(bandwidths=(1.0,))
        x, y = unit_apart(2.5)
        got = mmd_squared(x[None, :], y[None, :], cfg)
        assert abs(got - (2.0 - 2.0 * math.exp(-2.5))) < 1e-12

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(6)
        cfg = KernelConfig(bandwidths=(0.5, 1.0, 4.0))
        X = rng.standard_normal((3, 4))
        Y = rng.standard_normal((4, 4))
        assert abs(mmd_squared(X, Y, cfg) - self.brute_mmd(X, Y, cfg.bandwidths)) < 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            mmd_squared(np.zeros((0, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        x = np.ones((3, 2))
        x[1, 0] = bad
        for cfg in (KernelConfig(), KernelConfig(bandwidths=(1.0,))):
            with pytest.raises(T.NonFiniteError):
                mmd_squared(x, np.zeros((2, 2)), cfg)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        cfg = KernelConfig(bandwidths=(0.5, 2.0))
        X = rng.standard_normal((int(rng.integers(1, 6)), 3))
        Y = rng.standard_normal((int(rng.integers(1, 6)), 3))
        ab = mmd_squared(X, Y, cfg)
        ba = mmd_squared(Y, X, cfg)
        assert abs(ab - ba) < 1e-12
        assert ab >= -1e-12


def traced_peak_mb(fn) -> float:
    """Peak of the allocations traced while fn runs, in MB (1e6 bytes)."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


class TestKernelMemory:
    """The distances are built in Gram form, with [N x M] memory: an
    [N x M x H] difference tensor of these points takes 50 MB in the median
    heuristic and 22 MB in the source-source kernel of the mmd."""

    POINTS = np.random.default_rng(11).standard_normal((360, 48))

    def test_median_heuristic_peak(self):
        # the kernel sum with the median heuristic over its own distances
        points, weights = T.constant(self.POINTS), np.full((360, 360), 1.0 / 360**2)
        assert traced_peak_mb(
            lambda: T.kernel_sum(points, weights, MEDIAN_MULTIPLIERS, median=True)) < 8.0

    def test_mmd_peak(self):
        source, gold = self.POINTS[:240], self.POINTS[240:]
        assert traced_peak_mb(lambda: mmd_squared(source, gold, KernelConfig())) < 8.0


class TestClassMeans:
    def test_singleton_answer_mean_is_that_feature(self, tiny_model):
        ts = make_sample(seed=21)
        s = ts.answer_span[0]
        single = PackedBatch.pack([make_sample(seed=21, answer=(s, s))])
        feats = tiny_model.encode(single)
        cm = class_means(feats, single)
        assert np.array_equal(answer_means(cm), feats.data[s:s + 1])

    def test_constant_features_equalize_means(self):
        ts = make_sample(seed=22)
        feats = T.constant(np.ones((len(ts), 4)))
        cm = class_means(feats, PackedBatch.pack([ts]))
        assert np.array_equal(answer_means(cm), cq_means(cm))

    def test_hand_summed_means(self):
        ts = make_sample(seed=23)
        rng = np.random.default_rng(9)
        values = rng.standard_normal((len(ts), 5))
        cm = class_means(T.constant(values), PackedBatch.pack([ts]))
        ans = values[ts.answer_mask].mean(axis=0)
        cq_mask = (ts.question_mask | ts.context_mask) & ~ts.answer_mask
        cq = values[cq_mask].mean(axis=0)
        assert answer_means(cm).shape == cq_means(cm).shape == (1, 5)
        assert np.max(np.abs(answer_means(cm)[0] - ans)) < 1e-12
        assert np.max(np.abs(cq_means(cm)[0] - cq)) < 1e-12

    def test_specials_excluded(self):
        ts = make_sample(seed=24)
        values = np.zeros((len(ts), 3))
        values[[0, ts.question_len + 1, len(ts) - 1]] = 1e6  # start marker, separators
        cm = class_means(T.constant(values), PackedBatch.pack([ts]))
        assert np.max(np.abs(cq_means(cm))) == 0.0

    def test_sample_without_non_answer_tokens_signalled(self):
        # a SQuAD record with an empty question whose answer is the whole context
        ts = tokenize_sample("", "ab", 0, "ab", "source")
        feats = T.constant(np.ones((len(ts), 3)))
        with pytest.raises(MalformedSampleError, match="non-answer"):
            class_means(feats, PackedBatch.pack([make_sample(seed=25), ts]))


def random_means(seed, n, dim=4):
    """The class-mean stack of [n x dim] answer and cq means drawn row by
    row, as n per-sample pairs."""
    rng = np.random.default_rng(seed)
    rows = [(rng.standard_normal(dim), rng.standard_normal(dim)) for _ in range(n)]
    answer = np.array([a for a, _ in rows])
    cq = np.array([c for _, c in rows])
    return stack_means(T.constant(answer), T.constant(cq))


class TestContrastiveLoss:
    CFG = ContrastiveConfig(beta=0.01, noise_sigma=0.0, kernel=KernelConfig(bandwidths=(1.0, 3.0)))

    def test_single_sample_identical_means(self):
        v = T.constant(np.array([[0.3, -0.2, 1.0]]))
        means = stack_means(v, v)
        assert abs(contrastive_loss(means, self.CFG).item() + 1.0) < 1e-12

    def test_single_sample_closed_form(self):
        means = random_means(31, 1)
        k = brute_kernel(answer_means(means)[0], cq_means(means)[0], self.CFG.kernel.bandwidths)
        got = contrastive_loss(means, self.CFG).item()
        assert abs(got - (k - 2.0)) < 1e-12

    def test_two_sample_brute_force(self):
        batch = random_means(32, 2)
        a, c = answer_means(batch), cq_means(batch)
        bw = self.CFG.kernel.bandwidths
        expected = 0.0
        for i in range(2):
            for j in range(2):
                expected -= brute_kernel(a[i], a[j], bw) / 4
                expected -= brute_kernel(c[i], c[j], bw) / 4
                expected += brute_kernel(a[i], c[j], bw) / 4
        assert abs(contrastive_loss(batch, self.CFG).item() - expected) < 1e-12

    def test_permutation_invariance(self):
        batch = random_means(34, 4)
        base = contrastive_loss(batch, self.CFG).item()
        order = [2, 0, 3, 1]
        perm = stack_means(T.constant(answer_means(batch)[order]),
                           T.constant(cq_means(batch)[order]))
        assert abs(contrastive_loss(perm, self.CFG).item() - base) < 1e-12

    def test_empty_batch_rejected(self):
        empty = T.constant(np.zeros((0, 4)))
        with pytest.raises(ValueError, match="empty"):
            contrastive_loss(stack_means(empty, empty), self.CFG)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), ()])
    def test_stack_not_2b_by_h_rejected(self, shape):
        with pytest.raises(T.ShapeError, match="not \\[2B x H\\]"):
            contrastive_loss(T.constant(np.zeros(shape)), self.CFG)

    def test_gradient_through_loss(self):
        # finite differences wrt the stacked answer means
        rng = np.random.default_rng(37)
        cq = T.constant(np.array([rng.standard_normal(4) for _ in range(3)]))
        flat = rng.standard_normal((3, 4))

        def f(t):
            return contrastive_loss(stack_means(t, cq), self.CFG)

        assert T.finite_difference_check(f, T.constant(flat)) < 1e-5

    @staticmethod
    def three_kernel_loss(a, c, kernel):
        """The loss as three brute-force kernel matrices and three sums, the
        form before the class means were stacked."""
        bw = reference_bandwidths(np.vstack([a, c]), kernel)
        k_aa, k_cc, k_ac = (np.array([[brute_kernel(p, q, bw) for q in y] for p in x])
                            for x, y in ((a, a), (c, c), (a, c)))
        n = len(a)
        return k_ac.sum() / n**2 - k_aa.sum() / n**2 - k_cc.sum() / n**2

    # The loss has one sign (similarity-flipped) and one pairing (mixed-batch);
    # the id names that form.
    @pytest.mark.parametrize("cfg", [pytest.param(
        ContrastiveConfig(beta=0.01, noise_sigma=0.0),  # median-heuristic bandwidths
        id="similarity-flipped-mixed-batch")])
    def test_stacked_loss_matches_the_three_kernel_form(self, cfg):
        for seed in range(20):
            n = 2 + seed % 5
            batch = random_means(500 + seed, n, dim=6)
            want = self.three_kernel_loss(answer_means(batch), cq_means(batch), cfg.kernel)
            assert abs(contrastive_loss(batch, cfg).item() - want) <= 1e-12

    @pytest.mark.parametrize("cfg", [pytest.param(
        ContrastiveConfig(beta=0.01, noise_sigma=0.0, kernel=KernelConfig(bandwidths=(1.0, 3.0))),
        id="similarity-flipped-mixed-batch")])
    def test_stacked_loss_passes_the_oracle(self, cfg):
        stacked = np.random.default_rng(38).standard_normal((8, 4))

        def f(t):
            return contrastive_loss(t, cfg)

        assert T.finite_difference_check(f, T.constant(stacked)) < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), width=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           bandwidths=st.none() | st.lists(st.floats(1.0, 8.0), min_size=1, max_size=3))
    def test_stacked_loss_matches_three_kernels_and_passes_the_oracle(self, n, width, seed,
                                                                       bandwidths):
        """The one kernel sum over the stacked means equals the three-kernel
        form, under the median heuristic (``bandwidths`` None) or given
        bandwidths, and its gradient passes the finite-difference oracle at
        the bandwidths it resolved, held fixed: finite differences through
        the median are not a gradient the loss claims. No two points lie more than a squared
        distance of 4 apart, whatever the width, so no drawn bandwidth leaves
        every kernel value of a point too small to difference."""
        kernel = KernelConfig(bandwidths=None if bandwidths is None else tuple(bandwidths))
        rng = np.random.default_rng(seed)
        stacked = rng.uniform(-1.0, 1.0, (2 * n, width)) / math.sqrt(width)
        cfg = ContrastiveConfig(beta=0.01, noise_sigma=0.0, kernel=kernel)
        got = contrastive_loss(T.constant(stacked), cfg).item()
        assert abs(got - self.three_kernel_loss(stacked[:n], stacked[n:], kernel)) <= 1e-12
        fixed = ContrastiveConfig(beta=0.01, noise_sigma=0.0, kernel=KernelConfig(
            bandwidths=tuple(reference_bandwidths(stacked, kernel))))

        def f(t):
            return contrastive_loss(t, fixed)

        assert T.finite_difference_check(f, T.constant(stacked)) < 1e-5

    def test_descent_flipped_variant_contracts_classes(self):
        """Gradient descent on directly parameterized class-mean features:
        intra-class pairwise distances shrink, answer-vs-cq mean distance
        grows, on >= 95 of 100 seeds."""
        kernel = KernelConfig(bandwidths=(0.5, 1.0, 2.0))
        cfg = ContrastiveConfig(beta=1.0, noise_sigma=0.0, kernel=kernel)
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            a_val = rng.standard_normal((4, 3))
            c_val = rng.standard_normal((4, 3)) + 0.5

            def stats(av, cv):
                intra = 0.0
                for pts in (av, cv):
                    d = pts[:, None, :] - pts[None, :, :]
                    intra += np.sqrt((d**2).sum(-1))[np.triu_indices(4, k=1)].mean()
                inter = np.linalg.norm(av.mean(0) - cv.mean(0))
                return intra, inter

            intra0, inter0 = stats(a_val, c_val)
            for _ in range(100):
                a = T.Tensor(a_val, requires_grad=True)
                c = T.Tensor(c_val, requires_grad=True)
                T.backward(contrastive_loss(stack_means(a, c), cfg))
                a_val = a_val - 0.05 * a.grad
                c_val = c_val - 0.05 * c.grad
            intra1, inter1 = stats(a_val, c_val)
            if intra1 < intra0 and inter1 > inter0:
                wins += 1
        assert wins >= 95, f"only {wins}/100 seeds moved in the intended direction"


def gold_batch(length, span):
    """A one-sample packed batch of ``length`` tokens with answer ``span``."""
    return PackedBatch.pack([TokenizedSample(token_ids=np.zeros(length, dtype=np.int64),
                                             question_len=0, answer_span=span,
                                             domain_tag="source")])


def span_scores(start, end) -> SpanLogits:
    """Constant span logits with the given start and end columns."""
    return SpanLogits(T.constant(np.stack([start, end], axis=1)))


class TestSpanCrossEntropy:
    def test_uniform_logits(self):
        logits = span_scores(np.zeros(4), np.zeros(4))
        assert abs(span_cross_entropy(logits, gold_batch(4, (1, 2))).item() - math.log(4)) < 1e-12

    def test_saturated_softmax(self):
        start = np.zeros(6)
        end = np.zeros(6)
        start[2] = 30.0
        end[4] = 30.0
        logits = span_scores(start, end)
        assert span_cross_entropy(logits, gold_batch(6, (2, 4))).item() < 1e-9

    def test_hand_computed_three_positions(self):
        scores = np.array([1.0, 2.0, 3.0])
        logits = span_scores(scores, scores)
        start_term = -math.log(math.exp(1) / (math.exp(1) + math.exp(2) + math.exp(3)))
        end_term = -math.log(math.exp(3) / (math.exp(1) + math.exp(2) + math.exp(3)))
        assert abs(end_term - 0.40760596444438) < 1e-9
        expected = 0.5 * (start_term + end_term)
        assert abs(span_cross_entropy(logits, gold_batch(3, (0, 2))).item() - expected) < 1e-9

    def test_gold_outside_sequence_rejected(self):
        # logits of 3 tokens against a 4-token sample whose gold ends at token 3
        logits = span_scores(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="offsets"):
            span_cross_entropy(logits, gold_batch(4, (1, 3)))


class TestTotalLoss:
    """The loss of a training step, as each half of its split batch builds
    it, against the cross-entropy and contrastive term it logs."""

    @staticmethod
    def split_losses(model, beta):
        config = TrainConfig(batch_size=4, encoder=model.config, contrastive=ContrastiveConfig(
            beta=beta, noise_sigma=0.01, kernel=KernelConfig(bandwidths=(1.0, 4.0))))
        batch = [make_sample(seed=70 + i, length=n, vocab=32,
                             domain_tag="source" if i % 2 else "target_synthetic")
                 for i, n in enumerate((9, 14, 7, 12))]
        cut = _split_point(batch)
        mine, losses = _half_step(model, batch, 0, cut, config, 0)
        theirs, their_losses = _half_step(model, batch, cut, len(batch), config, 0)
        return losses(theirs), their_losses(mine)

    def test_zero_beta_is_plain_ce(self, tiny_model):
        for l_ce, l_con, loss in self.split_losses(tiny_model, 0.0):
            assert l_con != 0.0
            assert loss.item() == l_ce

    def test_small_beta_weightings(self, tiny_model):
        for beta in (0.001, 0.01, 0.1):
            for l_ce, l_con, loss in self.split_losses(tiny_model, beta):
                assert loss.item() == l_ce + beta * l_con
