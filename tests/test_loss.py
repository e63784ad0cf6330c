import math

import numpy as np
import pytest

from anchorkit.assign import Assignment, MatchConfig, match_baseline, match_two_step
from anchorkit.geometry import AnchorConfig, Box, boxes_to_array, generate_anchors, pairwise_iou
from anchorkit.gradcheck import check_multitask_loss, finite_diff, rel_err
from anchorkit.loss import ZERO_POSITIVE_NEGATIVES, _ce_batch, multitask_loss, ohem_select, smooth_l1


def make_assignment(labels):
    labels = np.asarray(labels, dtype=np.int64)
    n_gt = int(labels.max(initial=-1)) + 1
    return Assignment(
        labels=labels,
        matched=tuple(np.flatnonzero(labels == g) for g in range(n_gt)),
        best_iou=np.zeros(labels.size),
    )


class TestSmoothL1:
    @pytest.mark.parametrize(
        "x,value,deriv",
        [(0.0, 0.0, 0.0), (0.5, 0.125, 0.5), (2.0, 1.5, 1.0), (-2.0, 1.5, -1.0)],
    )
    def test_pointwise(self, x, value, deriv):
        v, d = smooth_l1(x)
        assert v == pytest.approx(value)
        assert d == pytest.approx(deriv)

    def test_array_input(self):
        v, d = smooth_l1(np.array([0.0, 0.5, 2.0]))
        np.testing.assert_allclose(v, [0.0, 0.125, 1.5])
        np.testing.assert_allclose(d, [0.0, 0.5, 1.0])

    def test_continuous_at_transition(self):
        v_in, _ = smooth_l1(1.0 - 1e-12)
        v_out, _ = smooth_l1(1.0 + 1e-12)
        assert v_in == pytest.approx(v_out, abs=1e-10)


def softmax_ce(logits, label):
    """One row's CE value and gradient from the batch kernel the loss uses."""
    values, grads = _ce_batch(np.asarray(logits, dtype=np.float64)[None], np.array([label]))
    return float(values[0]), grads[0]


class TestSoftmaxCE:
    def test_symmetric_logits(self):
        value, grad = softmax_ce(np.array([0.0, 0.0]), 1)
        assert value == pytest.approx(math.log(2))
        np.testing.assert_allclose(grad, [0.5, -0.5])

    def test_confident_correct(self):
        value, _ = softmax_ce(np.array([0.0, 10.0]), 1)
        assert value == pytest.approx(4.5398e-5, rel=1e-3)

    def test_large_logits_stable(self):
        value, grad = softmax_ce(np.array([1000.0, 1000.0]), 0)
        assert value == pytest.approx(math.log(2))
        assert np.isfinite(grad).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits = rng.normal(0, 2, size=(5, 2))
            labels = rng.integers(0, 2, size=5)
            _, grads = _ce_batch(logits, labels)
            fd = finite_diff(lambda: _ce_batch(logits, labels)[0].sum(), logits, h=1e-6)
            np.testing.assert_allclose(grads, fd, atol=1e-6)


class TestOhemSelect:
    def test_three_to_one(self):
        labels = make_assignment([0, 1] + [-1] * 10)
        losses = np.arange(12, dtype=float)
        sel = ohem_select(losses, labels, ratio=3)
        assert sel.size == 6
        # hardest negatives are the highest-loss ones
        np.testing.assert_array_equal(sel, [6, 7, 8, 9, 10, 11])

    def test_zero_positive_fallback(self):
        labels = make_assignment([-1] * 100)
        losses = np.linspace(0, 1, 100)
        sel = ohem_select(losses, labels, ratio=3)
        assert sel.size == ZERO_POSITIVE_NEGATIVES

    def test_capped_by_available_negatives(self):
        labels = make_assignment([0, 1, 2, 3, 4, -1, -1, -1])
        sel = ohem_select(np.ones(8), labels, ratio=3)
        assert sel.size == 3

    def test_ties_break_low_index(self):
        labels = make_assignment([0, -1, -1, -1])
        losses = np.array([0.0, 0.7, 0.7, 0.7])
        sel = ohem_select(losses, labels, ratio=1)
        np.testing.assert_array_equal(sel, [1])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        labels = np.array([0, -1, 1, -1, -1, -1, -1, 0], dtype=np.int64)
        losses = rng.permutation(8).astype(float)  # distinct values
        sel = ohem_select(losses, make_assignment(labels), ratio=2)
        perm = rng.permutation(8)
        sel_p = ohem_select(losses[perm], make_assignment(labels[perm]), ratio=2)
        # the selected anchors correspond under the permutation
        assert sorted(np.flatnonzero(np.isin(perm, sel)).tolist()) == sorted(sel_p.tolist())

    def test_near_misses_never_mined(self):
        a = make_assignment([0, -1, -1, -1, -1, -1])
        a.best_iou = np.array([0.6, 0.45, 0.3, 0.29, 0.0, 0.1])
        losses = np.array([0.0, 9.0, 8.0, 1.0, 2.0, 3.0])
        # anchors 1 and 2 (IoU 0.45, 0.3) are near misses: the mine skips them
        np.testing.assert_array_equal(ohem_select(losses, a, ratio=3), [3, 4, 5])

    def test_matchers_record_best_iou(self):
        grid = generate_anchors(AnchorConfig.toy())
        gts = [Box(10, 10, 30, 30), Box(40, 36, 52, 48)]
        want = pairwise_iou(boxes_to_array(gts), grid.boxes).max(axis=0)
        for a in (match_baseline(grid, gts, MatchConfig().step1_iou), match_two_step(grid, gts)):
            np.testing.assert_array_equal(a.best_iou, want)
            n = len(grid)
            out = multitask_loss(np.zeros((n, 2)), np.zeros((n, 4)), a, np.zeros((n, 4)), lam=4.0, ohem_ratio=3)
            assert out.selected_negatives.size and not np.any(want[out.selected_negatives] >= 0.3)
        assert not match_two_step(grid, []).best_iou.any()


class TestMultitaskLoss:
    def test_hand_computed_total(self):
        # one positive anchor, flat logits, one offset off by 0.5
        assignment = make_assignment([0])
        logits = np.zeros((1, 2))
        offsets = np.array([[0.5, 0.0, 0.0, 0.0]])
        targets = np.zeros((1, 4))
        out = multitask_loss(logits, offsets, assignment, targets, lam=4.0, ohem_ratio=3)
        assert out.total == pytest.approx(math.log(2) + 4 * 0.125)
        assert out.cls_term == pytest.approx(math.log(2))
        assert out.reg_term == pytest.approx(0.125)
        assert out.n_cls == 1

    def test_regression_divided_by_positive_count(self):
        # two positives (one per face), each offset off by 0.5: the smooth-L1
        # sum 2 * 0.125 is divided by 2, and so is each gradient row
        assignment = make_assignment([0, 1])
        offsets = np.array([[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]])
        out = multitask_loss(np.zeros((2, 2)), offsets, assignment, np.zeros((2, 4)), lam=4.0, ohem_ratio=3)
        assert out.reg_term == 0.125
        np.testing.assert_array_equal(out.grad_offsets, 4.0 * offsets / 2)  # lam * x / n_pos

    def test_perfect_predictions(self):
        assignment = make_assignment([0, -1, -1])
        logits = np.array([[-20.0, 20.0], [20.0, -20.0], [20.0, -20.0]])
        offsets = np.ones((3, 4)) * 0.3
        targets = offsets.copy()
        out = multitask_loss(logits, offsets, assignment, targets, lam=4.0, ohem_ratio=3)
        assert out.reg_term == 0.0
        assert out.total < 1e-10

    def test_total_composition(self):
        rng = np.random.default_rng(5)
        assignment = make_assignment([0, -1, 1, -1, -1, -1])
        out = multitask_loss(
            rng.normal(size=(6, 2)),
            rng.normal(size=(6, 4)),
            assignment,
            rng.normal(size=(6, 4)),
            lam=4.0,
            ohem_ratio=3,
        )
        assert out.total == pytest.approx(out.cls_term + 4.0 * out.reg_term)
        assert out.total >= 0.0

    def test_lambda_scales_reg_exactly(self):
        rng = np.random.default_rng(6)
        assignment = make_assignment([0, -1, 1, -1])
        logits = rng.normal(size=(4, 2))
        offsets = rng.normal(size=(4, 4))
        targets = rng.normal(size=(4, 4))
        a = multitask_loss(logits, offsets, assignment, targets, lam=2.0, ohem_ratio=3)
        b = multitask_loss(logits, offsets, assignment, targets, lam=4.0, ohem_ratio=3)
        assert b.total - b.cls_term == pytest.approx(2 * (a.total - a.cls_term))

    def test_unselected_negatives_zero_grad(self):
        rng = np.random.default_rng(7)
        labels = [0] + [-1] * 20
        assignment = make_assignment(labels)
        out = multitask_loss(
            rng.normal(size=(21, 2)),
            rng.normal(size=(21, 4)),
            assignment,
            rng.normal(size=(21, 4)),
            lam=4.0,
            ohem_ratio=3,
        )
        counted = set(out.selected_negatives.tolist()) | {0}
        for i in range(21):
            if i not in counted:
                assert np.all(out.grad_logits[i] == 0.0)
            if i != 0:
                assert np.all(out.grad_offsets[i] == 0.0)

    def test_zero_positive_batch(self):
        rng = np.random.default_rng(8)
        assignment = make_assignment([-1] * 40)
        out = multitask_loss(
            rng.normal(size=(40, 2)),
            rng.normal(size=(40, 4)),
            assignment,
            np.zeros((40, 4)),
            lam=4.0,
            ohem_ratio=3,
        )
        assert out.reg_term == 0.0
        assert out.n_cls == ZERO_POSITIVE_NEGATIVES
        assert np.all(out.grad_offsets == 0.0)

    def test_shape_mismatch_rejected(self):
        assignment = make_assignment([0, -1])
        with pytest.raises(ValueError, match="shape mismatch"):
            multitask_loss(np.zeros((3, 2)), np.zeros((2, 4)), assignment, np.zeros((2, 4)), lam=4.0, ohem_ratio=3)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        assert check_multitask_loss(rng, 20) < 1e-5
