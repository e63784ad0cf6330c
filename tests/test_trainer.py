import contextlib
import io
from unittest import mock

import numpy as np
import pytest

import anchorkit as ak
from anchorkit.network import NetConfig, build_network, forward_detect
from anchorkit.pipeline import synth_pairs
from anchorkit import forkpool, layers, trainer
from anchorkit.trainer import TrainConfig, TrainingDiverged, sgd_step, train


def small_pairs(n=8, seed=3, **synth_kwargs):
    pairs, _ = synth_pairs(ak.SynthConfig(**synth_kwargs), n, seed)
    return pairs


class TestSgdStep:
    def test_zero_gradient_weight_decay_scaling(self):
        # from rest, one update on a zero-gradient parameter is p * (1 - lr*wd)
        p = np.full(4, 2.0, dtype=np.float32)
        params = {"p": p}
        grads = {"p": np.zeros_like(p)}
        velocity = {"p": np.zeros_like(p)}
        sgd_step(params, grads, velocity, lr=0.1, momentum=0.9, weight_decay=1e-2)
        np.testing.assert_allclose(params["p"], 2.0 * (1 - 0.1 * 1e-2), rtol=1e-6)

    def test_momentum_accumulates(self):
        p = np.zeros(1, dtype=np.float32)
        params, grads = {"p": p}, {"p": np.ones(1, dtype=np.float32)}
        velocity = {"p": np.zeros(1, dtype=np.float32)}
        sgd_step(params, grads, velocity, lr=1.0, momentum=0.5, weight_decay=0.0)
        sgd_step(params, grads, velocity, lr=1.0, momentum=0.5, weight_decay=0.0)
        # v1 = 1, v2 = 1.5; p = -(1 + 1.5)
        np.testing.assert_allclose(params["p"], [-2.5])


class TestTrain:
    def test_zero_lr_leaves_parameters(self):
        net = build_network(NetConfig.toy(), seed=1)
        before = {k: v.copy() for k, v in net.params.items()}
        train(net, small_pairs(), TrainConfig(lr=0.0, epochs=2, seed=1))
        for k in before:
            np.testing.assert_array_equal(net.params[k], before[k])

    def test_warmup_scales_first_update(self, monkeypatch):
        # one update (6 pairs, batch 6) takes lr / WARMUP_UPDATES
        lr = 0.4
        net = build_network(NetConfig.toy(), seed=1)
        train(net, small_pairs(6), TrainConfig(lr=lr, epochs=1, seed=1))
        ref = build_network(NetConfig.toy(), seed=1)
        first = lr * (1 / trainer.WARMUP_UPDATES)
        monkeypatch.setattr(trainer, "WARMUP_UPDATES", 1)
        train(ref, small_pairs(6), TrainConfig(lr=first, epochs=1, seed=1))
        for k in ref.params:
            np.testing.assert_array_equal(net.params[k], ref.params[k])

    def test_same_seed_bit_identical_report_and_weights(self):
        def one_run():
            net = build_network(NetConfig.toy(), seed=5)
            report = train(net, small_pairs(), TrainConfig(epochs=2, seed=5))
            return net, report

        net_a, rep_a = one_run()
        net_b, rep_b = one_run()
        assert [e.mean_total for e in rep_a.epochs] == [e.mean_total for e in rep_b.epochs]
        for k in net_a.params:
            np.testing.assert_array_equal(net_a.params[k], net_b.params[k])

    def test_loss_decreases_on_small_set(self):
        net = build_network(NetConfig.toy(), seed=7)
        report = train(net, small_pairs(24, seed=7), TrainConfig(epochs=3, seed=7))
        assert report.epochs[-1].mean_total < report.epochs[0].mean_total

    def test_single_sample_overfit(self):
        # threshold established by this oracle run: lr 3e-3, 200 steps, no aug
        pairs = small_pairs(1, seed=11, distractor_rate=0.0)
        net = build_network(NetConfig.toy(), seed=11)
        tc = TrainConfig(lr=3e-3, epochs=200, batch_size=1, seed=11, plateau_patience=10**9)
        report = train(net, pairs, tc, aug_cfg=None)
        assert report.epochs[-1].mean_total < 0.05

    def test_empty_dataset_rejected(self):
        net = build_network(NetConfig.toy(), seed=1)
        with pytest.raises(ValueError, match="empty"):
            train(net, [], TrainConfig())

    def test_bad_matcher_rejected(self):
        with pytest.raises(ValueError, match="matcher"):
            TrainConfig(epochs=1, matcher="fancy")

    def test_augmentation_needs_square_anchor_config(self):
        net = build_network(NetConfig.toy(image_w=64, image_h=96), seed=1)
        with pytest.raises(ValueError, match="square"):
            train(net, small_pairs(), TrainConfig(epochs=1))

    def test_divergence_aborts_with_step(self):
        net = build_network(NetConfig.toy(), seed=1)
        net.params["stage0.conv0.w"][:] = np.float32(1e30)  # force overflow
        with pytest.raises(TrainingDiverged):
            train(net, small_pairs(), TrainConfig(epochs=1, seed=1))

    def test_plateau_divides_lr(self):
        net = build_network(NetConfig.toy(), seed=2)
        tc = TrainConfig(lr=0.0, epochs=4, plateau_patience=2, lr_divisor=10.0, seed=2)
        report = train(net, small_pairs(4), tc)
        # zero lr: loss can never improve, so the schedule must fire
        lrs = [e.lr for e in report.epochs]
        assert lrs[0] == 0.0 and len(set(lrs)) == 1  # 0/10 is still 0

        net = build_network(NetConfig.toy(), seed=2)
        tc = TrainConfig(lr=1e-9, epochs=5, plateau_patience=2, lr_divisor=10.0, seed=2)
        report = train(net, small_pairs(4), tc)
        assert report.epochs[-1].lr < 1e-9

    def test_step_log_and_callback(self):
        net = build_network(NetConfig.toy(), seed=3)
        log = []
        calls = []

        def cb(epoch, net_, stats):
            calls.append(epoch)
            return epoch == 0  # stop immediately

        report = train(
            net, small_pairs(6), TrainConfig(epochs=5, batch_size=2, seed=3),
            step_log=log, epoch_callback=cb,
        )
        assert calls == [0]
        assert report.stopped_early
        assert len(report.epochs) == 1
        assert len(log) == 6
        assert log[0].n_pos >= 0 and log[0].n_neg_selected >= 0

    def test_report_csv(self):
        net = build_network(NetConfig.toy(), seed=3)
        report = train(net, small_pairs(4), TrainConfig(epochs=2, seed=3))
        buf = io.StringIO()
        report.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "epoch,mean_total,mean_cls,mean_reg,lr,n_steps"
        assert len(lines) == 3
        assert lines[1].startswith("0,")

    def test_baseline_matcher_changes_supervision(self):
        pairs = small_pairs(6, seed=9)
        a = build_network(NetConfig.toy(), seed=9)
        b = build_network(NetConfig.toy(), seed=9)
        log_a, log_b = [], []
        train(a, pairs, TrainConfig(epochs=1, seed=9, matcher="two_step"), step_log=log_a)
        train(b, pairs, TrainConfig(epochs=1, seed=9, matcher="baseline"), step_log=log_b)
        pos_a = sum(s.n_pos for s in log_a)
        pos_b = sum(s.n_pos for s in log_b)
        assert pos_a >= pos_b  # the two-step rule only adds anchors


def workers(n):
    """Run train()'s pool as if this process could use ``n`` cores."""
    return mock.patch.object(layers, "_cores", lambda: n)


@pytest.fixture(scope="module")
def pairs13():
    return small_pairs(13, seed=4)


def poison(monkeypatch, pairs, position, error=None):
    """Make the sample at ``position`` of epoch 0's first batch (seed 4) raise ``error``, or give NaN pixels."""
    idx = int(trainer.sample_rng(4, trainer._SHUFFLE_STREAM, 0).permutation(len(pairs))[position])
    bad = pairs[idx][0]
    real = trainer.augment

    def augment(image, *args):
        out, boxes = real(image, *args)
        if image is bad:
            if error is not None:
                raise error
            out = np.full_like(out, np.nan)
        return out, boxes

    monkeypatch.setattr(trainer, "augment", augment)


class TestPool:
    """Batches split over forked workers (patched core counts) give the one-process bits.

    The pool runs BLAS at one thread, and the one-process runs at the
    process's own count, so at more than one BLAS thread these tests
    also compare the two thread counts.
    """

    @pytest.mark.parametrize("batch_size, matcher", [(6, "two_step"), (5, "baseline"), (1, "two_step")])
    def test_worker_count_changes_no_bit(self, pairs13, forks, batch_size, matcher):
        # 13 pairs: batches of 5 and 6 split unevenly, and each epoch ends on a partial batch
        runs = []
        for n in (1, 2, 3):
            net = build_network(NetConfig.toy(), seed=4)
            arrays = {k: id(v) for k, v in net.params.items()}
            log = []
            with workers(n):
                report = train(net, pairs13, TrainConfig(epochs=2, batch_size=batch_size, matcher=matcher, seed=4),
                               step_log=log)
            assert {k: id(v) for k, v in net.params.items()} == arrays
            csv = io.StringIO()
            report.to_csv(csv)
            runs.append((log, report.epochs, csv.getvalue(), net.params))
        assert len(forks) == (0 if batch_size == 1 else 1 + 2)
        log, epochs, csv, params = runs[0]
        assert len(log) == 26
        for other in runs[1:]:
            assert other[:3] == (log, epochs, csv)
            for k in params:
                np.testing.assert_array_equal(other[3][k], params[k])

    def test_processes_share_the_conv_threads(self, pairs13, monkeypatch):
        seen = []
        real = trainer.forward_detect

        def forward(*args, **kwargs):
            seen.append(layers._workers())
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "forward_detect", forward)
        with workers(4):  # batch 2: two processes, two conv threads each
            train(build_network(NetConfig.toy(), seed=4), pairs13, TrainConfig(epochs=1, batch_size=2, seed=4))
            assert layers._workers() == 4
        assert set(seen) == {2}

    def test_divergence_in_a_worker_raises_the_inline_step(self, pairs13, monkeypatch, forks):
        poison(monkeypatch, pairs13, 4)
        steps, logs = [], []
        for n in (1, 2, 3):
            log = []
            with workers(n), pytest.raises(TrainingDiverged) as info:
                train(build_network(NetConfig.toy(), seed=4), pairs13, TrainConfig(epochs=1, seed=4), step_log=log)
            steps.append(info.value.step)
            logs.append(log)
        assert steps == [4, 4, 4] and logs[0] == logs[1] == logs[2] and len(logs[0]) == 4
        assert forks

    def test_worker_error_comes_back_in_sample_order(self, pairs13, monkeypatch, forks):
        poison(monkeypatch, pairs13, 5, ValueError("sample 5 is bad"))
        logs = []
        for n in (1, 2):
            log = []
            with workers(n), pytest.raises(ValueError, match="^sample 5 is bad$"):
                train(build_network(NetConfig.toy(), seed=4), pairs13, TrainConfig(epochs=1, seed=4), step_log=log)
            logs.append(log)
        assert logs[0] == logs[1] and len(logs[0]) == 5
        assert forks

    @pytest.mark.parametrize("ending", ["return", "diverged", "worker error", "early stop", "callback error",
                                        "interrupt"])
    def test_no_process_is_left(self, pairs13, monkeypatch, forks, children, ending):
        before = children()
        threads = forkpool.blas_threads()[0]()
        callback = None
        raises = {"diverged": TrainingDiverged, "worker error": ValueError, "callback error": OSError,
                  "interrupt": KeyboardInterrupt}.get(ending)
        if ending == "diverged":
            poison(monkeypatch, pairs13, 4)
        elif ending == "worker error":
            poison(monkeypatch, pairs13, 4, ValueError("bad"))
        elif ending == "early stop":
            callback = lambda epoch, net, stats: True  # noqa: E731
        elif ending in ("callback error", "interrupt"):
            def callback(epoch, net, stats):
                raise raises()
        net = build_network(NetConfig.toy(), seed=4)
        with workers(2), pytest.raises(raises) if raises else contextlib.nullcontext():
            report = train(net, pairs13, TrainConfig(epochs=2, seed=4), epoch_callback=callback)
            assert len(report.epochs) == (1 if ending == "early stop" else 2)
        assert len(forks) == 1
        assert children() == before
        assert layers._processes == 1 and forkpool.blas_threads()[0]() == threads
