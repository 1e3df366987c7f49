import dataclasses

import numpy as np
import pytest

import kwslab.metrics as mx
import kwslab.training as training
from conftest import MICRO_MODEL, MICRO_SAMPLER, MICRO_SYNTH, MICRO_TRAIN
from helpers import peak_traced_bytes, reference_normalizer_apply, reference_training_batches
from kwslab.corpus import (
    STD_FLOOR,
    SplitAssignment,
    build_task_spec,
    index_windows,
    round_half_up,
    select_splits,
)
from kwslab.errors import (
    CheckpointError,
    ConfigError,
    InfeasibleTaskError,
    TrainingDivergedError,
    ValidationError,
)
from kwslab.losses import LossConfig
from kwslab.model import DetectorModel, ModelConfig
from kwslab.sampling import BalancedBatchSampler, SamplerConfig
from kwslab.synthgen import default_split, generate_corpus
from kwslab.training import (
    IMPROVEMENT_EPS,
    ScoreRow,
    TrainConfig,
    evaluate,
    prepare_task,
    read_scores_csv,
    score_partition,
    scored_set_from_rows,
    train,
    write_scores_csv,
)


@pytest.fixture(scope="module")
def trained(micro_task, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("train") / "model.ckpt")
    report = train(MICRO_MODEL, LossConfig(), MICRO_SAMPLER, MICRO_TRAIN, micro_task, path)
    return report, path


class TestPrepareTask:
    def test_windows_match_index_windows(self, micro_corpus, micro_task):
        sessions, _ = micro_corpus
        task = micro_task
        by_id = {s.session_id: s for s in sessions}
        fs = sessions[0].channel_config.sample_rate_hz
        n = task.n_window_samples
        for partition in ("train", "validation", "test"):
            refs = task.partitions[partition]
            by_session = {}
            for ref in refs:
                by_session.setdefault(ref.session_id, []).append(ref)
            for sid, session_refs in by_session.items():
                session = by_id[sid]
                indexed, tally = index_windows(session, task.spec)
                assert session_refs == indexed
                assert tally == task.drop_tallies[sid]
                events = session.word_events()
                for ref in session_refs:
                    start = round_half_up(
                        (events[ref.token_index].onset_s - task.spec.beta_neg_s) * fs
                    )
                    assert ref.start == start
                    np.testing.assert_array_equal(
                        task.window(ref), session.signal[:, start : start + n]
                    )

    def test_stack_is_slices_of_the_zscored_session(self, micro_corpus, micro_task):
        sessions, _ = micro_corpus
        task = micro_task
        normed = {s.session_id: reference_normalizer_apply(task.normalizer, s.signal)
                  for s in sessions}
        n = task.n_window_samples
        for refs in task.partitions.values():
            want = np.stack([normed[r.session_id][:, r.start : r.start + n] for r in refs])
            got = task.stack(refs)
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    def test_signals_are_the_sessions_own_unchanged_arrays(self, micro_corpus, micro_task,
                                                          tmp_path):
        # the sweeps reuse the sessions across cells with different normalizers
        sessions, _ = micro_corpus
        before = [s.signal.tobytes() for s in sessions]
        task = prepare_task(sessions, micro_task.split, micro_task.spec)
        for s in sessions:
            assert np.shares_memory(task.signals[s.session_id], s.signal)
        for refs in task.partitions.values():
            task.stack(refs)
        config = dataclasses.replace(MICRO_TRAIN, max_epochs=1, patience=1)
        train(MICRO_MODEL, LossConfig(), MICRO_SAMPLER, config, task, str(tmp_path / "m.ckpt"))
        assert [s.signal.tobytes() for s in sessions] == before

    def test_allocates_no_copy_of_the_corpus(self):
        # 32 channels, so that one float64 channel row of fit_normalizer and
        # the window references, which do not grow with the channel count,
        # stay small beside the signal
        sessions, _ = generate_corpus(dataclasses.replace(MICRO_SYNTH, n_channels=32))
        spec = build_task_spec(sessions, {"ri"}, 0.1, 0.2)
        split = select_splits(sessions, spec, default_split(sessions))
        signal_bytes = sum(s.signal.nbytes for s in sessions)
        assert peak_traced_bytes(lambda: prepare_task(sessions, split, spec)) < 0.05 * signal_bytes

    def test_mixed_sample_rates_rejected(self, micro_corpus, micro_task):
        sessions, _ = micro_corpus
        odd = dataclasses.replace(
            sessions[-1],
            channel_config=dataclasses.replace(
                sessions[-1].channel_config, sample_rate_hz=50.0
            ),
        )
        with pytest.raises(ValidationError, match="sample rate"):
            prepare_task(sessions[:-1] + [odd], micro_task.split, micro_task.spec)

    def test_partitions_cover_and_order(self, micro_task):
        for refs in micro_task.partitions.values():
            keys = [(r.session_id, r.token_index) for r in refs]
            assert keys == sorted(keys)

    def test_zscored_live_channels_have_unit_std(self, micro_task):
        # the augmentation noise is a fraction of this unit std on every live channel
        assert np.all(micro_task.normalizer.std > STD_FLOOR)
        train = np.concatenate([micro_task.normalizer.zscore(micro_task.signals[sid].copy())
                                for sid in micro_task.split.train], axis=1)
        np.testing.assert_allclose(train.std(axis=1, dtype=np.float64), 1.0, atol=1e-4)

    def test_floored_channel_takes_no_augment_noise(self, micro_corpus, micro_task):
        sessions, _ = micro_corpus
        flat = []
        for s in sessions:
            signal = s.signal.copy()
            signal[3] = 0.25  # a dead channel: its std is floored at STD_FLOOR
            flat.append(dataclasses.replace(s, signal=signal))
        task = prepare_task(flat, micro_task.split, micro_task.spec)
        expected = np.full(task.n_channels, True)
        expected[3] = False
        np.testing.assert_array_equal(task.normalizer.std > STD_FLOOR, expected)
        refs = task.partitions["train"]
        assert not np.any(task.stack(refs)[:, 3])
        batch = training._augmented_batch(task, refs[:16], MICRO_SAMPLER,
                                          np.random.default_rng(0))
        assert not np.any(batch[:, 3]) and np.all(batch[:, expected].std(axis=-1) > 0)


class TestTrain:
    def test_model_channels_unlike_the_task_rejected(self, micro_task, tmp_path):
        # callers of the API size the model themselves; the CLI takes the corpus's count
        model = dataclasses.replace(MICRO_MODEL, in_channels=12)
        path = tmp_path / "m.ckpt"
        with pytest.raises(ConfigError, match="^model.in_channels is 12, corpus has 8 channels$"):
            train(model, LossConfig(), MICRO_SAMPLER, MICRO_TRAIN, micro_task, str(path))
        assert not path.exists()

    def test_jitter_of_a_whole_window_rejected(self, micro_task, tmp_path):
        # 100000 used to train with almost no row shifted at all
        path = tmp_path / "w" / "m.ckpt"
        n = micro_task.n_window_samples
        for jitter in (n, 100000):
            sampler = dataclasses.replace(MICRO_SAMPLER, jitter_samples=jitter)
            with pytest.raises(ConfigError, match=f"^sampler.jitter_samples is {jitter}, must be "
                               f"below the window length of {n} samples$"):
                train(MICRO_MODEL, LossConfig(), sampler, MICRO_TRAIN, micro_task, str(path))
        assert not path.parent.exists()

    def test_determinism_bit_identical(self, micro_task, tmp_path):
        path = str(tmp_path / "run.ckpt")
        first = train(MICRO_MODEL, LossConfig(), MICRO_SAMPLER, MICRO_TRAIN, micro_task, path)
        first_bytes = open(path, "rb").read()
        second = train(MICRO_MODEL, LossConfig(), MICRO_SAMPLER, MICRO_TRAIN, micro_task, path)
        assert first.deterministic_view() == second.deterministic_view()
        assert first_bytes == open(path, "rb").read()

    @pytest.mark.parametrize("sampler", [
        MICRO_SAMPLER, SamplerConfig(batch_size=16, jitter_samples=0, noise_std_fraction=0.0),
    ], ids=["augmented", "plain"])
    def test_batches_match_the_zscored_copy_path(self, micro_task, tmp_path, monkeypatch,
                                                 sampler):
        batches = []
        forward = DetectorModel.forward

        def recording_forward(model, x, training=False):
            if training:
                batches.append(x.copy())
            return forward(model, x, training=training)

        monkeypatch.setattr(DetectorModel, "forward", recording_forward)
        config = dataclasses.replace(MICRO_TRAIN, max_epochs=1, patience=1)
        train(MICRO_MODEL, LossConfig(), sampler, config, micro_task, str(tmp_path / "b.ckpt"))
        want = list(reference_training_batches(micro_task, sampler, config.seed, len(batches)))
        assert batches and [b.tobytes() for b in batches] == [w.tobytes() for w in want]

    def test_best_is_max_over_records(self, trained):
        report, _ = trained
        assert report.best_val_auprc == max(r.val_auprc for r in report.records)
        assert report.wall_clock_s > 0

    def test_scores_do_not_depend_on_the_batch_size(self, trained, micro_task):
        model = DetectorModel.load(trained[1])
        for partition in ("train", "validation", "test"):
            want = score_partition(model, micro_task, partition).tobytes()
            for batch_size in (1, 17, 32, 64):
                got = score_partition(model, micro_task, partition, batch_size=batch_size)
                assert got.tobytes() == want, (partition, batch_size)

    def test_checkpoint_reload_reproduces_best_val_auprc(self, trained, micro_task):
        report, path = trained
        model = DetectorModel.load(path)
        scores = score_partition(model, micro_task, "validation")
        value = mx.auprc(mx.ScoredSet(scores, micro_task.labels("validation")))
        assert value == report.best_val_auprc

    def test_seed_isolation_init_independent_of_sampler_seed(self, micro_task, tmp_path,
                                                              monkeypatch):
        # the initialization is a function of the seed alone; the seed also
        # sets the data order, through the sampler's own substream
        expected = DetectorModel.initialize(MICRO_MODEL, seed=3).params
        initialize = DetectorModel.initialize.__func__
        inits, orders = [], []

        def recording_initialize(cls, config, seed):
            model = initialize(cls, config, seed)
            inits.append({k: p.values.copy() for k, p in model.params.items()})
            return model

        class RecordingSampler(BalancedBatchSampler):
            def __init__(self, labels, config, seed):
                super().__init__(labels, config, seed)
                copy = BalancedBatchSampler(labels, config, seed)
                orders.append([b.tolist() for b in copy.epoch()])

        monkeypatch.setattr(DetectorModel, "initialize", classmethod(recording_initialize))
        monkeypatch.setattr(training, "BalancedBatchSampler", RecordingSampler)
        for seed in (3, 4):
            cfg = dataclasses.replace(MICRO_TRAIN, seed=seed, max_epochs=1, patience=1)
            train(MICRO_MODEL, LossConfig(), MICRO_SAMPLER, cfg, micro_task,
                  str(tmp_path / f"{seed}.ckpt"))
        for name, param in expected.items():
            assert inits[0][name].tobytes() == param.values.tobytes()
        assert inits[0]["stem.w"].tobytes() != inits[1]["stem.w"].tobytes()
        assert orders[0] != orders[1]

    def test_one_validation_per_epoch(self, micro_task, tmp_path, monkeypatch):
        batches, validations = [], []
        next_batch, score = BalancedBatchSampler.next_batch, training.score_partition

        def counting_next_batch(self):
            batches.append(self.batches_per_epoch)
            return next_batch(self)

        def counting_score(model, task, partition, batch_size=training.SCORE_BATCH_SIZE):
            validations.append(partition)
            return score(model, task, partition, batch_size)

        monkeypatch.setattr(BalancedBatchSampler, "next_batch", counting_next_batch)
        monkeypatch.setattr(training, "score_partition", counting_score)
        config = dataclasses.replace(MICRO_TRAIN, max_epochs=4, patience=1)
        report = train(MICRO_MODEL, LossConfig(), MICRO_SAMPLER, config, micro_task,
                       str(tmp_path / "v.ckpt"))
        epochs_run, rest = divmod(len(batches), batches[0])
        assert rest == 0
        assert validations == ["validation"] * epochs_run
        assert [r.epoch for r in report.records] == [float(e) for e in range(1, epochs_run + 1)]

    def test_early_stopping_rule(self, micro_task, tmp_path):
        config = dataclasses.replace(MICRO_TRAIN, max_epochs=6, patience=2)
        report = train(MICRO_MODEL, LossConfig(), MICRO_SAMPLER, config, micro_task,
                       str(tmp_path / "es.ckpt"))
        # replay the stopping rule from the validation series
        best = -np.inf
        since = 0
        stop_after = None
        for i, rec in enumerate(report.records):
            if rec.val_auprc > best + IMPROVEMENT_EPS:
                best = rec.val_auprc
                since = 0
            else:
                since += 1
            if since >= config.patience:
                stop_after = i
                break
        expected = stop_after + 1 if stop_after is not None else config.max_epochs
        assert len(report.records) == expected

    def test_requires_val_positives(self, micro_corpus):
        sessions, _ = micro_corpus
        spec = build_task_spec(sessions, {"ri"}, 0.0, 0.0)
        ids = sorted(s.session_id for s in sessions)
        task = prepare_task(sessions, SplitAssignment(
            train=ids[:-2], validation=ids[-2], test=ids[-1]), spec)
        task.partitions = dict(task.partitions)
        task.partitions["validation"] = [
            dataclasses.replace(r, label=0) for r in task.partitions["validation"]
        ]
        with pytest.raises(InfeasibleTaskError):
            train(MICRO_MODEL, LossConfig(), MICRO_SAMPLER, MICRO_TRAIN, task, "unused")

    @pytest.mark.parametrize("pooling", ["attention", "topk"])
    def test_divergence_aborts_with_record(self, micro_task, tmp_path, pooling):
        # no decay: lr * weight_decay >= 1 is invalid input, not a divergence
        model = dataclasses.replace(MICRO_MODEL, pooling=pooling)
        config = dataclasses.replace(MICRO_TRAIN, lr=1e32, weight_decay=0.0, max_epochs=1,
                                     patience=1)
        with pytest.raises(TrainingDivergedError, match="^non-finite training loss$") as err:
            train(model, LossConfig(), MICRO_SAMPLER, config, micro_task,
                  str(tmp_path / "div.ckpt"))
        assert "loss_parts" in err.value.record

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_validation_scores_diverge(self, micro_task, tmp_path, monkeypatch,
                                                  bad):
        # a NaN used to surface as "scores must be finite", an invalid-input error
        def spoiled(model, task, partition):
            scores = score_partition(model, task, partition)
            scores[1] = bad
            return scores

        monkeypatch.setattr(training, "score_partition", spoiled)
        path = tmp_path / "m.ckpt"
        with pytest.raises(TrainingDivergedError, match="^non-finite validation scores$") as err:
            train(MICRO_MODEL, LossConfig(), MICRO_SAMPLER, MICRO_TRAIN, micro_task, str(path))
        assert err.value.record == {"epoch": 1}
        assert not path.exists()

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValidationError):
            TrainConfig(patience=10, max_epochs=5)
        with pytest.raises(ValidationError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValidationError, match="weight_decay"):
            TrainConfig(weight_decay=-0.01)
        with pytest.raises(ValidationError, match="seed"):
            TrainConfig(seed=-1)
        TrainConfig(weight_decay=0.0, seed=0)

    def test_decay_factor_must_stay_positive(self):
        # AdamW scales each weight by 1 - lr * weight_decay every step
        for lr, weight_decay in ((0.5, 2.0), (0.1, 10.0), (1e-3, 1e6)):
            with pytest.raises(ValidationError, match=r"^lr \* weight_decay must be < 1, got "
                               rf"lr {lr} and weight_decay {weight_decay}$"):
                TrainConfig(lr=lr, weight_decay=weight_decay)
        TrainConfig(lr=0.5, weight_decay=np.nextafter(2.0, 0.0))
        TrainConfig(lr=1e-3, weight_decay=999.0)


class TestEvaluate:
    def test_deterministic_scores(self, trained, micro_task):
        _, path = trained
        a = evaluate(path, micro_task, "test")
        b = evaluate(path, micro_task, "test")
        assert a == b

    def test_corpus_order(self, trained, micro_task):
        _, path = trained
        rows = evaluate(path, micro_task, "test")
        keys = [(r.session_id, r.token_index) for r in rows]
        assert keys == sorted(keys)

    def test_empty_partition_warns(self, trained, micro_task):
        _, path = trained
        task = dataclasses.replace(micro_task)
        task.partitions = dict(micro_task.partitions)
        task.partitions["test"] = []
        with pytest.warns(UserWarning, match="empty"):
            assert evaluate(path, task, "test") == []

    def test_channel_mismatch_rejected(self, micro_task, tmp_path):
        other = DetectorModel.initialize(
            ModelConfig(in_channels=5, trunk_channels=8, proj_channels=16), seed=0
        )
        path = str(tmp_path / "bad.ckpt")
        other.save(path)
        with pytest.raises(CheckpointError, match="channels"):
            evaluate(path, micro_task, "test")

    def test_train_partition_auprc_recorded(self, trained, micro_task):
        # typically train >= validation: recorded, not asserted
        _, path = trained
        model = DetectorModel.load(path)
        train_auprc = mx.auprc(mx.ScoredSet(
            score_partition(model, micro_task, "train"), micro_task.labels("train")
        ))
        assert 0.0 <= train_auprc <= 1.0


class TestScoresCsv:
    def test_round_trip_exact(self, tmp_path):
        rows = [
            ScoreRow("s000", 3, 1, 0.12345678901234567),
            ScoreRow("s001", 0, 0, 1e-300),
        ]
        path = str(tmp_path / "scores.csv")
        write_scores_csv(rows, path)
        assert read_scores_csv(path) == rows

    @pytest.mark.parametrize("text, line", [
        ("session_id,token_index,score\ns0,1,0.5\n", 1),
        ("session_id,token_index,score,label\ns0,1,0.5,1\n", 1),
        ("", 1),
        ("session_id,token_index,label,score\ns0,0,1,0.5\ns0,1,0\n", 3),
        ("session_id,token_index,label,score\ns0,0,1,0.5\ns0,x,0,0.2\n", 3),
        ("session_id,token_index,label,score\ns0,0,1,\n", 2),
        ("session_id,token_index,label,score\ns0,0,1,0.5,9\n", 2),
        ("session_id,token_index,label,score\n,0,1,0.5\n", 2),
        ("session_id,token_index,label,score\ns0,0,2,0.5\n", 2),
        ("session_id,token_index,label,score\ns0,0,-1,0.5\n", 2),
        ("session_id,token_index,label,score\ns0,0,1,0.5\ns0,1,0,nan\n", 3),
        ("session_id,token_index,label,score\ns0,0,1,inf\n", 2),
        ("session_id,token_index,label,score\ns0,0,1,-inf\n", 2),
    ])
    def test_malformed_file_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "scores.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"line {line}:"):
            read_scores_csv(str(path))

    def test_scored_set_from_rows(self):
        rows = [ScoreRow("a", 0, 1, 0.9), ScoreRow("a", 1, 0, 0.2)]
        scored = scored_set_from_rows(rows)
        assert scored.n == 2 and scored.n_positive == 1
