"""Crash recovery for training: kill-anywhere checkpoint/resume.

The recovery oracle is the repo's bitwise-equivalence discipline: a
training run killed mid-fit and resumed from its checkpoint must be
bitwise identical (losses, early stopping, final parameters) to the
uninterrupted run, for single cost models and stacked ensembles alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.training import CostModel, TrainingConfig
from repro.training.stacked import StackedTrainer

# Per-test deadline (enforced by pytest-timeout in CI): a resume that
# loops instead of finishing must fail, not wedge the suite.
pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def train_data():
    from repro.core.dataset import GraphDataset
    from repro.data.collection import BenchmarkCollector

    traces = BenchmarkCollector(seed=5).collect(60)
    return GraphDataset.from_traces(traces).metric_view(
        "processing_latency")


class TestCheckpointResume:
    """Kill-anywhere training resume, bitwise identical."""

    def _corpus(self, train_data):
        return train_data

    @staticmethod
    def _kill_at(epoch_to_kill):
        class Killed(BaseException):
            pass

        def hook(epoch):
            if epoch == epoch_to_kill:
                raise Killed()
        return hook, Killed

    @staticmethod
    def _assert_same_model(reference, resumed):
        assert reference.history.train_loss == resumed.history.train_loss
        assert reference.history.val_loss == resumed.history.val_loss
        assert reference.history.best_epoch == resumed.history.best_epoch
        ref_state = reference.network.state_dict()
        res_state = resumed.network.state_dict()
        for key in ref_state:
            np.testing.assert_array_equal(ref_state[key],
                                          res_state[key])

    def test_costmodel_kill_and_resume_bitwise(self, train_data,
                                               tmp_path):
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=6, patience=3)
        reference = CostModel("processing_latency", config=config,
                              seed=3)
        reference.fit(graphs, labels)

        ckpt = tmp_path / "fit.npz"
        hook, Killed = self._kill_at(2)
        killed = CostModel("processing_latency", config=config, seed=3)
        with pytest.raises(Killed):
            killed.fit(graphs, labels, checkpoint_path=ckpt,
                       on_epoch_end=hook)
        resumed = CostModel("processing_latency", config=config, seed=3)
        resumed.fit(graphs, labels, checkpoint_path=ckpt, resume=True)
        self._assert_same_model(reference, resumed)

    def test_costmodel_mid_epoch_kill_replays_epoch(self, train_data,
                                                    tmp_path):
        """checkpoint_every=2 and a kill on an off epoch: the resume
        starts from an OLDER checkpoint and replays the lost epochs —
        the restored RNG state regenerates their exact batch order."""
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=6, patience=3)
        reference = CostModel("processing_latency", config=config,
                              seed=3)
        reference.fit(graphs, labels)

        ckpt = tmp_path / "fit.npz"
        hook, Killed = self._kill_at(2)  # last checkpoint: epoch 1
        killed = CostModel("processing_latency", config=config, seed=3)
        with pytest.raises(Killed):
            killed.fit(graphs, labels, checkpoint_path=ckpt,
                       checkpoint_every=2, on_epoch_end=hook)
        resumed = CostModel("processing_latency", config=config, seed=3)
        resumed.fit(graphs, labels, checkpoint_path=ckpt,
                    checkpoint_every=2, resume=True)
        self._assert_same_model(reference, resumed)

    def test_resume_after_completion_is_idempotent(self, train_data,
                                                   tmp_path):
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=4, patience=3)
        ckpt = tmp_path / "fit.npz"
        done = CostModel("processing_latency", config=config, seed=3)
        done.fit(graphs, labels, checkpoint_path=ckpt)
        again = CostModel("processing_latency", config=config, seed=3)
        again.fit(graphs, labels, checkpoint_path=ckpt, resume=True)
        self._assert_same_model(done, again)

    def test_mismatched_checkpoint_rejected(self, train_data, tmp_path):
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=3, patience=3)
        ckpt = tmp_path / "fit.npz"
        CostModel("processing_latency", config=config, seed=3).fit(
            graphs, labels, checkpoint_path=ckpt)
        other_seed = CostModel("processing_latency", config=config,
                               seed=4)
        with pytest.raises(ValueError, match="does not match"):
            other_seed.fit(graphs, labels, checkpoint_path=ckpt,
                           resume=True)

    def test_checkpoint_write_is_atomic(self, train_data, tmp_path):
        """No ``.tmp`` residue, and the file is loadable after every
        epoch — the replace-into-place pattern never exposes a torn
        checkpoint."""
        from repro.core.persistence import load_checkpoint

        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=3, patience=3)
        ckpt = tmp_path / "fit.npz"

        def verify(epoch):
            assert ckpt.exists()
            assert not ckpt.with_name(ckpt.name + ".tmp").exists()
            header, arrays = load_checkpoint(ckpt)
            assert header["epoch"] == epoch + 1
        CostModel("processing_latency", config=config, seed=3).fit(
            graphs, labels, checkpoint_path=ckpt, on_epoch_end=verify)

    def test_stacked_kill_and_resume_bitwise(self, train_data,
                                             tmp_path):
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=6, patience=3,
                                member_training="stacked")

        def members():
            return [CostModel("processing_latency", config=config,
                              seed=seed) for seed in (1, 2)]

        reference = members()
        StackedTrainer(reference).fit(graphs, labels)

        ckpt = tmp_path / "stacked.npz"
        hook, Killed = self._kill_at(2)
        killed = members()
        with pytest.raises(Killed):
            StackedTrainer(killed).fit(graphs, labels,
                                       checkpoint_path=ckpt,
                                       on_epoch_end=hook)
        resumed = members()
        StackedTrainer(resumed).fit(graphs, labels,
                                    checkpoint_path=ckpt, resume=True)
        for ref_member, res_member in zip(reference, resumed):
            self._assert_same_model(ref_member, res_member)

    def test_stacked_mismatch_rejected(self, train_data, tmp_path):
        graphs, labels = train_data
        config = TrainingConfig(hidden_dim=12, epochs=3, patience=3)
        ckpt = tmp_path / "stacked.npz"
        StackedTrainer([CostModel("processing_latency", config=config,
                                  seed=s) for s in (1, 2)]).fit(
            graphs, labels, checkpoint_path=ckpt)
        other = [CostModel("processing_latency", config=config, seed=s)
                 for s in (5, 6)]
        with pytest.raises(ValueError, match="does not match"):
            StackedTrainer(other).fit(graphs, labels,
                                      checkpoint_path=ckpt, resume=True)
