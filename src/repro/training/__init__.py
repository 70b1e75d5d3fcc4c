"""The training engine (see PERFORMANCE.md).

One loop trains every cost model, one model per run:

* :class:`TrainingCorpus` — featurizes a trace corpus once and serves
  cached metric views to every ensemble (``Costream.fit`` and
  ``fine_tune`` both route through it);
* :class:`BatchSchedule` — one run's deterministic split, per-epoch
  shuffles and validation collation, drawn from one seed;
* :func:`repro.training.stacked.fit_cost_model` — the loop, run by
  ``CostModel.fit``: a one-member
  :class:`~repro.core.model.TrainableMemberStack` step per mini-batch
  for the staged scheme, the tape for ``traditional``.

An ensemble trains its K members as K such runs, each under its own
member-seeded schedule.
"""

from .corpus import BatchSchedule, TrainingCorpus

__all__ = ["BatchSchedule", "TrainingCorpus"]
