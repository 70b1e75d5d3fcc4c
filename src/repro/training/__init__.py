"""The training engine (see PERFORMANCE.md).

One loop trains every cost model, K >= 1 members at a time, in ONE
batched-GEMM forward/backward per mini-batch:

* :class:`TrainingCorpus` — featurizes a trace corpus once and serves
  cached metric views to every ensemble (``Costream.fit`` and
  ``fine_tune`` both route through it);
* :class:`BatchSchedule` — one deterministic split/shuffle/collation
  source shared by all members, making lock-step and one-member
  training bitwise comparable;
* :class:`StackedTrainer` — the loop: K members in lock-step over
  :class:`~repro.core.model.TrainableMemberStack` weight stacks
  (``CostModel.fit`` is the one-member case), bitwise identical per
  member to :func:`fit_members_sequential` (K independent one-member
  runs) under a shared schedule.

Ensembles train all members in one run with
``TrainingConfig(member_training="stacked")``.
"""

from .corpus import BatchSchedule, TrainingCorpus
from .stacked import StackedTrainer, fit_members_sequential

__all__ = ["BatchSchedule", "TrainingCorpus", "StackedTrainer",
           "fit_members_sequential"]
