"""COSTREAM reproduction: learned cost models for operator placement in
edge-cloud stream processing (Heinrich et al., ICDE 2024).

Public API tour::

    from repro import (BenchmarkCollector, Costream, PlacementOptimizer,
                       QueryGenerator, sample_cluster)

    collector = BenchmarkCollector(seed=0)
    traces = collector.collect(2000)             # simulated corpus
    model = Costream(ensemble_size=3).fit(traces)

    plan = QueryGenerator(seed=1).generate()
    cluster = sample_cluster(np.random.default_rng(2), 6)
    decision = PlacementOptimizer(model).optimize(plan, cluster)

    # Streams of decisions: serve a wave of requests, each decided
    # bitwise identically to its sequential optimize call
    # (PERFORMANCE.md)
    from repro import DecisionBatcher, DecisionRequest
    decisions = DecisionBatcher(model).decide(
        [DecisionRequest(plan=p, cluster=c, seed=i)
         for i, (p, c) in enumerate(workload)])
"""

from .config import (HardwareRanges, WorkloadRanges,
                     default_hardware_ranges, default_workload_ranges)
from .core import (Costream, CostModel, Featurizer, GraphDataset,
                   MetricEnsemble, TrainingConfig, q_error,
                   q_error_percentiles, split_traces)
from .data import BenchmarkCollector, QueryTrace, load_corpus, save_corpus
from .hardware import (Cluster, HardwareNode, Placement, sample_cluster,
                       sample_node)
from .placement import (HeuristicPlacementEnumerator, PlacementDecision,
                        PlacementOptimizer)
from .query import QueryGenerator, QueryPlan
from .serving import DecisionBatcher, DecisionRequest
from .simulator import (DSPSSimulator, QueryMetrics, SimulationConfig,
                        SelectivityEstimator)

__version__ = "1.0.0"

__all__ = [
    "HardwareRanges", "WorkloadRanges", "default_hardware_ranges",
    "default_workload_ranges", "Costream", "CostModel", "Featurizer",
    "GraphDataset", "MetricEnsemble", "TrainingConfig", "q_error",
    "q_error_percentiles", "split_traces", "BenchmarkCollector",
    "QueryTrace", "load_corpus", "save_corpus", "Cluster", "HardwareNode",
    "Placement", "sample_cluster", "sample_node",
    "HeuristicPlacementEnumerator", "PlacementDecision",
    "PlacementOptimizer", "QueryGenerator", "QueryPlan",
    "DecisionBatcher", "DecisionRequest", "DSPSSimulator",
    "QueryMetrics", "SimulationConfig", "SelectivityEstimator",
    "__version__",
]
