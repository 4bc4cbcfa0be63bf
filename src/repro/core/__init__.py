"""The distributed distribution-testing model (the paper's Section 2).

``k`` players each draw ``q`` i.i.d. samples from an unknown distribution
and send a short message to a referee, who applies a decision rule:

* :mod:`repro.core.referees` — decision rules f : {0,1}^k → {0,1}
  (AND, OR, T-threshold, majority, arbitrary truth table, count rules).
* :mod:`repro.core.players` — player strategies mapping a sample vector to
  a bit (collision statistics, calibrated biased bits, hash bits).
* :mod:`repro.core.protocol` — the simultaneous-message protocol simulator
  wiring oracles, strategies and referees together.
* :mod:`repro.core.testers` — complete uniformity testers: the centralized
  collision tester [16], the threshold-rule and AND-rule testers of [7],
  and single-sample protocols in the spirit of [1].
* :mod:`repro.core.learning` — distributed distribution-learning protocols
  (the Theorem 1.4 counterpart).
* :mod:`repro.core.tradeoffs` — the asymmetric sampling-rate model of
  Section 6.2.
* :mod:`repro.core.streaming` / :mod:`repro.core.plugins` /
  :mod:`repro.core.battery` — constant-memory streaming testers
  (``init_state``/``update``/``finalize``), their plugin registry, and
  the shared-stream battery runner (``python -m repro battery``).
"""

from .referees import (
    DecisionRule,
    AndRule,
    OrRule,
    ThresholdRule,
    MajorityRule,
    WeightedCountRule,
    TruthTableRule,
)
from .players import (
    PlayerStrategy,
    UniqueElementsPlayer,
    ConstantPlayer,
    RandomBitPlayer,
    SubsetMembershipPlayer,
    collision_counts,
    birthday_no_collision_probability,
)
from .protocol import Player, SimultaneousProtocol, ProtocolOutcome
from .graphs import (
    ComparisonGraph,
    ComparisonGraphTester,
    GraphStatisticPlayer,
    GRAPH_FAMILIES,
    complete_graph,
    star_graph,
    matching_graph,
    cycle_graph,
    bipartite_graph,
    random_regular_graph,
    build_family_graph,
    snap_family_size,
    graph_statistic_block,
    graph_tester_factory,
    uniform_statistic_moments,
    far_statistic_mean_bound,
    midpoint_threshold,
    worst_case_statistic_proxy,
    calibrate_statistic_threshold,
    calibrate_dithered_statistic,
    calibrate_distinct_threshold,
    statistic_alarm_probabilities,
)
from .testers import (
    UniformityTester,
    AmplifiedTester,
    CentralizedCollisionTester,
    ThresholdRuleTester,
    AndRuleTester,
    PairwiseHashTester,
    SimulationTester,
)
from .closeness import ClosenessTester, UniformityViaCloseness
from .faults import StuckAtPlayer, FlippingPlayer, inject_faults
from .independence import IndependenceTester, correlated_joint, joint_from_matrix
from .multibit import MultibitThresholdTester
from .baselines import UniqueElementsTester, EmpiricalDistanceTester
from .learning import (
    HitCountingLearner,
    FrequencyDitheringLearner,
    LearningOutcome,
    LearningSuccessKernel,
)
from .tradeoffs import AsymmetricRateTester, rate_profile_norm
from .streaming import (
    StreamingTester,
    StreamingCollisionTester,
    StreamingDistinctTester,
    StreamingGraphTester,
    measured_state_bytes,
    run_streaming,
)
from .plugins import (
    StreamingPlugin,
    register_plugin,
    registered_plugins,
    plugin_names,
    get_plugin,
)
from .battery import BatteryRow, render_battery, run_battery

__all__ = [
    "DecisionRule",
    "AndRule",
    "OrRule",
    "ThresholdRule",
    "MajorityRule",
    "WeightedCountRule",
    "TruthTableRule",
    "PlayerStrategy",
    "UniqueElementsPlayer",
    "ConstantPlayer",
    "RandomBitPlayer",
    "SubsetMembershipPlayer",
    "collision_counts",
    "birthday_no_collision_probability",
    "Player",
    "SimultaneousProtocol",
    "ProtocolOutcome",
    "ComparisonGraph",
    "ComparisonGraphTester",
    "GraphStatisticPlayer",
    "GRAPH_FAMILIES",
    "complete_graph",
    "star_graph",
    "matching_graph",
    "cycle_graph",
    "bipartite_graph",
    "random_regular_graph",
    "build_family_graph",
    "snap_family_size",
    "graph_statistic_block",
    "graph_tester_factory",
    "uniform_statistic_moments",
    "far_statistic_mean_bound",
    "midpoint_threshold",
    "worst_case_statistic_proxy",
    "calibrate_statistic_threshold",
    "calibrate_dithered_statistic",
    "calibrate_distinct_threshold",
    "statistic_alarm_probabilities",
    "UniformityTester",
    "AmplifiedTester",
    "CentralizedCollisionTester",
    "ThresholdRuleTester",
    "AndRuleTester",
    "PairwiseHashTester",
    "SimulationTester",
    "ClosenessTester",
    "UniformityViaCloseness",
    "StuckAtPlayer",
    "FlippingPlayer",
    "inject_faults",
    "IndependenceTester",
    "correlated_joint",
    "joint_from_matrix",
    "MultibitThresholdTester",
    "UniqueElementsTester",
    "EmpiricalDistanceTester",
    "HitCountingLearner",
    "FrequencyDitheringLearner",
    "LearningOutcome",
    "LearningSuccessKernel",
    "AsymmetricRateTester",
    "rate_profile_norm",
    "StreamingTester",
    "StreamingCollisionTester",
    "StreamingDistinctTester",
    "StreamingGraphTester",
    "measured_state_bytes",
    "run_streaming",
    "StreamingPlugin",
    "register_plugin",
    "registered_plugins",
    "plugin_names",
    "get_plugin",
    "BatteryRow",
    "render_battery",
    "run_battery",
]
