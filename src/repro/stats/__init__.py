"""Statistical harness: estimation, empirical complexity search, fitting.

* :mod:`repro.stats.estimation` — Bernoulli success-probability estimation
  with Wilson confidence intervals.
* :mod:`repro.stats.complexity` — the empirical sample-complexity search
  q*(tester; n, k, ε) via exponential bracketing + binary search.
* :mod:`repro.stats.fitting` — log-log power-law fits for extracting the
  scaling exponents the paper's theorems predict.
* :mod:`repro.stats.power` — success-probability power curves.
"""

from .estimation import BernoulliEstimate, estimate_probability, wilson_interval
from .complexity import (
    SampleComplexityResult,
    empirical_sample_complexity,
    empirical_player_complexity,
    graph_family_complexity_sweep,
    streaming_memory_complexity_sweep,
    success_at,
)
from .fitting import PowerLawFit, fit_power_law
from .power import PowerCurve, power_curve
from .ascii import sparkline, horizontal_bar_chart, success_curve_plot

__all__ = [
    "BernoulliEstimate",
    "estimate_probability",
    "wilson_interval",
    "SampleComplexityResult",
    "empirical_sample_complexity",
    "empirical_player_complexity",
    "graph_family_complexity_sweep",
    "streaming_memory_complexity_sweep",
    "success_at",
    "PowerLawFit",
    "fit_power_law",
    "PowerCurve",
    "power_curve",
    "sparkline",
    "horizontal_bar_chart",
    "success_curve_plot",
]
