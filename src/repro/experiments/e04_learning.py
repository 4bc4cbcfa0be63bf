"""E4 — Theorem 1.4: learning a distribution needs k = Ω(n²/q²) players.

We measure k*(n, q): the fewest one-bit players for the hit-counting
learner to produce a δ-approximation (median ℓ1 error ≤ δ) of an unknown
ε-far input.  The paper proves every protocol needs k = Ω(n²/q²); the
implemented protocol achieves k = O(n²/(δ²·q)), so the measured exponents
must satisfy:  ≈ +2 in n, and between −2 (the lower bound's slope) and −1
(our protocol's slope) in q — with the lower-bound formula dominated row
by row.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..core.learning import HitCountingLearner
from ..distributions.families import PaninskiFamily
from ..lowerbounds.theorems import theorem_1_4_k_lower
from ..stats.complexity import _search
from ..stats.fitting import fit_power_law
from .harness import ExperimentSpec
from .records import ExperimentResult


def _median_error(n: int, k: int, q: int, epsilon: float, repetitions: int, rng) -> float:
    family = PaninskiFamily(n, epsilon)
    errors = []
    for _ in range(repetitions):
        target = family.sample_distribution(rng)
        learner = HitCountingLearner(n, k, q)
        errors.append(learner.learn(target, rng).l1_error)
    return float(np.median(errors))


def _k_star(n: int, q: int, delta: float, epsilon: float, repetitions: int, rng) -> int:
    """Smallest k (doubling from n, then bisection to 1/8) with median error <= delta."""

    def learns(k: int) -> bool:
        return _median_error(n, k, q, epsilon, repetitions, rng) <= delta

    return _search(
        learns, delta, minimum=max(n, 2), maximum=4_000_000, resolution_factor=1.125, curve={}
    ).resource_star


def _sweep(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One k*-search per swept n, then per swept q, at the fixed bases."""
    points = [{"sweep": "n", "n": n} for n in params["n_sweep"]]
    points += [{"sweep": "q", "q": q} for q in params["q_sweep"]]
    return points


def _point(point: Dict[str, Any], params: Dict[str, Any], rng) -> Dict[str, Any]:
    n = int(point.get("n", params["base_n"]))
    q = int(point.get("q", params["base_q"]))
    k_star = _k_star(n, q, params["delta"], params["eps"], params["repetitions"], rng)
    return {
        "sweep": point["sweep"],
        "n": n,
        "q": q,
        "delta": params["delta"],
        "k_star": k_star,
        "lower_bound": theorem_1_4_k_lower(n, q),
    }


def _fold(
    result: ExperimentResult,
    params: Dict[str, Any],
    points: List[Dict[str, Any]],
    payloads: List[Any],
) -> None:
    for row in payloads:
        result.add_row(**row)

    n_rows = [row for row in result.rows if row["sweep"] == "n"]
    q_rows = [row for row in result.rows if row["sweep"] == "q"]
    if len(n_rows) >= 2:
        fit = fit_power_law([r["n"] for r in n_rows], [r["k_star"] for r in n_rows])
        result.summary["n_exponent (paper lower bound: +2)"] = fit.exponent
    if len(q_rows) >= 2:
        fit = fit_power_law([r["q"] for r in q_rows], [r["k_star"] for r in q_rows])
        result.summary["q_exponent (protocol: -1; paper lower bound allows down to -2)"] = (
            fit.exponent
        )
    result.summary["lower_bound_dominated"] = all(
        row["k_star"] >= row["lower_bound"] for row in result.rows
    )
    result.notes.append(
        "upper bound protocol is hit-counting (k = O(n²/(δ²q))); the paper's "
        "Ω(n²/q²) is a lower bound — domination, not matching, is the check "
        "for q > 1 (they coincide at q = 1, the regime of [1])"
    )


SPEC = ExperimentSpec(
    experiment_id="e04",
    title="Theorem 1.4: learning needs k = Ω(n²/q²) one-bit players",
    scales={
        "smoke": {
            "n_sweep": [8],
            "q_sweep": [1, 2],
            "base_n": 8,
            "base_q": 1,
            "delta": 0.35,
            "eps": 0.6,
            "repetitions": 7,
        },
        "small": {
            "n_sweep": [8, 16],
            "q_sweep": [1, 2, 4],
            "base_n": 16,
            "base_q": 2,
            "delta": 0.30,
            "eps": 0.6,
            "repetitions": 15,
        },
        "paper": {
            "n_sweep": [8, 16, 32, 64],
            "q_sweep": [1, 2, 4, 8, 16],
            "base_n": 32,
            "base_q": 2,
            "delta": 0.30,
            "eps": 0.6,
            "repetitions": 31,
        },
    },
    sweep=_sweep,
    point=_point,
    fold=_fold,
)
