"""Adversary panel: every incentive scheme vs collusion and sybil attacks.

Renders the ``adversary/shootout`` scenario pack — the four incentive
schemes each facing (a) collusion rings (25% of peers in rings of 4
that serve and upvote only each other) and (b) sybil attackers (20% of
peers discarding their identity at rate 0.05) — and reports the sharing
level each scheme sustains under each attack.

This extends the paper's robustness story to adversarial pressure the
figures never probed: shared-history reputation pays for collusion
resistance with vulnerability to cheap identities, while tit-for-tat's
private histories are naturally sybil-proof but cannot see a ring
serving only itself.
"""

from __future__ import annotations

import numpy as np

from ..analysis.figures import FigureData
from ..sim.engine import SimulationResult
from ._common import aggregate_metric, group_by

__all__ = ["render", "SCHEMES", "ATTACKS"]

SCHEMES = ("none", "tft", "karma", "reputation")
ATTACKS = ("collusion", "sybil")


def render(results: list[SimulationResult], n_seeds: int) -> list[FigureData]:
    """Tabulate the shootout's sharing per scheme x attack."""
    # Group by what each config actually enables, not by expansion order.
    grouped = group_by(
        results,
        lambda c: (c.scheme, "collusion" if c.collusion_fraction > 0 else "sybil"),
    )
    series: dict[str, list[float]] = {a: [] for a in ATTACKS}
    errors: dict[str, list[float]] = {a: [] for a in ATTACKS}
    for scheme in SCHEMES:
        for attack in ATTACKS:
            mean, half = aggregate_metric(
                grouped[(scheme, attack)], "shared_bandwidth"
            )
            series[attack].append(mean)
            errors[attack].append(half)

    fig = FigureData(
        name="adversary_panel",
        title="Sharing sustained under collusion and sybil attacks",
        x_label="scheme_index",
        y_label="shared bandwidth",
        x=np.arange(len(SCHEMES), dtype=np.float64),
        series={k: np.asarray(v) for k, v in series.items()},
        errors={k: np.asarray(v) for k, v in errors.items()},
        meta={"schemes": ",".join(SCHEMES), "n_seeds": n_seeds},
        kind="bar",
    )
    return [fig]
