"""Reproduction report: paper-vs-measured table from result artifacts.

Reads the ``results/<name>.json`` files ``repro figures`` writes and
renders the paper-vs-measured comparison table, so the record of what was
measured regenerates mechanically from the same artifacts the figures use
(the full-protocol report it is meant for is ROADMAP item 2).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .figures import FigureData
from .stats import mean_ci

__all__ = [
    "load_results",
    "reproduction_table",
    "render_markdown_table",
    "aggregate_stored_runs",
    "render_stored_table",
]


def load_results(results_dir: str | Path) -> dict[str, FigureData]:
    """All figure artifacts in a results directory, keyed by name."""
    out: dict[str, FigureData] = {}
    for path in sorted(Path(results_dir).glob("*.json")):
        fig = FigureData.from_json(path)
        out[fig.name] = fig
    return out


def _fmt(value: float | None, pattern: str = "{:.3f}") -> str:
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return "—"
    return pattern.format(value)


def reproduction_table(figures: dict[str, FigureData]) -> list[dict[str, str]]:
    """One row per paper figure: claim, paper value, measured value, verdict."""
    rows: list[dict[str, str]] = []

    def add(figure: str, claim: str, paper: str, measured: str, holds: bool | None):
        rows.append(
            {
                "figure": figure,
                "claim": claim,
                "paper": paper,
                "measured": measured,
                "holds": {True: "yes", False: "NO", None: "n/a"}[holds],
            }
        )

    if "fig1" in figures:
        f = figures["fig1"]
        starts = [float(v[0]) for v in f.series.values()]
        add(
            "Fig. 1",
            "logistic reputation, R(0)=0.05, monotone to 1",
            "R(0)=0.05",
            f"R(0)={_fmt(float(np.mean(starts)))}",
            bool(abs(np.mean(starts) - 0.05) < 1e-9),
        )
    if "fig2_T1000" in figures:
        f = figures["fig2_T1000"]
        spread = float(np.ptp(f.series["p"]))
        add(
            "Fig. 2",
            "Boltzmann: T=1000 near-uniform",
            "p ~= 0.1 each",
            f"max spread {_fmt(spread, '{:.4f}')}",
            bool(spread < 0.01),
        )
    if "fig3" in figures:
        f = figures["fig3"]
        ga = float(f.meta.get("gain_articles", float("nan")))
        gb = float(f.meta.get("gain_bandwidth", float("nan")))
        add(
            "Fig. 3",
            "incentives raise sharing (articles / bandwidth)",
            "+8% / +11%",
            f"{ga:+.1%} / {gb:+.1%}",
            bool(ga > 0 and gb > 0),
        )
    if "fig4_files" in figures:
        f = figures["fig4_files"]
        alt = f.series["altruistic"]
        irr = f.series["irrational"]
        add(
            "Fig. 4",
            "network sharing ~linear up with altruists, down with irrationals",
            "monotone, ~linear",
            f"altruistic {alt[0]:.2f}->{alt[-1]:.2f}, "
            f"irrational {irr[0]:.2f}->{irr[-1]:.2f}",
            bool(alt[-1] > alt[0] and irr[-1] < irr[0]),
        )
    if "fig5_bandwidth" in figures:
        f = figures["fig5_bandwidth"]
        band = np.concatenate(list(f.series.values()))
        spread = float(np.nanmax(band) - np.nanmin(band))
        add(
            "Fig. 5",
            "rational sharing insensitive to the mix",
            "flat band",
            f"bandwidth band width {_fmt(spread)}",
            bool(spread < 0.15),
        )
    if "fig6" in figures:
        f = figures["fig6"]
        std = f.series.get("constructive_std")
        mean_std = float(np.nanmean(std)) if std is not None else float("nan")
        add(
            "Fig. 6",
            "balanced camps: outcome random per run",
            "bimodal/random",
            f"across-seed std {_fmt(mean_std)}",
            bool(mean_std > 0.08),
        )
    if "fig7_altruistic" in figures and "fig7_irrational" in figures:
        hi_alt = float(figures["fig7_altruistic"].series["constructive"][-1])
        hi_irr = float(figures["fig7_irrational"].series["constructive"][-1])
        add(
            "Fig. 7",
            "rational agents adopt the majority behaviour",
            "constructive w/ altruists, destructive w/ vandals",
            f"90% altruists -> {hi_alt:.2f} constructive; "
            f"90% irrationals -> {hi_irr:.2f}",
            bool(hi_alt > 0.6 and hi_irr < 0.4),
        )
    return rows


def render_markdown_table(rows: list[dict[str, str]]) -> str:
    header = "| Figure | Claim | Paper | Measured | Holds |"
    sep = "|---|---|---|---|---|"
    body = [
        f"| {r['figure']} | {r['claim']} | {r['paper']} | {r['measured']} | {r['holds']} |"
        for r in rows
    ]
    return "\n".join([header, sep, *body])


# ----------------------------------------------------------------------
# Stored-run reports (the `repro report` command)
# ----------------------------------------------------------------------
def _flatten(config: dict, prefix: str = "") -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value in config.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, prefix=f"{dotted}."))
        else:
            out[dotted] = value
    return out


def aggregate_stored_runs(
    records: list,
    metrics: tuple[str, ...] = ("shared_files", "shared_bandwidth"),
) -> list[dict]:
    """Group stored runs by config-minus-seed and aggregate each metric.

    ``records`` are :class:`repro.store.StoredRun`-shaped objects (need
    ``.config`` as a nested dict and ``.summary``); records without a
    config payload are skipped.  Each returned row carries a ``label``
    built from the config fields that actually vary across groups, the
    seed count ``n``, and ``(mean, half_width)`` per metric.
    """
    from ..store.hashing import canonical_json, revive_floats

    groups: dict[str, list] = {}
    flats: dict[str, dict[str, object]] = {}
    for rec in records:
        if rec.config is None:
            continue
        flat = _flatten(rec.config)
        flat.pop("seed", None)
        key = canonical_json(flat)
        groups.setdefault(key, []).append(rec)
        flats[key] = flat

    # Label each group by the fields that distinguish it from the others.
    varying: list[str] = []
    if len(flats) > 1:
        all_keys = sorted({k for flat in flats.values() for k in flat})
        for k in all_keys:
            seen = {canonical_json(flat.get(k)) for flat in flats.values()}
            if len(seen) > 1:
                varying.append(k)

    rows: list[dict] = []
    for key in sorted(groups):
        recs = groups[key]
        flat = flats[key]
        if varying:
            label = " ".join(
                f"{k}={revive_floats(flat.get(k))}" for k in varying
            )
        else:
            label = "base"
        row: dict = {"label": label, "n": len(recs)}
        for metric in metrics:
            values = [r.summary.get(metric, float("nan")) for r in recs]
            ci = mean_ci(np.asarray(values, dtype=np.float64))
            row[metric] = ci.mean
            row[f"{metric}_hw"] = ci.half_width
        rows.append(row)
    return rows


def render_stored_table(
    rows: list[dict],
    metrics: tuple[str, ...] = ("shared_files", "shared_bandwidth"),
) -> str:
    """Plain-text table for :func:`aggregate_stored_runs` rows."""
    if not rows:
        return "(no stored runs)"
    headers = ["group", "n", *metrics]
    cells = [
        [
            str(row["label"]),
            str(row["n"]),
            *(
                f"{_fmt(row[m])} ± {_fmt(row.get(f'{m}_hw'))}"
                for m in metrics
            ),
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(c[i]) for c in cells))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join(lines)
