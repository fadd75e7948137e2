"""FigureData: the uniform container every experiment produces.

One figure = an x-axis, one or more named series (with optional CI
half-widths), free-form metadata and a rendering hint.  ``repro figures``
renders it to the terminal and writes a CSV next to it, so each of
the paper's figures has a machine-readable regeneration artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .asciiplot import bar_chart, line_plot

__all__ = ["FigureData"]


@dataclass
class FigureData:
    """Data behind one reproduced figure."""

    name: str
    title: str
    x_label: str
    y_label: str
    x: np.ndarray
    series: dict[str, np.ndarray]
    errors: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, float | int | str] = field(default_factory=dict)
    kind: str = "line"  # "line" | "bar"

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        self.series = {k: np.asarray(v, dtype=np.float64) for k, v in self.series.items()}
        self.errors = {k: np.asarray(v, dtype=np.float64) for k, v in self.errors.items()}
        for k, v in self.series.items():
            if v.shape != self.x.shape:
                raise ValueError(f"series {k!r} does not align with x")
        for k, v in self.errors.items():
            if k not in self.series or v.shape != self.x.shape:
                raise ValueError(f"errors {k!r} do not align")

    # ------------------------------------------------------------------
    def render(self, width: int = 64, height: int = 14) -> str:
        """ASCII rendition (line panel or bar chart depending on kind)."""
        header = f"== {self.name}: {self.title} =="
        if self.kind == "bar":
            # One bar per (x, series) pair.
            labels, values = [], []
            for i, xv in enumerate(self.x):
                for sname, svals in self.series.items():
                    labels.append(f"{self.x_label}={xv:g} {sname}")
                    values.append(svals[i])
            body = bar_chart(labels, np.asarray(values), width=width)
        else:
            body = line_plot(
                self.x,
                self.series,
                width=width,
                height=height,
                title=f"y: {self.y_label}  x: {self.x_label}",
            )
        meta = ", ".join(f"{k}={v}" for k, v in self.meta.items())
        parts = [header, body]
        if meta:
            parts.append(f"[{meta}]")
        return "\n".join(parts)

    # ------------------------------------------------------------------
    def to_csv(self, path: str | Path) -> Path:
        """Write ``x, series..., err_series...`` rows."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = [self.x_label] + list(self.series) + [f"err_{k}" for k in self.errors]
        rows = [",".join(cols)]
        for i in range(self.x.size):
            vals = [f"{self.x[i]:.6g}"]
            vals += [f"{self.series[k][i]:.6g}" for k in self.series]
            vals += [f"{self.errors[k][i]:.6g}" for k in self.errors]
            rows.append(",".join(vals))
        path.write_text("\n".join(rows) + "\n")
        return path

    def to_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": self.name,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "x": self.x.tolist(),
            "series": {k: v.tolist() for k, v in self.series.items()},
            "errors": {k: v.tolist() for k, v in self.errors.items()},
            "meta": self.meta,
            "kind": self.kind,
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    @classmethod
    def from_json(cls, path: str | Path) -> "FigureData":
        payload = json.loads(Path(path).read_text())
        return cls(
            name=payload["name"],
            title=payload["title"],
            x_label=payload["x_label"],
            y_label=payload["y_label"],
            x=np.asarray(payload["x"]),
            series={k: np.asarray(v) for k, v in payload["series"].items()},
            errors={k: np.asarray(v) for k, v in payload.get("errors", {}).items()},
            meta=payload.get("meta", {}),
            kind=payload.get("kind", "line"),
        )
