"""Structured event records for analysis and debugging.

The engine can optionally log per-step edits and punishments into an
:class:`EventLog` (``SimulationConfig.collect_events``).  Logging is off
by default — the hot path never pays for it — but the integration tests
and the examples use it to assert on causality (e.g. "the punished
editor had N declined edits first").
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EditEvent", "PunishmentEvent", "EventLog"]


@dataclass(frozen=True)
class EditEvent:
    step: int
    article_id: int
    editor_id: int
    constructive: bool
    accepted: bool
    for_weight: float
    required_majority: float
    n_voters: int


@dataclass(frozen=True)
class PunishmentEvent:
    step: int
    peer_id: int
    kind: str  # "vote_ban" | "reputation_reset"


@dataclass
class EventLog:
    """Append-only store of simulation events."""

    edits: list[EditEvent] = field(default_factory=list)
    punishments: list[PunishmentEvent] = field(default_factory=list)

    def record_edit(self, event: EditEvent) -> None:
        self.edits.append(event)

    def record_punishment(self, event: PunishmentEvent) -> None:
        self.punishments.append(event)

    def __len__(self) -> int:
        return len(self.edits) + len(self.punishments)
