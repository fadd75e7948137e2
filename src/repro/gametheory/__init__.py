"""Game-theory substrate: the mean-field analysis of the sharing game."""

from .sharing_game import (
    PAPER_GRID,
    EquilibriumResult,
    MeanFieldSharingGame,
    SharingLevel,
)

__all__ = [
    "PAPER_GRID",
    "EquilibriumResult",
    "MeanFieldSharingGame",
    "SharingLevel",
]
