"""P2P collaboration-network substrate: peers, articles, bandwidth, overlay."""

from .articles import ArticleStore
from .bandwidth import DownloadRequests
from .events import (
    DownloadEvent,
    EditEvent,
    EventLog,
    PunishmentEvent,
    VoteEvent,
)
from .overlay import ChurnEvent, ChurnModel, OverlayNetwork
from .peer import ALTRUISTIC, IRRATIONAL, RATIONAL, TYPE_NAMES, PeerArrays

__all__ = [
    "ArticleStore",
    "DownloadRequests",
    "DownloadEvent",
    "EditEvent",
    "EventLog",
    "PunishmentEvent",
    "VoteEvent",
    "ChurnEvent",
    "ChurnModel",
    "OverlayNetwork",
    "ALTRUISTIC",
    "IRRATIONAL",
    "RATIONAL",
    "TYPE_NAMES",
    "PeerArrays",
]
