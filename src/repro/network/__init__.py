"""P2P collaboration-network substrate: peers, articles, bandwidth, overlay."""

from .articles import ArticleStore
from .bandwidth import DownloadRequests
from .events import EditEvent, EventLog, PunishmentEvent
from .overlay import ChurnModel, OverlayNetwork
from .peer import ALTRUISTIC, IRRATIONAL, RATIONAL, TYPE_NAMES, PeerArrays

__all__ = [
    "ArticleStore",
    "DownloadRequests",
    "EditEvent",
    "EventLog",
    "PunishmentEvent",
    "ChurnModel",
    "OverlayNetwork",
    "ALTRUISTIC",
    "IRRATIONAL",
    "RATIONAL",
    "TYPE_NAMES",
    "PeerArrays",
]
