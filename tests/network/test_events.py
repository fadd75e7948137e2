"""Tests for the event log."""

from repro.network.events import EditEvent, EventLog, PunishmentEvent


def make_edit(step=0, editor=1, accepted=True):
    return EditEvent(
        step=step,
        article_id=0,
        editor_id=editor,
        constructive=True,
        accepted=accepted,
        for_weight=0.8,
        required_majority=0.6,
        n_voters=5,
    )


class TestEventLog:
    def test_record_and_len(self):
        log = EventLog()
        log.record_edit(make_edit())
        log.record_punishment(PunishmentEvent(0, 3, "vote_ban"))
        assert len(log) == 2
