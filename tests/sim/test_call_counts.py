"""How often one step evaluates and discretizes the reputations.

The books a reputation reads change twice per step: the download phase
books ``C_S`` and the edit/vote phase books ``C_E``.  So a step of a
base/default run evaluates the reputation function twice (the ``C_S``
view that edit eligibility reads after the sharing booking, the ``C_E``
view the learn phase reads after the editing booking) and discretizes
twice (the learn phase's next states, which the next step's act phase
reuses).  Extra work is owed only where something else wrote the books:

* the first step and the first evaluation step (empty memos, and the
  phase-boundary reset) and any step whose churn whitewash or sybil
  reset wrote them: act evaluates and discretizes both views afresh
  (+2 and +2);
* a step with an edit punishment, which resets both books after edit
  eligibility read ``C_S``: learn evaluates ``C_S`` again (+1).

The test counts calls step by step and checks that schedule exactly,
on a plain run and on one with churn whitewash plus sybils.  Before the
memo, every step made 6 evaluations and 4 discretizations.
"""

import pytest

import repro.sim.phases.act as act_mod
from repro.core.reputation import ReputationFunction
from repro.sim.engine import CollaborationSimulation, _run_protocol
from repro.sim.scenarios import base_config

TRAIN, EVAL = 40, 30


def _counted_run(monkeypatch, **overrides):
    """Per-step (evaluations, discretizations, identity resets) of a
    short N=20 base/default run, plus its state."""
    calls = {"fn": 0, "rts": 0}
    call, rts = ReputationFunction.__call__, act_mod.reputation_to_state

    def counting_call(self, contribution):
        calls["fn"] += 1
        return call(self, contribution)

    def counting_rts(*args, **kwargs):
        calls["rts"] += 1
        return rts(*args, **kwargs)

    monkeypatch.setattr(ReputationFunction, "__call__", counting_call)
    monkeypatch.setattr(act_mod, "reputation_to_state", counting_rts)
    cfg = base_config(
        n_agents=20, n_articles=5, founders_per_article=3,
        training_steps=TRAIN, eval_steps=EVAL, seed=2, **overrides,
    )
    state = CollaborationSimulation(cfg).state
    marks = []

    def mark(_step=None):
        resets = int(state.whitewash_counts.sum() + state.sybil_counts.sum())
        marks.append((calls["fn"], calls["rts"], resets))

    _run_protocol(state, before_step=mark)
    mark()
    per_step = [
        tuple(b - a for a, b in zip(lo, hi)) for lo, hi in zip(marks, marks[1:])
    ]
    return per_step, state


@pytest.mark.parametrize(
    "overrides",
    [{}, dict(whitewash_rate=0.05, sybil_fraction=0.2, sybil_rate=0.1)],
    ids=["plain", "churn-whitewash-sybil"],
)
def test_reputation_work_per_step(monkeypatch, overrides):
    per_step, state = _counted_run(monkeypatch, **overrides)
    assert len(per_step) == TRAIN + EVAL
    punished = state.metrics.reputation_resets > 0
    touched = [
        i in (0, TRAIN) or resets > 0 for i, (_, _, resets) in enumerate(per_step)
    ]
    assert [fn for fn, _, _ in per_step] == [
        2 + 2 * t + int(p) for t, p in zip(touched, punished)
    ]
    assert [rts for _, rts, _ in per_step] == [2 + 2 * t for t in touched]
    if overrides:
        assert sum(touched) > 2  # the churn and sybil resets did happen
    else:
        assert sum(touched) == 2
        assert sum(fn for fn, _, _ in per_step) <= 2.5 * len(per_step)
        assert sum(rts for _, rts, _ in per_step) <= 2.2 * len(per_step)
