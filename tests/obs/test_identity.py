"""Tracing must never perturb the simulation: bit-identity on vs off.

The tracer draws nothing from the RNG streams and touches no simulation
state, so a traced run must reproduce the untraced run bit for bit —
across every incentive scheme, with event collection and memory tracking
on.  These tests enforce that contract on small but protocol-complete
configurations (training, reputation reset, evaluation, churn).
"""

import pytest

from repro.agents.population import PopulationMix
from repro.obs import get_tracer, tracing
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResumableTask,
    inject_faults,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_simulation

#: Mixed population so altruists, free-riders and learners all act.
MIX = PopulationMix(rational=0.5, altruistic=0.25, irrational=0.25)

ALL_PHASES = (
    "churn", "sybil", "act", "collusion", "download",
    "edit_vote", "learn", "record",
)


def tiny(seed=11, **overrides):
    params = dict(
        n_agents=24,
        n_articles=6,
        training_steps=40,
        eval_steps=30,
        founders_per_article=3,
        mix=MIX,
    )
    params.update(overrides)
    return SimulationConfig(seed=seed, **params)


def assert_results_identical(a, b):
    from tests.conftest import assert_summaries_equal

    assert_summaries_equal(a.summary, b.summary)
    assert_summaries_equal(a.training_summary, b.training_summary)
    assert a.extras["whitewash_count"] == b.extras["whitewash_count"]


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", ["reputation", "none", "tft", "karma"])
    def test_traced_equals_untraced(self, scheme):
        cfg = tiny(scheme=scheme)
        plain = run_simulation(cfg)
        with tracing(trace_events=True, track_memory=True):
            traced = run_simulation(cfg)
        assert_results_identical(plain, traced)

    def test_traced_run_with_churn(self):
        cfg = tiny(seed=42, leave_rate=0.03, join_rate=0.25, whitewash_rate=0.02)
        plain = run_simulation(cfg)
        with tracing():
            traced = run_simulation(cfg)
        assert_results_identical(plain, traced)


class TestInstrumentationCoverage:
    def test_every_phase_and_engine_span_recorded(self, tmp_path):
        cfg = tiny()
        plain = run_simulation(cfg)
        n_steps = cfg.training_steps + cfg.eval_steps

        def checkpointing_task():
            return ResumableTask([cfg], checkpoint_every=10, store_root=str(tmp_path))

        def resume_from_step_20():
            task = checkpointing_task()
            [result] = task.run()
            assert task.resumed_at_step == 20
            return result

        # Leave a step-20 snapshot behind: the first attempt dies at step 25.
        plan = FaultPlan([FaultSpec(site="sweep/step", action="error", at=(26,))])
        with inject_faults(plan), pytest.raises(InjectedFault):
            checkpointing_task().run()

        for run, steps in (
            (lambda: run_simulation(cfg), n_steps),
            (resume_from_step_20, n_steps - 20),
        ):
            with tracing() as tracer:
                traced = run()
            assert_results_identical(plain, traced)
            spans = tracer.spans()
            for phase in ALL_PHASES:
                agg = spans[f"phase/{phase}"]
                assert agg.count == steps
                assert agg.attrs == {"lanes": 1, "agents": cfg.n_agents}
            assert spans["engine/train"].count == 1
            assert spans["engine/eval"].count == 1

    def test_phase_time_covers_protocol_time(self):
        from repro.obs import build_telemetry, phase_breakdown

        with tracing() as tracer:
            run_simulation(tiny())
        breakdown = phase_breakdown(build_telemetry(tracer))
        # The phase kernels are the whole step loop; the bench gate holds
        # the acceptance bar (>= 0.95) at scale, this guards the plumbing.
        assert breakdown["coverage"] >= 0.9

    def test_disabled_ambient_tracer_stays_empty(self):
        assert get_tracer().enabled is False
        run_simulation(tiny(training_steps=10, eval_steps=5))
        assert get_tracer().spans() == {}
