"""The three behaviour types through the act phase's one action path.

Paper section IV-B: rational peers learn, altruists always share
everything and edit and vote constructively, irrational peers always
free-ride and edit and vote destructively.  The act phase selects the
rational peers' actions from counter-based draws and then applies one
pinned action per slot (:func:`repro.sim.phases.act.pin_actions`): the
fixed types are pinned at state build and are never selected for, and
online collusion-ring members are pinned to the ring policy.  The cases run
the phases on small states, one or two lanes.
"""

import numpy as np
import pytest

from repro.agents.population import PopulationMix
from repro.agents.qlearning import VectorQLearner
from repro.network.peer import ALTRUISTIC, IRRATIONAL, RATIONAL
from repro.sim.config import SimulationConfig
from repro.sim.phases import act_phase, learn_phase
from repro.sim.phases.act import select_rational
from repro.sim.rng import SITE_EDIT, SITE_SHARE
from repro.sim.state import build_sim_state

FIXED_ONLY = PopulationMix(0.0, 0.5, 0.5)
MIXED = PopulationMix(0.5, 0.25, 0.25)


def small(**overrides) -> SimulationConfig:
    params = dict(
        n_agents=12, n_articles=3, founders_per_article=2,
        training_steps=4, eval_steps=2, seed=3,
    )
    params.update(overrides)
    return SimulationConfig(**params)


def own_draws(state, temperature):
    """The sharing and edit actions the rational peers select, unpinned.

    The draws are counter-based, so selecting on ``state`` itself moves
    nothing the act phase then draws.
    """
    states = np.zeros(state.rational_idx.size, dtype=np.int64)
    share = select_rational(state, state.sharing_learner, states, temperature, SITE_SHARE)
    edit = select_rational(state, state.edit_learner, states, temperature, SITE_EDIT)
    return share, edit


class TestBehaviorEngine:
    def test_fixed_types_constant_actions(self):
        """Fixed types play their pins, whatever T, and are never selected
        for: only the neighbour lane's rational peers draw."""
        cfg = small(mix=FIXED_ONLY)
        for temperature in (1.0, np.inf):
            state = build_sim_state([cfg, small(mix=MIXED, seed=4)])
            assert (state.rational_idx >= cfg.n_agents).all()
            share, edit_draw = own_draws(state, temperature)
            act_phase(state, state.config, temperature)
            assert np.array_equal(state.ctx.share_actions[state.rational_idx], share)
            assert np.array_equal(state.ctx.edit_actions[state.rational_idx], edit_draw)
            types, ctx = state.peers.types, state.ctx
            sharing, edit = state.sharing_space, state.edit_space
            alt, irr = types == ALTRUISTIC, types == IRRATIONAL
            assert alt[: cfg.n_agents].any() and irr[: cfg.n_agents].any()
            assert (ctx.share_actions[alt] == sharing.max_action).all()
            assert (ctx.share_actions[irr] == sharing.min_action).all()
            assert (ctx.edit_actions[alt] == edit.constructive_action).all()
            assert (ctx.edit_actions[irr] == edit.destructive_action).all()
            assert (ctx.bw[alt] == 1.0).all() and (ctx.files[alt] == 1.0).all()
            assert (ctx.bw[irr] == 0.0).all() and (ctx.files[irr] == 0.0).all()

    def test_mixed_population_actions(self):
        """Rational slots play their own draws; the pins leave them alone."""
        state = build_sim_state([small(mix=MIXED)])
        share, edit = own_draws(state, 1.0)
        act_phase(state, state.config, 1.0)
        ridx = state.rational_idx
        assert ridx.size == 6
        assert np.array_equal(state.ctx.share_actions[ridx], share)
        assert np.array_equal(state.ctx.edit_actions[ridx], edit)
        assert (state.pin_share[ridx] == -1).all() and (state.pin_edit[ridx] == -1).all()

    def test_pins_apply_after_selection(self):
        """A pinned rational slot still draws, then plays its pin."""
        cfg = small()
        free, pinned = build_sim_state([cfg]), build_sim_state([cfg])
        act_phase(free, cfg, 1.0)
        slot = int(pinned.rational_idx[3])
        share_pin = (free.ctx.share_actions[slot] + 1) % free.sharing_space.n_actions
        edit_pin = (free.ctx.edit_actions[slot] + 1) % free.edit_space.n_actions
        pinned.pin_share[slot], pinned.pin_edit[slot] = share_pin, edit_pin
        act_phase(pinned, cfg, 1.0)
        assert pinned.ctx.share_actions[slot] == share_pin
        assert pinned.ctx.edit_actions[slot] == edit_pin
        others = np.arange(cfg.n_agents) != slot
        assert np.array_equal(
            pinned.ctx.share_actions[others], free.ctx.share_actions[others]
        )
        assert np.array_equal(
            pinned.ctx.edit_actions[others], free.ctx.edit_actions[others]
        )

    def test_ring_member_pinned_only_while_online(self):
        """An online ring member plays the ring policy and trains on it; an
        offline rational colluder keeps its own draw and trains on that."""
        cfg = small(collusion_fraction=0.5)
        state = build_sim_state([cfg])
        sharing, edit = state.sharing_space, state.edit_space
        share, edit_draw = own_draws(state, np.inf)
        ridx = state.rational_idx
        # Colluders whose own draws differ from the ring policy, so the
        # pin (or its absence) shows.
        rows = np.flatnonzero(
            state.colluder_mask[ridx]
            & (share != sharing.max_action)
            & (edit_draw != edit.constructive_action)
        )
        assert rows.size >= 2
        off, on = rows[:2]
        state.peers.online[ridx[off]] = False
        act_phase(state, cfg, np.inf)
        ctx = state.ctx
        assert ctx.share_actions[ridx[off]] == share[off]
        assert ctx.edit_actions[ridx[off]] == edit_draw[off]
        assert ctx.bw[ridx[off]] == 0.0 and ctx.files[ridx[off]] == 0.0
        assert ctx.share_actions[ridx[on]] == sharing.max_action
        assert ctx.edit_actions[ridx[on]] == edit.constructive_action
        online_ring = state.colluder_mask & state.peers.online
        assert (ctx.share_actions[online_ring] == sharing.max_action).all()
        assert (ctx.edit_actions[online_ring] == edit.constructive_action).all()

        ctx.u_s = np.ones(cfg.n_agents)
        ctx.u_e = np.ones(cfg.n_agents)
        learn_phase(state, cfg, True)
        for ql, states, ring_action, own in (
            (state.sharing_learner, ctx.states_s, sharing.max_action, share),
            (state.edit_learner, ctx.states_e, edit.constructive_action, edit_draw),
        ):
            assert ql.q[off, states[off], own[off]] > 0.0
            assert ql.q[off, states[off], ring_action] == 0.0
            assert ql.q[on, states[on], ring_action] > 0.0
            assert ql.q[on, states[on], own[on]] == 0.0

    def test_learning_only_touches_rational(self):
        """Each learner row backs up its rational slot's played action with
        that slot's own utility; the fixed types' utilities are never read."""
        cfg = small(mix=MIXED)
        state = build_sim_state([cfg])
        act_phase(state, cfg, np.inf)
        ctx, ridx = state.ctx, state.rational_idx
        fixed = state.peers.types != RATIONAL
        u = np.where(fixed, np.nan, np.arange(1.0, cfg.n_agents + 1.0))
        ctx.u_s, ctx.u_e = u, u.copy()
        learn_phase(state, cfg, True)
        rows = np.arange(ridx.size)
        for ql, states, actions in (
            (state.sharing_learner, ctx.states_s, ctx.share_actions),
            (state.edit_learner, ctx.states_e, ctx.edit_actions),
        ):
            assert ql.n_agents == ridx.size
            assert np.isfinite(ql.q).all()
            assert np.count_nonzero(ql.q) == ridx.size
            touched = ql.q[rows, states, actions[ridx]]
            assert touched == pytest.approx(ql.learning_rate * u[ridx])

    def test_learner_size_validated(self):
        """A learner that does not cover exactly the rational peers fails
        the first step that uses it: selection at finite T, the TD backup
        at T = inf (which draws integers without the learner)."""
        cfg = small()

        def mis_sized():
            state = build_sim_state([cfg])
            state.sharing_learner = VectorQLearner(
                state.rational_idx.size - 1, cfg.n_states, state.sharing_space.n_actions
            )
            return state

        with pytest.raises(ValueError, match="align"):
            act_phase(mis_sized(), cfg, 1.0)
        state = mis_sized()
        act_phase(state, cfg, np.inf)
        state.ctx.u_s = state.ctx.u_e = np.zeros(cfg.n_agents)
        with pytest.raises(ValueError, match="align"):
            learn_phase(state, cfg, True)
