"""Tests for the scenario algebra: modifiers, composition, hash stability."""

import pytest

from repro.sim._sweep import run_sweep
from repro.store import (
    RunStore,
    ScenarioModifier,
    compose_scenarios,
    composed_pack,
    config_hash,
    expand_scenario,
    get_modifier,
    iter_modifiers,
    modifier_names,
    register_modifier,
    resolve_scenario,
)

#: Shrinks any composition to a smoke-test horizon.
TINY = dict(n_agents=16, n_articles=4, training_steps=20, eval_steps=15)


class TestModifierRegistry:
    def test_builtin_modifiers_registered(self):
        names = modifier_names()
        for name in (
            "churn/storm",
            "overlay/sparse",
            "capacity/heterogeneous",
            "adversary/collusion",
            "adversary/sybil",
            "schemes/all",
        ):
            assert name in names

    def test_tag_filter(self):
        assert "adversary/sybil" in modifier_names(tag="adversary")
        assert "churn/storm" not in modifier_names(tag="adversary")

    def test_unknown_modifier(self):
        with pytest.raises(KeyError, match="unknown modifier"):
            get_modifier("no/such/modifier")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_modifier("churn/storm", "dup", [{"leave_rate": 0.1}])

    def test_empty_variants_rejected(self):
        with pytest.raises(ValueError, match="at least one variant"):
            ScenarioModifier("x", "empty", variants=())
        with pytest.raises(ValueError, match="empty variant"):
            ScenarioModifier("x", "empty", variants=({},))

    def test_axes_derived_from_variants(self):
        assert get_modifier("churn/storm").axes == ("join_rate", "leave_rate")
        assert get_modifier("schemes/all").axes == ("scheme",)

    def test_iter_sorted(self):
        mods = iter_modifiers()
        assert [m.name for m in mods] == sorted(m.name for m in mods)
        assert all(m.description for m in mods)


class TestComposition:
    def test_cross_product_size(self):
        configs = compose_scenarios(
            "base/default", "churn/storm", "capacity/heterogeneous", n_seeds=2
        )
        # 2 seeds x 3 churn rates x 2 sigmas.
        assert len(configs) == 12
        assert len(set(configs)) == 12

    def test_modifier_fields_applied(self):
        configs = compose_scenarios(
            "base/default", "adversary/collusion", "adversary/sybil", n_seeds=1
        )
        (cfg,) = configs
        assert cfg.collusion_fraction == 0.25
        assert cfg.sybil_fraction == 0.2
        assert cfg.sybil_rate == 0.05

    def test_overrides_applied_last(self):
        configs = compose_scenarios(
            "base/default",
            "churn/spike",
            n_seeds=1,
            overrides={"leave_rate": 0.123, **TINY},
        )
        (cfg,) = configs
        assert cfg.leave_rate == 0.123  # overrides beat the modifier
        assert cfg.join_rate == 0.05  # untouched modifier field survives
        assert cfg.n_agents == 16

    def test_rightmost_modifier_wins(self):
        storm_then_spike = compose_scenarios(
            "base/default", "churn/spike", "churn/whitewash", n_seeds=1
        )
        assert all(c.leave_rate == 0.05 for c in storm_then_spike)
        assert {c.whitewash_rate for c in storm_then_spike} == {0.01, 0.05}

    def test_params_forward_to_base_builder(self):
        configs = compose_scenarios(
            "paper/fig4", "churn/spike", n_seeds=1, percentages=[10]
        )
        # 2 varied types x 1 percentage x 1 seed x 1 variant.
        assert len(configs) == 2
        assert all(c.leave_rate == 0.05 for c in configs)

    def test_objects_accepted(self):
        mod = ScenarioModifier("adhoc", "inline axis", ({"n_states": 5},))
        configs = compose_scenarios("base/default", mod, n_seeds=1)
        assert configs[0].n_states == 5


class TestHashStability:
    """The acceptance criterion: composed == hand-built, key for key."""

    def test_composed_hashes_equal_hand_built(self):
        composed = compose_scenarios(
            "paper/fig3", "churn/storm", n_seeds=2, overrides=TINY
        )
        base = expand_scenario("paper/fig3", n_seeds=2, overrides=TINY)
        hand = [
            c.with_(leave_rate=r, join_rate=r)
            for r in (0.002, 0.01, 0.05)
            for c in base
        ]
        assert [config_hash(c) for c in composed] == [config_hash(c) for c in hand]

    def test_independent_modifiers_commute_as_sets(self):
        a = compose_scenarios("base/default", "churn/storm", "overlay/sparse", n_seeds=1)
        b = compose_scenarios("base/default", "overlay/sparse", "churn/storm", n_seeds=1)
        assert {config_hash(c) for c in a} == {config_hash(c) for c in b}

    def test_store_dedupes_across_spellings(self, tmp_path):
        composed = compose_scenarios(
            "base/default", "churn/spike", n_seeds=2, overrides=TINY
        )
        store = RunStore(tmp_path / "rs")
        run_sweep(composed, executor="serial", store=store)
        assert store.misses == len(composed)

        hand = [
            c.with_(leave_rate=0.05, join_rate=0.05)
            for c in expand_scenario("base/default", n_seeds=2, overrides=TINY)
        ]
        reopened = RunStore(tmp_path / "rs")
        results = run_sweep(hand, executor="serial", store=reopened)
        assert reopened.misses == 0 and reopened.hits == len(hand)
        assert all(r is not None for r in results)


class TestResolveScenario:
    def test_plain_pack_passthrough(self):
        assert resolve_scenario("paper/fig3").name == "paper/fig3"

    def test_composed_spec(self):
        pack = resolve_scenario("paper/fig3+churn/spike")
        assert pack.name == "paper/fig3+churn/spike"
        assert "composed" in pack.tags
        configs = pack.expand(fast=True, n_seeds=1, overrides=TINY)
        assert len(configs) == 2  # fig3's on/off pair x 1 variant
        assert all(c.leave_rate == 0.05 for c in configs)
        assert all(c.n_agents == 16 for c in configs)

    def test_unknown_base(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            resolve_scenario("nope+churn/spike")

    def test_unknown_modifier(self):
        with pytest.raises(KeyError, match="unknown modifier"):
            resolve_scenario("paper/fig3+nope")

    @pytest.mark.parametrize("spec", ["+churn/spike", "paper/fig3+", "+"])
    def test_malformed_spec(self, spec):
        with pytest.raises(ValueError, match="composed spec"):
            composed_pack(spec)


class TestRegisteredCompositions:
    def test_kitchen_sink_sets_every_axis(self):
        (cfg,) = expand_scenario("stress/kitchen-sink", n_seeds=1)
        assert cfg.leave_rate > 0 and cfg.join_rate > 0
        assert cfg.overlay_kind == "random"
        assert cfg.capacity_sigma == 1.0
        assert cfg.collusion_fraction > 0
        assert cfg.sybil_fraction > 0 and cfg.sybil_rate > 0

    def test_sybil_storm_grid(self):
        configs = expand_scenario("adversary/sybil-storm", n_seeds=2)
        assert len(configs) == 6  # 3 churn rates x 2 seeds
        assert all(c.sybil_fraction == 0.2 for c in configs)

    def test_schemes_adversarial_covers_all_schemes(self):
        configs = expand_scenario("schemes/adversarial", n_seeds=1)
        assert {c.scheme for c in configs} == {"none", "tft", "karma", "reputation"}
        assert all(c.collusion_fraction == 0.25 for c in configs)

    def test_composed_pack_runs(self):
        configs = expand_scenario(
            "stress/kitchen-sink", fast=True, n_seeds=1, overrides=TINY
        )
        from repro.sim.engine import run_simulation

        result = run_simulation(configs[0])
        assert 0.0 <= result.summary["shared_files"] <= 1.0
