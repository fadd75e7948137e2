"""FaultPlan mechanics: matching, scheduling, serialization, activation."""

import ast
import json
import pickle
import re
from pathlib import Path

import pytest

from repro.resilience import faults
from repro.resilience import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    clear_plan,
    fault_point,
    inject_faults,
    install_plan,
    torn_bytes,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    """Every test starts and ends with no ambient plan."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    clear_plan()
    yield
    clear_plan()


class TestFaultSpec:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(site="x", action="explode")

    def test_at_must_be_positive(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(site="x", at=(0,))

    def test_roundtrip(self):
        spec = FaultSpec(site="lease/*", action="torn-write", at=(2, 5), fraction=0.3)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_accepts_bare_int_at(self):
        assert FaultSpec.from_dict({"site": "x", "at": 3}).at == (3,)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"site": "x", "when": "later"})


class TestPlanMatching:
    def test_at_selects_specific_hits(self):
        plan = FaultPlan([FaultSpec(site="s", at=(2,))])
        assert plan.check("s") is None
        assert plan.check("s") is not None  # hit 2
        assert plan.check("s") is None

    def test_site_is_fnmatch_pattern(self):
        plan = FaultPlan([FaultSpec(site="lease/*")])
        assert plan.check("lease/claim") is not None
        assert plan.check("store/put") is None

    def test_match_restricts_by_key_substring(self):
        plan = FaultPlan([FaultSpec(site="s", match="abc")])
        assert plan.check("s", key="zzz") is None
        assert plan.check("s", key="xxabcxx") is not None

    def test_max_fires_caps_firings(self):
        plan = FaultPlan([FaultSpec(site="s", max_fires=2)])
        fired = [plan.check("s") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_non_matching_hits_still_counted_per_spec(self):
        # 'at' counts hits against *that spec's* filter: key-mismatched
        # calls do count (the spec saw the site), so schedules stay
        # positional within the site's own hit sequence.
        plan = FaultPlan([FaultSpec(site="s", at=(3,))])
        plan.check("other")  # different site: not a hit
        plan.check("s")
        plan.check("s")
        assert plan.check("s") is not None  # third 's' hit

    def test_fired_log_records_site_key_action_hit(self):
        plan = FaultPlan([FaultSpec(site="s", action="delay", at=(1,))])
        with inject_faults(plan):
            fault_point("s", key="k1")
        assert plan.fired == [
            {"site": "s", "key": "k1", "action": "delay", "spec": 0, "hit": 1}
        ]

    def test_seeded_p_gate_is_deterministic(self):
        def schedule():
            plan = FaultPlan([FaultSpec(site="s", p=0.5)], seed=7)
            return [plan.check("s") is not None for _ in range(64)]

        first, second = schedule(), schedule()
        assert first == second
        assert any(first) and not all(first)  # the gate actually gates


class TestSerialization:
    def test_plan_roundtrip(self):
        plan = FaultPlan(
            [FaultSpec(site="a"), FaultSpec(site="b", action="crash", at=(9,))],
            seed=3,
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.seed == 3
        assert clone.specs == plan.specs

    def test_parse_inline_json_and_path(self, tmp_path):
        doc = {"schema_version": 1, "seed": 0, "faults": [{"site": "x"}]}
        inline = FaultPlan.parse(json.dumps(doc))
        assert inline.specs[0].site == "x"
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert FaultPlan.parse(str(path)).specs == inline.specs

    def test_save_load_roundtrip(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="s", at=(1,))], seed=11)
        path = tmp_path / "p.json"
        plan.save(path)
        loaded = FaultPlan.from_json(path)
        assert loaded.seed == 11 and loaded.specs == plan.specs

    def test_version_skew_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            FaultPlan.from_dict({"schema_version": 99, "faults": []})


class TestActivation:
    def test_no_plan_is_a_noop(self):
        assert fault_point("anything") is None

    def test_inject_faults_scopes_and_restores(self):
        outer = FaultPlan([FaultSpec(site="o")])
        install_plan(outer)
        inner = FaultPlan([FaultSpec(site="i", action="delay")])
        with inject_faults(inner):
            assert active_plan() is inner
        assert active_plan() is outer

    def test_env_var_inline_json(self, monkeypatch):
        doc = {"schema_version": 1, "faults": [{"site": "s", "action": "delay"}]}
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(doc))
        clear_plan()  # drop any cached env plan
        plan = active_plan()
        assert plan is not None and plan.specs[0].site == "s"
        # Counters persist across calls: the same cached plan is returned.
        assert active_plan() is plan

    def test_env_var_unloadable_raises(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "/nonexistent/plan.json")
        clear_plan()
        with pytest.raises(OSError):
            active_plan()


class TestFaultPointActions:
    def test_error_action_raises_injected_fault(self):
        with inject_faults(FaultPlan([FaultSpec(site="s", action="error")])):
            with pytest.raises(InjectedFault):
                fault_point("s")

    def test_injected_fault_is_oserror(self):
        # Retry policies and store error handling treat injected IO
        # failures exactly like real ones.
        assert issubclass(InjectedFault, OSError)

    def test_cooperative_actions_returned_to_call_site(self):
        spec = FaultSpec(site="s", action="torn-write", fraction=0.25)
        with inject_faults(FaultPlan([spec])):
            assert fault_point("s") is spec

    def test_torn_bytes_fraction(self):
        spec = FaultSpec(site="s", action="torn-write", fraction=0.5)
        assert torn_bytes(spec, b"abcdefgh") == b"abcd"

    def test_injected_fault_survives_pickle(self):
        exc = InjectedFault("sweep/compute", 2)
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, InjectedFault)
        assert clone.site == "sweep/compute"
        assert clone.spec_index == 2
        assert str(clone) == str(exc)


class TestSiteRegistry:
    """Both failure-point tables list exactly the sites the code fires."""

    ROOT = Path(__file__).resolve().parents[2]

    def fired_sites(self) -> set[str]:
        """String literals passed to ``fault_point(`` under ``src/``."""
        sites = set()
        for path in (self.ROOT / "src").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "fault_point"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    sites.add(node.args[0].value)
        return sites

    def test_module_table_matches_fired_sites(self):
        listed = set(re.findall(r"^``([\w/-]+)``", faults.__doc__, re.MULTILINE))
        assert listed == self.fired_sites()

    def test_resilience_doc_table_matches_fired_sites(self):
        doc = (self.ROOT / "docs" / "RESILIENCE.md").read_text()
        table = doc.split("### Failure points", 1)[1].split("\n\n")[1]
        rows = [line.split("|")[1] for line in table.splitlines()[2:]]
        listed = {name for cell in rows for name in re.findall(r"`([\w/-]+)`", cell)}
        assert listed == self.fired_sites()
