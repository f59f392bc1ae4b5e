"""The failpoint registry and plan model (``repro.faultinject``).

The contract under test: injection is a zero-cost no-op until a plan is
configured; with a plan, faults fire *deterministically* — the per-site
RNG is SHA-256 over (seed, site, key), so the same plan and seed fire
on the same payloads whatever the interleaving — and every fired fault
is recorded for replay forensics.
"""

import errno
import json

import pytest

from repro.exceptions import FaultPlanError
from repro.faultinject import (
    FAILPOINT_SITES,
    InjectedFault,
    active_plan,
    configure,
    configure_from_env,
    deconfigure,
    derive_unit,
    failpoint,
    fired_faults,
    hit_counts,
    is_active,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    set_worker,
)

SITE = "worker.execute"


@pytest.fixture(autouse=True)
def injection_off():
    """Every test starts and ends with injection disabled."""
    deconfigure()
    yield
    deconfigure()


def make_plan(*triggers, seed=7):
    return plan_from_dict({"seed": seed, "triggers": list(triggers)})


class TestDeriveUnit:
    def test_uniform_range_and_determinism(self):
        draws = {derive_unit(7, SITE, token) for token in range(200)}
        assert all(0.0 <= value < 1.0 for value in draws)
        assert len(draws) == 200  # no collisions on distinct tokens
        assert derive_unit(7, SITE, "abc") == derive_unit(7, SITE, "abc")

    def test_seed_site_and_token_all_matter(self):
        base = derive_unit(7, SITE, "abc")
        assert derive_unit(8, SITE, "abc") != base
        assert derive_unit(7, "store.append.write", "abc") != base
        assert derive_unit(7, SITE, "abd") != base

    def test_draw_is_pinned_across_versions(self):
        # Fault plans replay the same faults on any machine: the
        # SHA-256 derivation may never drift.
        assert derive_unit(7, "store.append.write", "abc") == 0.8992111134973639


class TestPlanValidation:
    def test_unknown_site_rejected_when_strict(self):
        with pytest.raises(FaultPlanError, match="unknown site"):
            make_plan({"site": "no.such.site", "action": "raise", "nth": 1})

    def test_unknown_site_allowed_when_lenient(self):
        plan = plan_from_dict(
            {"triggers": [{"site": "bench.x", "action": "raise", "nth": 1}]},
            strict=False,
        )
        assert plan.sites() == {"bench.x"}

    def test_unknown_action_rejected(self):
        with pytest.raises(FaultPlanError, match="action"):
            make_plan({"site": SITE, "action": "explode", "nth": 1})

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fields"):
            make_plan({"site": SITE, "action": "raise", "when": "always"})

    def test_unconditional_trigger_rejected(self):
        with pytest.raises(FaultPlanError, match="every hit"):
            make_plan({"site": SITE, "action": "raise"})

    def test_probability_bounds(self):
        with pytest.raises(FaultPlanError, match="probability"):
            make_plan({"site": SITE, "action": "raise", "probability": 1.5})
        with pytest.raises(FaultPlanError, match="probability"):
            make_plan({"site": SITE, "action": "raise", "probability": 0.0})

    def test_unknown_errno_rejected(self):
        with pytest.raises(FaultPlanError, match="errno"):
            make_plan(
                {"site": SITE, "action": "raise", "nth": 1, "errno": "EBOGUS"}
            )

    def test_unknown_exception_rejected(self):
        with pytest.raises(FaultPlanError, match="exception"):
            make_plan(
                {
                    "site": SITE,
                    "action": "raise",
                    "nth": 1,
                    "exception": "NotAClass",
                }
            )

    def test_fraction_and_limit_bounds(self):
        with pytest.raises(FaultPlanError, match="fraction"):
            make_plan(
                {
                    "site": SITE,
                    "action": "torn_write",
                    "nth": 1,
                    "fraction": 1.0,
                }
            )
        with pytest.raises(FaultPlanError, match="limit"):
            make_plan({"site": SITE, "action": "raise", "nth": 1, "limit": 0})

    def test_round_trip(self):
        plan = make_plan(
            {"site": SITE, "action": "raise", "nth": 2, "errno": "ENOSPC"},
            {
                "site": "store.append.write",
                "action": "torn_write",
                "probability": 0.4,
                "fraction": 0.3,
                "limit": 2,
            },
        )
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_load_plan_bad_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            load_plan(path)

    def test_seed_override(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 1,
                    "triggers": [{"site": SITE, "action": "raise", "nth": 1}],
                }
            )
        )
        assert load_plan(path).seed == 1
        assert load_plan(path, seed=99).seed == 99

    def test_catalog_documents_every_site(self):
        assert len(FAILPOINT_SITES) >= 14
        assert all(description for description in FAILPOINT_SITES.values())


class TestRuntime:
    def test_disabled_is_noop(self):
        assert failpoint(SITE, key="anything") is None
        assert not is_active()
        assert hit_counts() == {}
        assert fired_faults() == []

    def test_nth_hit_fires_exactly_once(self):
        configure(make_plan({"site": SITE, "action": "raise", "nth": 2}))
        assert failpoint(SITE) is None
        with pytest.raises(InjectedFault):
            failpoint(SITE)
        assert failpoint(SITE) is None
        assert hit_counts() == {SITE: 3}
        assert len(fired_faults()) == 1

    def test_raise_carries_errno(self):
        configure(
            make_plan(
                {"site": SITE, "action": "raise", "nth": 1, "errno": "ENOSPC"}
            )
        )
        with pytest.raises(InjectedFault) as caught:
            failpoint(SITE)
        assert caught.value.errno == errno.ENOSPC

    def test_raise_named_exception_class(self):
        configure(
            make_plan(
                {
                    "site": SITE,
                    "action": "raise",
                    "nth": 1,
                    "exception": "RuntimeError",
                }
            )
        )
        with pytest.raises(RuntimeError):
            failpoint(SITE)

    def test_probability_is_keyed_and_deterministic(self):
        trigger = {"site": SITE, "action": "raise", "probability": 0.5}
        keys = [f"digest-{index}" for index in range(50)]
        expected = {
            key for key in keys if derive_unit(7, SITE, key) < 0.5
        }
        assert 0 < len(expected) < 50  # the seed splits the keys

        def observed():
            configure(make_plan(trigger))
            fired = set()
            for key in keys:
                try:
                    if failpoint(SITE, key=key) is not None:
                        fired.add(key)
                except InjectedFault:
                    fired.add(key)
            return fired

        first = observed()
        # Same plan, same keys, shuffled order: the same faults fire.
        assert first == expected
        configure(make_plan(trigger))
        for key in reversed(keys):
            try:
                failpoint(SITE, key=key)
            except InjectedFault:
                pass
        assert {
            entry["key"] for entry in fired_faults()
        } == expected

    def test_keyed_trigger_fires_once_per_key(self):
        # The retry that follows a keyed fault must heal.
        configure(
            make_plan({"site": SITE, "action": "raise", "probability": 1.0})
        )
        with pytest.raises(InjectedFault):
            failpoint(SITE, key="abc")
        assert failpoint(SITE, key="abc") is None
        with pytest.raises(InjectedFault):
            failpoint(SITE, key="other")

    def test_limit_caps_total_fires(self):
        configure(
            make_plan(
                {
                    "site": SITE,
                    "action": "raise",
                    "probability": 1.0,
                    "limit": 2,
                }
            )
        )
        for key in ("a", "b"):
            with pytest.raises(InjectedFault):
                failpoint(SITE, key=key)
        assert failpoint(SITE, key="c") is None

    def test_worker_pattern_gates_firing(self):
        trigger = {
            "site": SITE,
            "action": "raise",
            "probability": 1.0,
            "worker": "chaos-*",
        }
        configure(make_plan(trigger), worker="steady-1")
        assert failpoint(SITE, key="x") is None
        set_worker("chaos-r0-w1")
        with pytest.raises(InjectedFault):
            failpoint(SITE, key="x")

    def test_sleep_returns_none(self):
        configure(
            make_plan(
                {"site": SITE, "action": "sleep", "nth": 1, "seconds": 0.0}
            )
        )
        assert failpoint(SITE) is None
        assert fired_faults()[0]["action"] == "sleep"

    def test_torn_write_fault_handle(self):
        configure(
            make_plan(
                {
                    "site": SITE,
                    "action": "torn_write",
                    "nth": 1,
                    "fraction": 0.25,
                }
            )
        )
        fault = failpoint(SITE, key="abc")
        assert fault is not None and fault.kind == "torn_write"
        payload = "x" * 100 + "\n"
        torn = fault.apply_text(payload)
        assert torn == payload[: int(len(payload) * 0.25)]
        assert fault.error().errno == errno.EIO

    def test_corrupt_fault_is_json_invalid(self):
        configure(
            make_plan({"site": SITE, "action": "corrupt", "nth": 1})
        )
        fault = failpoint(SITE, key="abc")
        line = json.dumps({"digest": "abc", "record": {"value": 1}}) + "\n"
        mangled = fault.apply_text(line)
        assert len(mangled) == len(line)
        assert "\x00" in mangled
        assert mangled.endswith("\n")
        with pytest.raises(json.JSONDecodeError):
            json.loads(mangled)

    def test_fired_log_is_appended_jsonl(self, tmp_path):
        log = tmp_path / "faults.jsonl"
        configure(
            make_plan({"site": SITE, "action": "raise", "probability": 1.0}),
            worker="w0",
            log_path=log,
        )
        with pytest.raises(InjectedFault):
            failpoint(SITE, key="abc")
        entries = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert entries[0]["site"] == SITE
        assert entries[0]["key"] == "abc"
        assert entries[0]["worker"] == "w0"

    def test_deconfigure_restores_noop(self):
        configure(
            make_plan({"site": SITE, "action": "raise", "probability": 1.0})
        )
        assert is_active() and active_plan() is not None
        deconfigure()
        assert failpoint(SITE, key="abc") is None

    def test_configure_from_env(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "triggers": [
                        {"site": SITE, "action": "raise", "nth": 1}
                    ],
                }
            )
        )
        assert configure_from_env({}) is None
        assert not is_active()
        runtime = configure_from_env(
            {
                "REPRO_FAULT_PLAN": str(path),
                "REPRO_FAULT_SEED": "42",
                "REPRO_FAULT_WORKER": "w7",
            }
        )
        assert runtime is not None
        assert active_plan().seed == 42
        assert runtime.worker == "w7"
