"""The fleet pipeline: caching tiers, budgets, failures, pinned counters."""

from __future__ import annotations

import json

from repro.audit import (
    ResultCache,
    audit_fleet,
    load_manifest,
    render_audit_text,
    resolve_checkset,
)
from repro.audit.checkset import CheckSet
from tests.audit.conftest import POLICY_CLEAN, POLICY_DIVERGED


def stages_of(report):
    """Per-policy stage payloads, for cold/warm parity assertions."""
    return {result.name: result.stages for result in report.results}


class TestColdRun:
    def test_stages_and_statuses(self, fleet, baseline):
        report = audit_fleet(load_manifest(fleet, baseline=str(baseline)))
        assert report.stats.policies == 2
        assert all(result.status == "ok" for result in report.results)
        by_name = {result.name: result for result in report.results}
        assert by_name["core.fw"].diverged is False
        assert by_name["team-a/edge.fw"].diverged is True
        impact = by_name["team-a/edge.fw"].stages["impact"]
        assert impact["affected_packets"] > 0
        assert impact["packets_by_kind"]["newly blocked"] > 0

    def test_results_in_manifest_order(self, fleet, baseline):
        report = audit_fleet(load_manifest(fleet, baseline=str(baseline)))
        assert [result.name for result in report.results] == [
            "core.fw",
            "team-a/edge.fw",
        ]

    def test_without_baseline_runs_baseline_free_stages_only(self, fleet):
        report = audit_fleet(load_manifest(fleet))
        for result in report.results:
            assert "lint" in result.stages
            assert "simplify" in result.stages
            assert "compare" not in result.stages
            assert result.baseline_path is None

    def test_simplify_stage_payload(self, fleet, baseline):
        report = audit_fleet(load_manifest(fleet, baseline=str(baseline)))
        for result in report.results:
            payload = result.stages["simplify"]
            assert payload["rules_after"] <= payload["rules_before"]
            assert payload["strategy"] in ("slim", "regenerate")
            # The simplify stage's fingerprint is the policy's own
            # semantic fingerprint (equivalence is verified in-stage).
            assert payload["fingerprint"] == result.fingerprint

    def test_simplify_stage_caches_on_source_digest(self, fleet, baseline, tmp_path):
        manifest = load_manifest(fleet, baseline=str(baseline))
        checkset = resolve_checkset("simplify")
        audit_fleet(manifest, checkset=checkset, cache=ResultCache(tmp_path / "c"))
        warm = audit_fleet(
            manifest, checkset=checkset, cache=ResultCache(tmp_path / "c")
        )
        assert warm.stats.fully_cached == warm.stats.policies
        assert warm.stats.fdd_constructions == 0
        for result in warm.results:
            assert result.cached == {"simplify": True}

    def test_on_result_streams_every_policy(self, fleet, baseline):
        seen = []
        audit_fleet(
            load_manifest(fleet, baseline=str(baseline)),
            on_result=lambda result: seen.append(result.name),
        )
        assert sorted(seen) == ["core.fw", "team-a/edge.fw"]

    def test_lint_selection_respected(self, fleet):
        checkset = resolve_checkset("lint=FW001")
        report = audit_fleet(load_manifest(fleet), checkset=checkset)
        for result in report.results:
            assert result.stages["lint"]["checks_run"] == ["FW001"]


class TestCacheTiers:
    def test_warm_run_is_fully_cached_with_zero_constructions(
        self, fleet, baseline, tmp_path
    ):
        manifest = load_manifest(fleet, baseline=str(baseline))
        cold = audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        warm = audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        assert cold.stats.fdd_constructions > 0
        assert warm.stats.fdd_constructions == 0
        assert warm.stats.fully_cached == warm.stats.policies
        assert warm.cache_stats["fingerprint_misses"] == 0
        # Byte-identical stage payloads: cached results ARE the report.
        assert stages_of(cold) == stages_of(warm)

    def test_semantically_equal_rewrite_reuses_entries(
        self, fleet, baseline, tmp_path
    ):
        manifest = load_manifest(fleet, baseline=str(baseline))
        audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        # Reformat core.fw without changing semantics: the source digest
        # changes, so the syntactic stages (lint, simplify) recompute,
        # but the fingerprint resolves compare/impact to their existing
        # entries -- one FDD construction total.
        (fleet / "core.fw").write_text(
            POLICY_CLEAN.replace("any -> accept", "any   ->   accept  # same")
        )
        warm = audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        assert warm.cache_stats["hits"] > 0
        result = next(r for r in warm.results if r.name == "core.fw")
        assert result.status == "ok"
        assert result.stages.keys() == {"lint", "simplify", "compare", "impact"}
        assert result.cached == {
            "lint": False,
            "simplify": False,
            "compare": True,
            "impact": True,
        }

    def test_equivalent_policies_do_not_share_lint_results(self, tmp_path):
        # Two semantically equivalent but textually different policies
        # share compare/impact entries (fingerprint-keyed) yet MUST keep
        # distinct lint payloads: diagnostics name concrete rules/lines.
        root = tmp_path / "fleet"
        root.mkdir()
        (root / "a.fw").write_text(POLICY_CLEAN)
        (root / "b.fw").write_text(
            'firewall "clean" schema=standard\n'
            "src_ip=10.0.0.0/8 -> accept\n"
            "any -> accept\n"
        )
        manifest = load_manifest(root)
        cold = audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        warm = audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        assert stages_of(cold) == stages_of(warm)
        warm_by_name = {r.name: r for r in warm.results}
        a, b = warm_by_name["a.fw"], warm_by_name["b.fw"]
        assert a.fingerprint == b.fingerprint  # equivalent policies...
        assert a.stages["lint"] != b.stages["lint"]  # ...distinct lint

    def test_changed_policy_recomputes_only_itself(self, fleet, baseline, tmp_path):
        manifest = load_manifest(fleet, baseline=str(baseline))
        audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        (fleet / "core.fw").write_text(
            'firewall "clean" schema=standard\n'
            "src_ip=172.16.0.0/12 -> discard\n"
            "any -> accept\n"
        )
        warm = audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        by_name = {result.name: result for result in warm.results}
        assert by_name["team-a/edge.fw"].fully_cached
        assert not by_name["core.fw"].fully_cached
        assert by_name["core.fw"].diverged is True

    def test_version_bump_invalidates_exactly_that_stage(
        self, fleet, baseline, tmp_path
    ):
        manifest = load_manifest(fleet, baseline=str(baseline))
        base = resolve_checkset("all")
        audit_fleet(manifest, checkset=base, cache=ResultCache(tmp_path / "c"))
        bumped = CheckSet(
            stages=base.stages,
            lint_checks=tuple(
                (code, version + 1) for code, version in base.lint_checks
            ),
        )
        warm = audit_fleet(
            manifest, checkset=bumped, cache=ResultCache(tmp_path / "c")
        )
        for result in warm.results:
            # Stale lint entries must NOT be served under the new versions.
            assert result.cached["lint"] is False
            assert result.cached["compare"] is True
            assert result.cached["impact"] is True
        # And the old check set still has its own valid entries.
        again = audit_fleet(
            manifest, checkset=base, cache=ResultCache(tmp_path / "c")
        )
        assert again.stats.fully_cached == again.stats.policies

    def test_corrupt_entry_recomputed_with_identical_payload(
        self, fleet, baseline, tmp_path
    ):
        manifest = load_manifest(fleet, baseline=str(baseline))
        cold = audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        objects = sorted((tmp_path / "c" / "objects").rglob("*.json"))
        victim = objects[0]
        victim.write_text(victim.read_text()[:40])
        cache = ResultCache(tmp_path / "c")
        warm = audit_fleet(manifest, cache=cache)
        assert warm.cache_stats["corrupt"] >= 1
        assert all(result.status == "ok" for result in warm.results)
        assert stages_of(cold) == stages_of(warm)

    def test_missing_impact_entry_rederives_from_cached_compare(
        self, fleet, baseline, tmp_path
    ):
        manifest = load_manifest(fleet, baseline=str(baseline))
        cold = audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        removed = 0
        for path in (tmp_path / "c" / "objects").rglob("*.json"):
            if json.loads(path.read_text())["provenance"]["kind"] == "impact":
                path.unlink()
                removed += 1
        assert removed == 2
        warm = audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        # The impact stage is a pure function of the cached comparison:
        # re-deriving it must not construct any FDD.
        assert warm.stats.fdd_constructions == 0
        assert stages_of(cold) == stages_of(warm)

    def test_cache_is_content_addressed_not_path_addressed(self, tmp_path):
        # A copy of an already-audited policy under a new path is served
        # entirely from cache: the source digest resolves its fingerprint
        # and the stage entries already exist.
        root = tmp_path / "fleet"
        root.mkdir()
        (root / "one.fw").write_text(POLICY_CLEAN)
        audit_fleet(load_manifest(root), cache=ResultCache(tmp_path / "c"))
        (root / "two.fw").write_text(POLICY_CLEAN)
        warm = audit_fleet(load_manifest(root), cache=ResultCache(tmp_path / "c"))
        assert warm.stats.fdd_constructions == 0
        assert warm.stats.fully_cached == 2


class TestBudgetsAndFailures:
    def test_over_budget_policy_reported_and_fleet_continues(self, tmp_path):
        root = tmp_path / "fleet"
        (root / "tiny").mkdir(parents=True)
        (root / "tiny" / "big.fw").write_text(POLICY_DIVERGED)
        (root / "ok.fw").write_text(POLICY_CLEAN)
        manifest_doc = {
            "tenants": {"tiny": {"max_nodes": 1}},
            "policies": [
                {"path": "tiny/big.fw", "tenant": "tiny"},
                {"path": "ok.fw"},
            ],
        }
        manifest_path = root / "fleet.json"
        manifest_path.write_text(json.dumps(manifest_doc))
        report = audit_fleet(load_manifest(manifest_path))
        by_name = {result.name: result for result in report.results}
        assert by_name["tiny/big.fw"].status == "over-budget"
        assert by_name["tiny/big.fw"].guard_spend["nodes_expanded"] >= 1
        assert by_name["ok.fw"].status == "ok"
        assert report.stats.over_budget == 1

    def test_malformed_policy_reported_and_fleet_continues(self, fleet, baseline):
        (fleet / "broken.fw").write_text("firewall schema=standard\nnot a rule\n")
        report = audit_fleet(load_manifest(fleet, baseline=str(baseline)))
        by_name = {result.name: result for result in report.results}
        assert by_name["broken.fw"].status == "error"
        assert by_name["core.fw"].status == "ok"
        assert report.stats.errors == 1

    def test_over_budget_result_is_not_cached(self, tmp_path):
        root = tmp_path / "fleet"
        root.mkdir()
        (root / "big.fw").write_text(POLICY_DIVERGED)
        manifest_path = root / "fleet.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "tenants": {"default": {"max_nodes": 1}},
                    "policies": [{"path": "big.fw"}],
                }
            )
        )
        cache = ResultCache(tmp_path / "c")
        audit_fleet(load_manifest(manifest_path), cache=cache)
        assert cache.entry_count() == 0


class TestSerialRunPins:
    """Exact counters and text of a cold then a warm run, so that changes
    to the serial pipeline cannot move what it reports or caches."""

    DIVERGE = "79228162514264337593543950336 packet(s) diverge"
    COLD_TEXT = (
        "core.fw: 1 finding(s) (0 error(s), 1 warning(s)) baseline: equivalent\n"
        f"team-a/edge.fw: 1 finding(s) (0 error(s), 1 warning(s)) baseline: {DIVERGE}\n"
        "    impact: newly blocked: 79228162514264337593543950336 packet(s)\n"
        "fleet: 2 policies, 2 lint finding(s), 1 diverged, 0 over budget, 0 error(s)\n"
    )

    def test_cold_then_warm(self, fleet, baseline, tmp_path):
        manifest = load_manifest(fleet, baseline=str(baseline))
        assert [entry.tenant for entry in manifest.entries] == ["default", "team-a"]
        cold = audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        # Two policies plus the shared baseline, built once.
        assert cold.stats.to_dict() == {
            "policies": 2,
            "fully_cached": 0,
            "computed": 2,
            "over_budget": 0,
            "errors": 0,
            "fdd_constructions": 3,
        }
        assert cold.cache_stats == {
            "hits": 0,
            "misses": 8,
            "stores": 8,
            "corrupt": 0,
            "evictions": 0,
            "fingerprint_hits": 0,
            "fingerprint_misses": 4,
            "entries": 8,
        }
        assert render_audit_text(cold) == self.COLD_TEXT + (
            "cache: 0 hit(s), 8 miss(es), 8 store(s), 0 corrupt,"
            " 3 FDD construction(s)\n"
        )

        warm = audit_fleet(manifest, cache=ResultCache(tmp_path / "c"))
        assert warm.stats.to_dict() == {
            "policies": 2,
            "fully_cached": 2,
            "computed": 0,
            "over_budget": 0,
            "errors": 0,
            "fdd_constructions": 0,
        }
        assert warm.cache_stats == {
            "hits": 8,
            "misses": 0,
            "stores": 0,
            "corrupt": 0,
            "evictions": 0,
            "fingerprint_hits": 4,
            "fingerprint_misses": 0,
            "entries": 8,
        }
        warm_text = self.COLD_TEXT.replace(" equivalent\n", " equivalent [cached]\n")
        warm_text = warm_text.replace(" diverge\n", " diverge [cached]\n")
        assert render_audit_text(warm) == warm_text + (
            "cache: 8 hit(s), 0 miss(es), 0 store(s), 0 corrupt,"
            " 0 FDD construction(s)\n"
        )
