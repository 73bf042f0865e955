"""Metric-name contract: the wired system vs METRICS_SCHEMA.json."""

import inspect
from pathlib import Path

from repro.obs import instruments
from repro.obs.instruments import FAMILIES
from repro.obs.schema import (
    SCHEMA_FILENAME,
    bootstrap_registry,
    diff_schema,
    load_schema,
    registry_families,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class TestDiffSchema:
    def test_identical_is_clean(self):
        families = {"a_total": "counter", "b_seconds": "histogram"}
        assert diff_schema(families, dict(families)) == ([], [], [])

    def test_missing_and_unexpected(self):
        expected = {"a_total": "counter", "gone_total": "counter"}
        actual = {"a_total": "counter", "new_total": "counter"}
        missing, unexpected, mismatched = diff_schema(expected, actual)
        assert missing == ["gone_total"]
        assert unexpected == ["new_total"]
        assert mismatched == []

    def test_kind_mismatch(self):
        missing, unexpected, mismatched = diff_schema(
            {"a": "counter"}, {"a": "gauge"}
        )
        assert missing == [] and unexpected == []
        assert mismatched == ["a: schema says counter, registry says gauge"]


class TestCheckedInSchema:
    def test_no_drift_against_live_registry(self, fresh_registry):
        # The tier-1 twin of scripts/check_metrics_schema.py: boot the
        # miniature fully-wired system and require an exact name/kind match
        # with the committed contract.
        schema_path = REPO_ROOT / SCHEMA_FILENAME
        assert schema_path.exists(), "METRICS_SCHEMA.json missing from repo root"
        expected = load_schema(schema_path)
        actual = registry_families(bootstrap_registry())
        missing, unexpected, mismatched = diff_schema(expected, actual)
        assert not missing, f"schema families not emitted: {missing}"
        assert not unexpected, f"unregistered families emitted: {unexpected}"
        assert not mismatched, f"metric kinds drifted: {mismatched}"

    def test_bootstrap_covers_all_layers(self, fresh_registry):
        families = registry_families(bootstrap_registry())
        # One representative family per subsystem: allocator, network,
        # outage monitor, service.
        assert families["repro_admission_allocate_seconds"] == "histogram"
        assert families["repro_network_link_occupancy"] == "gauge"
        assert families["repro_outage_empirical_rate"] == "gauge"
        assert families["repro_service_events_total"] == "counter"


def build_every_facade():
    return (
        instruments.admission_instruments(),
        instruments.service_instruments(),
        instruments.cluster_instruments(),
        instruments.experiment_instruments(),
        instruments.outage_monitor(),
    )


def preset_labels(family):
    """The table's preset column as label dicts, one per child."""
    for values in family.preset:
        values = (values,) if isinstance(values, str) else values
        yield dict(zip(family.labels, values))


class TestFamilyTable:
    """What one declaration per family makes checkable."""

    def test_schema_file_is_the_name_kind_projection(self):
        table = {name: family.kind for name, family in FAMILIES.items()}
        assert table == load_schema(REPO_ROOT / SCHEMA_FILENAME)

    def test_live_label_names_equal_the_table(self, fresh_registry):
        for family in bootstrap_registry().families():
            declared = set(FAMILIES[family.name].labels)
            for items in family.children:
                assert {key for key, _ in items} == declared, (family.name, items)

    def test_presets_exist_at_zero_before_any_traffic(self, fresh_registry):
        build_every_facade()
        expected = 0
        for name, family in FAMILIES.items():
            for labels in preset_labels(family):
                child = fresh_registry.get(name, **labels)
                assert child is not None, (name, labels)
                zero = child.count if family.kind == "histogram" else child.value
                assert zero == 0, (name, labels)
                expected += 1
        # ... and nothing but the presets: building a facade is not traffic.
        live = sum(len(family.children) for family in fresh_registry.families())
        assert live == expected

    def test_disabled_facades_accept_every_live_method(self, fresh_registry):
        live = build_every_facade()
        registry = instruments.reset_global_registry()
        instruments.configure(enabled=False)
        for facade, null in zip(live, build_every_facade()):
            assert type(null) is not type(facade)
            for name, member in inspect.getmembers(type(facade), inspect.isfunction):
                if name.startswith("_"):
                    continue
                # Every parameter filled with a string: a no-op must not
                # care, and a missing no-op twin is an AttributeError.
                arity = len(inspect.signature(member).parameters) - 1
                getattr(null, name)(*["x"] * arity)
        assert list(registry.families()) == []
