"""Service-layer telemetry: metrics endpoint, latency summary, top view."""

import json

from repro.abstractions import HomogeneousSVC
from repro.manager.network_manager import NetworkManager
from repro.service.client import ServiceClient
from repro.service.concurrency import (
    OUTCOME_ADMITTED,
    OUTCOME_REJECTED,
    AdmissionService,
    LatencyWindow,
)
from repro.service.top import render_top
from repro.topology import TINY_SPEC, build_datacenter
from tests.service.conftest import served_front_door


def tiny_service():
    return AdmissionService(
        NetworkManager(build_datacenter(TINY_SPEC), epsilon=0.05), workers=2
    )


class TestLatencyWindow:
    def test_empty_summary_is_json_safe(self):
        summary = LatencyWindow(maxlen=16).summary()
        assert summary["count"] == 0
        assert summary["window"] == 0
        assert summary["window_limit"] == 16
        for key in ("mean_ms", "p50_ms", "p90_ms", "p99_ms"):
            assert summary[key] == 0.0
        json.dumps(summary)

    def test_single_sample_summary(self):
        window = LatencyWindow(maxlen=16)
        window.observe(0.010)
        summary = window.summary()
        assert summary["count"] == 1 and summary["window"] == 1
        assert summary["p50_ms"] == summary["p99_ms"] == 10.0
        assert summary["mean_ms"] == 10.0

    def test_bad_samples_are_clamped(self):
        window = LatencyWindow(maxlen=16)
        window.observe(float("nan"))
        window.observe(-5.0)
        summary = window.summary()
        assert summary["p99_ms"] == 0.0 and summary["mean_ms"] == 0.0
        json.dumps(summary)

    def test_window_caveat_fields_expose_truncation(self):
        window = LatencyWindow(maxlen=4)
        for k in range(10):
            window.observe(k / 1000.0)
        summary = window.summary()
        assert summary["count"] == 10  # lifetime
        assert summary["window"] == 4  # percentile basis
        assert summary["window_limit"] == 4


class TestServiceMetricsEndpoint:
    def test_metrics_payload_is_json_clean_and_mirrors_counters(
        self, fresh_registry
    ):
        with tiny_service() as service:
            ticket = service.submit(HomogeneousSVC(n_vms=3, mean=80.0, std=30.0))
            assert ticket.outcome == OUTCOME_ADMITTED
            oversize = service.submit(
                HomogeneousSVC(
                    n_vms=service.manager.state.total_slots + 1, mean=10.0, std=1.0
                )
            )
            assert oversize.outcome == OUTCOME_REJECTED
            payload = service.metrics()
        decoded = json.loads(json.dumps(payload))
        snapshot = decoded["metrics"]
        by_event = {
            entry["labels"]["event"]: entry["value"]
            for entry in snapshot["repro_service_events_total"]["series"]
        }
        assert by_event["submitted"] == 2
        assert by_event["admitted"] == 1
        assert by_event["rejected"] == 1
        latency = snapshot["repro_service_admission_latency_seconds"]["series"][0]
        assert latency["value"]["count"] == 2
        text = decoded["prometheus"]
        assert 'repro_service_events_total{event="admitted"} 1' in text
        assert "repro_service_uptime_seconds" in text
        assert "repro_network_tenants 1" in text
        assert "repro_outage_link_seconds_total" in text

    def test_tcp_roundtrip_serves_metrics(self, fresh_registry):
        with tiny_service() as service:
            with served_front_door(service) as port:
                with ServiceClient(host="127.0.0.1", port=port) as client:
                    client.submit(HomogeneousSVC(n_vms=2, mean=50.0, std=20.0))
                    payload = client.metrics()
        assert "repro_service_events_total" in payload["metrics"]
        assert payload["prometheus"].startswith("# ")


class TestRenderTop:
    def test_frame_contains_all_sections(self, fresh_registry):
        with tiny_service() as service:
            service.submit(HomogeneousSVC(n_vms=3, mean=80.0, std=30.0))
            stats = service.stats()
            metrics = service.metrics()["metrics"]
        frame = render_top(stats, metrics)
        assert "svc-repro top — mode=online workers=2" in frame
        assert "requests submitted=1  admitted=1" in frame
        assert "machine" in frame  # per-level occupancy table
        assert "headroom" in frame
        assert "latency(ms)" in frame and "(window 1/" in frame
        assert "empirical outage rate" in frame

    def test_frame_degrades_without_metrics(self):
        # A server run with --no-metrics returns an empty snapshot; the
        # dashboard must still render the stats-only sections.
        stats = {
            "mode": "online",
            "workers": 4,
            "uptime_s": 12.0,
            "counters": {"submitted": 0},
            "queue": {"ready": 0, "parked": 0},
            "admission_latency": {},
            "occupancy": {"by_level": []},
            "slots": {},
        }
        frame = render_top(stats, {})
        assert "svc-repro top — mode=online workers=4" in frame
        assert "empirical outage" not in frame
