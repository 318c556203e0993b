"""Tests for repro.obs.htmlreport — the self-contained flight-deck
artifact.

The page must be deterministic for a given report (CI artifact diffs),
carry its machine-readable twin in the ``#metrics`` script block, and
stay a single self-contained file (no external assets).
"""

import json
import re

from repro import par
from repro.obs.htmlreport import render_html_report, write_html_report
from repro.obs.telemetry import grid_metrics_summary


def _report():
    return par.run_conformance_parallel("dfm", seeds=[0], workers=1)


class TestRenderHtmlReport:
    def test_page_structure(self):
        report = _report()
        html = render_html_report(report)
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")
        assert "Grid flight deck" in html
        assert "dfm" in html
        # one row per cell plus the header
        assert html.count('class="outcome-conforms"') == \
            len(report.cases)

    def test_no_external_assets(self):
        html = render_html_report(_report())
        assert "http://" not in html and "https://" not in html
        assert "<link" not in html and "src=" not in html

    def test_deterministic_for_same_report(self):
        report = _report()
        assert render_html_report(report) == \
            render_html_report(report)

    def test_embedded_metrics_json_parses(self):
        report = _report()
        summary = grid_metrics_summary(report)
        html = render_html_report(report, metrics_summary=summary,
                                  meta={"scenario": "dfm"})
        m = re.search(
            r'<script type="application/json" id="metrics">\n'
            r"(.*?)\n</script>", html, re.S)
        assert m, "metrics script block missing"
        doc = json.loads(m.group(1).replace("<\\/", "</"))
        assert doc["counters"]["grid.cells"] == len(report.cases)
        assert doc["meta"]["scenario"] == "dfm"

    def test_script_block_is_inert(self):
        # `</` inside the JSON must be escaped or it would close the
        # script element mid-payload
        report = _report()
        html = render_html_report(
            report, metrics_summary={"weird</script>": 1})
        inner = html.split('id="metrics">')[1]
        payload = inner.split("</script>")[0]
        assert "</" not in payload.replace("<\\/", "")

    def test_final_status_table(self):
        from repro.obs.telemetry import FleetStatus

        status = FleetStatus(total=3, scenario="dfm")
        status.on_complete("conforms", 0.1)
        html = render_html_report(_report(),
                                  status=status.snapshot())
        assert "Final status" in html
        assert "trace_records" in html

    def test_histogram_bars(self):
        report = _report()
        summary = grid_metrics_summary(report)
        html = render_html_report(report, metrics_summary=summary)
        if any(isinstance(v, dict) and "buckets" in v
               for v in summary.values()):
            assert 'class="bar"' in html
            assert "p50" in html

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "r.html"
        text = write_html_report(_report(), str(path))
        assert path.read_text(encoding="utf-8") == text


class _HostileCase:
    plan = "<b>bold-plan</b>"
    seed = 7
    outcome = "conforms"
    elapsed_s = 0.001
    schedule = None


class _HostileReport:
    network = '<script>alert("net")</script>'
    cases = [_HostileCase()]
    genuine_failures = []
    cached_cases = []
    fleet_stats = {}
    wall_clock_s = 0.0


class TestHostileNames:
    """Scenario/plan/channel names are user-controlled strings; none
    of them may reach the page as live markup."""

    def test_names_are_escaped_everywhere(self):
        html = render_html_report(
            _HostileReport(),
            meta={"scenario": "<i>sly</i>"})
        assert "<b>bold-plan</b>" not in html
        assert "&lt;b&gt;bold-plan&lt;/b&gt;" in html
        assert '<script>alert("net")</script>' not in html
        assert "<i>sly</i>" not in html
        # the only script element is the (absent) metrics block
        assert html.count("<script") == 0

    def test_hostile_metric_names_stay_out_of_markup(self):
        summary = {
            "chan.<b>wire</b>.depth": 3,
            "evil</script><b>boom": {"buckets": {"0": 1}, "count": 1,
                                     "total": 1.0, "min": 1, "max": 1,
                                     "mean": 1.0},
        }
        html = render_html_report(_HostileReport(),
                                  metrics_summary=summary)
        assert "<b>wire</b>" not in html
        assert "<b>boom" not in html
        # exactly one script element: the inert metrics block
        assert html.count("<script") == 1

    def test_json_blob_neutralized_but_lossless(self):
        summary = {"evil</script><b>x": 1}
        html = render_html_report(_HostileReport(),
                                  metrics_summary=summary)
        payload = html.split('id="metrics">')[1].split("</script>")[0]
        assert "<" not in payload
        doc = json.loads(payload)
        # <-escaping round-trips to the exact original name
        assert doc["counters"]["evil</script><b>x"] == 1
