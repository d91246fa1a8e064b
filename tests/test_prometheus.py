"""Prometheus text exposition: rendering, escaping, linting."""

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.prometheus import (escape_label_value, lint_prometheus,
                                        main, render_prometheus,
                                        sanitize_metric_name)


def _snapshot():
    registry = MetricsRegistry()
    registry.count("serve.jobs.done", 3)
    registry.set_gauge("serve.queue.depth.batch", 2)
    registry.histogram("serve.job.seconds", buckets=(1.0, 2.0, 5.0))
    for value in (0.5, 1.5, 1.8, 9.0):
        registry.observe("serve.job.seconds", value)
    return registry.snapshot()


class TestRender:
    def test_counters_get_total_suffix_and_type(self):
        text = render_prometheus(_snapshot())
        assert "# TYPE repro_serve_jobs_done_total counter" in text
        assert "repro_serve_jobs_done_total 3" in text

    def test_gauges_render_plain(self):
        text = render_prometheus(_snapshot())
        assert "# TYPE repro_serve_queue_depth_batch gauge" in text
        assert "repro_serve_queue_depth_batch 2" in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_prometheus(_snapshot())
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_serve_job_seconds_bucket")]
        values = [float(l.rsplit(" ", 1)[1]) for l in lines]
        assert values == sorted(values)  # monotone by construction
        assert 'le="+Inf"} 4' in lines[-1]
        assert "repro_serve_job_seconds_count 4" in text
        assert "repro_serve_job_seconds_sum" in text

    def test_labels_escaped(self):
        text = render_prometheus(
            _snapshot(), labels={"config": 'o"o\\o\n'})
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert lint_prometheus(text) == []

    def test_rendered_output_lints_clean(self):
        assert lint_prometheus(render_prometheus(_snapshot())) == []

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("serve.queue.depth") == \
            "repro_serve_queue_depth"
        assert sanitize_metric_name("weird-name!") == "repro_weird_name_"

    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


class TestLint:
    def test_sample_without_type_flagged(self):
        errs = lint_prometheus("repro_thing 1\n")
        assert any("TYPE" in e for e in errs)

    def test_duplicate_type_flagged(self):
        text = ("# TYPE repro_x gauge\n# TYPE repro_x gauge\nrepro_x 1\n")
        errs = lint_prometheus(text)
        assert any("duplicate" in e for e in errs)

    def test_unparseable_value_flagged(self):
        text = "# TYPE repro_x gauge\nrepro_x banana\n"
        assert lint_prometheus(text)

    def test_empty_exposition_flagged(self):
        assert lint_prometheus("") == ["no samples in exposition"]

    def test_bucket_suffix_maps_to_family_type(self):
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="+Inf"} 1\n'
                "repro_h_sum 0.5\nrepro_h_count 1\n")
        assert lint_prometheus(text) == []


class TestCliLint:
    def test_main_ok_on_clean_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        path.write_text(render_prometheus(_snapshot()))
        assert main([str(path)]) == 0
        assert "prometheus-lint: OK" in capsys.readouterr().out

    def test_main_fails_on_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.prom"
        path.write_text("no_type_metric 1\n")
        assert main([str(path)]) == 1
        assert capsys.readouterr().err

    def test_main_missing_file_is_usage_error(self, tmp_path):
        assert main([str(tmp_path / "absent.prom")]) == 2


class TestDaemonEndpoint:
    def test_metricsz_prometheus_lints_clean(self, tmp_path):
        import urllib.request

        from repro.serve.daemon import ServeDaemon

        daemon = ServeDaemon(
            str(tmp_path / "queue"), workers=1,
            runner_kwargs=dict(target_ops=300,
                               cache_dir=str(tmp_path / "cache"),
                               run_log=""))
        daemon.start()
        try:
            from repro.serve.client import ServeClient

            client = ServeClient(daemon.url)
            job = client.submit(
                cells=[{"workload": "dotprod", "arch": "ooo", "width": 4}])
            client.wait(job["job_id"], timeout=120)
            url = daemon.url + "/metricsz?format=prometheus"
            with urllib.request.urlopen(url) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain")
                text = response.read().decode()
        finally:
            daemon.stop(timeout=30)
        assert lint_prometheus(text) == []
        assert "repro_serve_jobs_done_total 1" in text
