"""Tests for the sweep engine: specs, seeding, caching, execution."""

import json
import math
import os

import pytest

from repro.analysis.experiments import figure6_spec
from repro.errors import ConfigurationError
from repro.netsim.stats import StatsSummary
from repro.runner import (
    ResultCache,
    SweepSpec,
    canonical_json,
    code_fingerprint,
    execute_job,
    resolve_jobs,
    run_sweep,
)

SMALL_SPEC_KWARGS = dict(
    n_nodes=16,
    loads=(0.3, 0.7),
    patterns=("transpose",),
    packets_per_node=3,
    networks=("baldur", "ideal"),
    seed=0,
)


def small_spec(**overrides):
    kwargs = {**SMALL_SPEC_KWARGS, **overrides}
    return figure6_spec(**kwargs)


class TestSweepSpec:
    def test_expansion_order_is_row_major(self):
        spec = SweepSpec(
            kind="sensitivity",
            axes={"case": ("a", "b"), "scale": (1, 2)},
        )
        keys = [job.key for job in spec.expand()]
        assert keys == [
            "sensitivity/case=a/scale=1",
            "sensitivity/case=a/scale=2",
            "sensitivity/case=b/scale=1",
            "sensitivity/case=b/scale=2",
        ]

    def test_params_merge_fixed_axes_and_seed(self):
        spec = SweepSpec(
            kind="open_loop", axes={"load": (0.5,)}, fixed={"n_nodes": 8}
        )
        (job,) = spec.expand()
        assert job.params["n_nodes"] == 8
        assert job.params["load"] == 0.5
        assert job.params["seed"] == job.seed

    def test_seed_depends_only_on_root_seed_and_key(self):
        a = {job.key: job.seed for job in small_spec(seed=1).expand()}
        b = {job.key: job.seed for job in small_spec(seed=1).expand()}
        c = {job.key: job.seed for job in small_spec(seed=2).expand()}
        assert a == b
        assert all(a[key] != c[key] for key in a)

    def test_seed_unaffected_by_other_grid_points(self):
        wide = {j.key: j.seed for j in small_spec().expand()}
        narrow = {
            j.key: j.seed for j in small_spec(loads=(0.7,)).expand()
        }
        for key, seed in narrow.items():
            assert wide[key] == seed

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="open_loop", axes={"load": ()})

    def test_axis_fixed_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(
                kind="open_loop", axes={"load": (0.5,)}, fixed={"load": 1}
            )

    def test_reserved_seed_param_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(kind="open_loop", axes={"seed": (1, 2)})


class TestExecutors:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_job("nonesuch", {})

    def test_open_loop_summary_round_trips(self):
        (job,) = small_spec(loads=(0.5,), networks=("ideal",)).expand()
        result = execute_job(job.kind, dict(job.params))
        summary = StatsSummary.from_dict(result)
        # Transpose excludes its fixed points, so 12 of 16 nodes send.
        assert summary.delivered == summary.injected == 12 * 3
        assert summary.average_latency == pytest.approx(200.0)
        assert StatsSummary.from_dict(summary.to_dict()) == summary

    def test_sensitivity_executor(self):
        result = execute_job(
            "sensitivity", {"case": "pessimistic", "scale": 2**20, "seed": 0}
        )
        assert result["fattree"] > 1.0


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_fallback_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)


class TestEngine:
    def test_results_in_expansion_order(self):
        sweep = run_sweep(small_spec())
        assert [o.job.key for o in sweep.outcomes] == [
            job.key for job in small_spec().expand()
        ]

    def test_progress_reports_every_job(self):
        events = []
        sweep = run_sweep(small_spec(), progress=events.append)
        assert len(events) == sweep.report.n_jobs
        assert {e["index"] for e in events} == set(range(len(events)))
        assert all(e["elapsed_s"] >= 0.0 for e in events)

    def test_report_accounts_for_all_jobs(self):
        sweep = run_sweep(small_spec())
        report = sweep.report
        assert report.executed + report.cached == report.n_jobs
        assert len(report.job_times_s) == report.n_jobs
        assert report.sim_time_s >= 0.0
        assert "4 jobs" in report.describe()

    def test_index_nests_by_axes(self):
        sweep = run_sweep(small_spec())
        nested = sweep.index("pattern", "network", "load")
        assert set(nested) == {"transpose"}
        assert set(nested["transpose"]) == {"baldur", "ideal"}
        assert set(nested["transpose"]["ideal"]) == {0.3, 0.7}


class TestCache:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        cold = run_sweep(small_spec(), cache_dir=tmp_path)
        warm = run_sweep(small_spec(), cache_dir=tmp_path)
        assert cold.report.executed == cold.report.n_jobs
        assert warm.report.executed == 0
        assert warm.report.cached == warm.report.n_jobs
        assert warm.to_json() == cold.to_json()

    def test_no_cache_ignores_existing_entries(self, tmp_path):
        run_sweep(small_spec(), cache_dir=tmp_path)
        again = run_sweep(small_spec(), cache_dir=tmp_path, use_cache=False)
        assert again.report.executed == again.report.n_jobs

    def test_different_root_seed_misses(self, tmp_path):
        run_sweep(small_spec(seed=1), cache_dir=tmp_path)
        other = run_sweep(small_spec(seed=2), cache_dir=tmp_path)
        assert other.report.executed == other.report.n_jobs

    def test_corrupted_entry_detected_and_recomputed(self, tmp_path):
        cold = run_sweep(small_spec(), cache_dir=tmp_path)
        entries = sorted(tmp_path.rglob("*.json"))
        assert len(entries) == cold.report.n_jobs
        # Tamper with a result value: the digest no longer matches.
        victim = entries[0]
        entry = json.loads(victim.read_text())
        entry["result"]["delivered"] = 10**9
        victim.write_text(json.dumps(entry, allow_nan=False))
        # Truncate another: not even valid JSON.
        entries[1].write_text(json.dumps(entry, allow_nan=False)[: 40])
        warm = run_sweep(small_spec(), cache_dir=tmp_path)
        assert warm.report.poisoned == 2
        assert warm.report.executed == 2
        assert warm.report.cached == warm.report.n_jobs - 2
        assert warm.to_json() == cold.to_json()
        # The poisoned entries were rewritten: next run is fully warm.
        assert run_sweep(small_spec(), cache_dir=tmp_path).report.executed == 0

    def test_stale_code_version_misses(self, tmp_path):
        spec = small_spec(loads=(0.5,), networks=("ideal",))
        (job,) = spec.expand()
        cache = ResultCache(tmp_path)
        fresh = cache.job_cache_key(job)
        stale = cache.job_cache_key(job, fingerprint="0" * 64)
        assert fresh != stale
        cache.put(stale, job, {"delivered": 1})
        assert cache.get(fresh) is None

    def test_fingerprint_is_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_fingerprint_memo_invalidates_on_source_edit(self, tmp_path):
        # Regression: the fingerprint was once memoized per-process, so a
        # long-lived process (REPL, notebook) that edited code between
        # sweeps would key cache entries on a stale hash.
        mod = tmp_path / "mod.py"
        mod.write_text("X = 1\n")
        os.utime(mod, ns=(1_000_000_000, 1_000_000_000))
        first = code_fingerprint(tmp_path)
        assert code_fingerprint(tmp_path) == first  # memo hit
        # Same-size edit: only the mtime betrays the change.
        mod.write_text("X = 2\n")
        os.utime(mod, ns=(2_000_000_000, 2_000_000_000))
        second = code_fingerprint(tmp_path)
        assert second != first
        # Reverting the content restores the original fingerprint even
        # at a third mtime: the hash is content-based, only the memo
        # keys on stat() data.
        mod.write_text("X = 1\n")
        os.utime(mod, ns=(3_000_000_000, 3_000_000_000))
        assert code_fingerprint(tmp_path) == first

    def test_fingerprint_sees_new_files(self, tmp_path):
        (tmp_path / "a.py").write_text("A = 1\n")
        first = code_fingerprint(tmp_path)
        (tmp_path / "b.py").write_text("B = 2\n")
        assert code_fingerprint(tmp_path) != first

    def test_writes_are_atomic_against_torn_writers(self, tmp_path):
        # A worker killed mid-put leaves a stale .tmp sibling, never a
        # truncated entry: put() writes to a temp file and os.replace()s.
        spec = small_spec(loads=(0.5,), networks=("ideal",))
        (job,) = spec.expand()
        cache = ResultCache(tmp_path)
        key = cache.job_cache_key(job)
        path = cache.entry_path(key)
        # Simulate the dead writer's debris before the real write.
        path.parent.mkdir(parents=True, exist_ok=True)
        torn = path.parent / f"{key}.json.tmp.99999"
        torn.write_text('{"cache_key": "trunca')
        cache.put(key, job, {"delivered": 1})
        entry = json.loads(path.read_text())
        assert entry["result"] == {"delivered": 1}
        assert cache.get(key) == {"delivered": 1}
        # The stale temp file was swept; no .tmp debris remains.
        assert not list(path.parent.glob("*.tmp.*"))


class TestParallel:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_sweep(small_spec(), jobs=1)
        parallel = run_sweep(small_spec(), jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_parallel_populates_shared_cache(self, tmp_path):
        cold = run_sweep(small_spec(), jobs=2, cache_dir=tmp_path)
        warm = run_sweep(small_spec(), jobs=1, cache_dir=tmp_path)
        assert cold.report.executed == cold.report.n_jobs
        assert warm.report.executed == 0
        assert warm.to_json() == cold.to_json()

    def test_pool_unavailable_falls_back_loudly(self, monkeypatch):
        # Satellite regression: the serial fallback used to be silent.
        # Force pool creation to fail and assert every announcement
        # channel fires: RuntimeWarning, structured progress event, and
        # SweepReport.fallback.
        import repro.runner.engine as engine

        def no_pool(workers, n_jobs):
            return None

        monkeypatch.setattr(engine, "_make_pool", no_pool)
        events = []
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            sweep = run_sweep(small_spec(), jobs=2, progress=events.append)
        assert sweep.ok
        assert sweep.report.fallback == "serial"
        assert not sweep.report.parallel
        fallback_events = [e for e in events if e.get("event") == "fallback"]
        assert fallback_events == [{
            "event": "fallback",
            "mode": "serial",
            "reason": "process pool unavailable",
        }]
        assert "[serial fallback]" in sweep.report.describe()
        # Results are unaffected by the degraded execution mode.
        assert sweep.to_json() == run_sweep(small_spec(), jobs=1).to_json()


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == \
            canonical_json({"a": [1.5, 2], "b": 1})

    def test_compact(self):
        assert canonical_json({"a": 1}) == '{"a":1}'

    def test_nonfinite_floats_become_null(self):
        # Python's json emits bare NaN/Infinity tokens by default, which
        # RFC 8259 forbids and strict parsers reject.
        doc = canonical_json({
            "a": float("nan"),
            "b": [1.5, float("inf")],
            "c": (float("-inf"),),
        })
        assert doc == '{"a":null,"b":[1.5,null],"c":[null]}'

    def test_zero_delivery_summary_round_trips_through_json(self):
        from repro.netsim.stats import LatencyStats

        stats = LatencyStats()
        stats.record_injection()  # nothing delivered: NaN latencies
        summary = StatsSummary.from_stats(stats)
        doc = canonical_json(summary.to_dict())
        assert "NaN" not in doc and "null" in doc
        restored = StatsSummary.from_dict(json.loads(doc))
        assert restored.injected == 1
        assert math.isnan(restored.avg_latency_ns)
        assert math.isnan(restored.tail_latency_ns)

    def test_cache_entry_is_strict_rfc8259(self, tmp_path):
        (job,) = small_spec(loads=(0.5,), networks=("ideal",)).expand()
        cache = ResultCache(tmp_path)
        key = cache.job_cache_key(job)
        cache.put(key, job, {"avg_latency_ns": float("nan"), "delivered": 0})
        raw = cache.entry_path(key).read_text()

        def reject(token):
            raise AssertionError(f"non-RFC 8259 token in cache entry: {token}")

        entry = json.loads(raw, parse_constant=reject)
        assert entry["result"]["avg_latency_ns"] is None
        # The self-verifying digest matches the sanitized payload, so the
        # entry reads back as a hit (not poison).
        assert cache.get(key) == {"avg_latency_ns": None, "delivered": 0}
        assert cache.poisoned == 0


class TestCliIntegration:
    def test_fig6_jobs_and_out_are_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        base = [
            "fig6", "--nodes", "16", "--packets", "3",
            "--loads", "0.3", "--seed", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main([*base, "--jobs", "2", "--out", str(out1)]) == 0
        first = capsys.readouterr().out
        assert "# sweep:" in first and "20 jobs" in first
        assert main([*base, "--jobs", "1", "--out", str(out2)]) == 0
        second = capsys.readouterr().out
        assert "0 executed, 20 cached" in second
        assert out1.read_bytes() == out2.read_bytes()

    def test_progress_flag_streams_to_stderr(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "table5", "--nodes", "16", "--packets", "2", "--progress",
        ]) == 0
        captured = capsys.readouterr()
        assert "table5/multiplicity=1" in captured.err
        assert "[5/5]" in captured.err


@pytest.mark.skipif(
    os.environ.get("REPRO_JOBS", "1") == "1",
    reason="parallel-path CI job only",
)
def test_env_jobs_engages_parallel_path():
    """Under REPRO_JOBS>1 (the second CI job) sweeps really fork workers."""
    sweep = run_sweep(small_spec())
    assert sweep.report.workers > 1
    assert sweep.report.parallel
