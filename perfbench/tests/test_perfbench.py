"""Tests of the benchmark's own code.

Run from the checkout root: ``python -m pytest perfbench/tests -q``.
"""

import json
import math
import multiprocessing
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.bench import (
    METRIC_NAME,
    _Checks,
    bench_fingerprint,
    digest_path,
    load_manifest,
    nearest_rank,
    run,
)
from perfbench.hostspeed import BURST, REF_PROBE_S, HostSpeed
from perfbench.instrument import Instrument
from perfbench.spans import (
    NO_PARENT,
    Span,
    SpanRecorder,
    cell_self_shares,
    self_times,
)
from perfbench.workloads import (
    TABLE5_ERR_CAP,
    TINY,
    WORKLOADS,
    Iteration,
    table5_drop_err,
)

REPO = Path(__file__).resolve().parents[2]
UNIT = r"[A-Za-z0-9_/%.-]{1,16}"


def test_manifest_names_follow_the_grammar():
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in manifest[section]:
            names.append(metric["name"])
            assert re.fullmatch(UNIT, metric["unit"])
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.match(name) for name in names)
    assert sorted(names[:3]) == sorted(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in manifest["end_to_end"])


@pytest.mark.parametrize("bad", ["", ".sim", "a b", "x" * 65, "sim/run", "\u00e9"])
def test_metric_name_grammar_rejects(bad):
    assert not METRIC_NAME.match(bad)


def test_nearest_rank():
    values = [float(v) for v in range(1, 121)]
    assert nearest_rank(values, 50) == 60.0
    assert nearest_rank(values, 90) == 108.0
    assert nearest_rank([3.0], 90) == 3.0


def _tree(*rows):
    return [Span(name, start, end, parent, "c") for name, start, end, parent
            in rows]


def test_self_times_of_a_nested_tree():
    spans = _tree(
        ("cell", 0.0, 10.0, NO_PARENT),
        ("zoo.build", 1.0, 4.0, 0),
        ("netsim.run", 5.0, 9.0, 0),
        ("sim.run", 6.0, 7.5, 2),
    )
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.5])
    assert sum(self_times(spans)) == pytest.approx(10.0)
    # 3 s of the 10 s cell lie outside zoo.build and netsim.run.
    assert cell_self_shares(spans) == [("c", pytest.approx(0.3))]


def test_self_times_count_overlapping_children_once():
    overlapping = _tree(
        ("cell", 0.0, 10.0, NO_PARENT),
        ("a", 1.0, 5.0, 0),
        ("b", 4.0, 8.0, 0),
    )
    # The parent loses only the union (7 s) of its children.
    assert self_times(overlapping) == pytest.approx([3.0, 4.0, 4.0])
    escaping = _tree(("cell", 0.0, 5.0, NO_PARENT), ("a", 3.0, 7.0, 0))
    assert self_times(escaping) == pytest.approx([3.0, 4.0])


def test_a_cell_outside_every_layer_span_is_all_self_time():
    rec = SpanRecorder()
    rec.cell = "1:bare"
    rec.close(rec.open("cell"))
    assert cell_self_shares(rec.spans) == [("1:bare", pytest.approx(1.0))]


def test_recorder_nests_and_rejects_out_of_order_close():
    rec = SpanRecorder()
    outer = rec.open("cell")
    inner = rec.open("sim.run")
    assert rec.current() == "sim.run"
    rec.close(inner)
    rec.close(outer)
    assert [s.parent for s in rec.spans] == [NO_PARENT, outer]
    assert sum(self_times(rec.spans)) == pytest.approx(rec.spans[0].duration)
    first = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(first)


@pytest.mark.parametrize("where", ["open", "close"])
def test_a_probe_inside_the_recorder_leaves_every_span_closed(
    where, monkeypatch
):
    # The probe's SIGALRM handler runs between any two bytecodes, also
    # while the recorder is opening or closing the span it interrupts.
    rec = SpanRecorder()
    host = HostSpeed(rec)
    fired = []

    def tick():
        if not fired:
            fired.append(True)
            host._tick(signal.SIGALRM, None)

    if where == "open":
        class InterruptedSpan(Span):
            def __init__(self, *args):
                tick()
                super().__init__(*args)

        monkeypatch.setattr("perfbench.spans.Span", InterruptedSpan)
        outer = rec.open("runner.journal")
    else:
        outer = rec.open("runner.journal")
        monkeypatch.setattr("perfbench.spans.perf_counter",
                            lambda: (tick(), time.perf_counter())[1])
    rec.close(outer)
    assert fired and len(host.samples) == 1
    assert rec.spans[outer].name == "runner.journal"
    assert all(span.end >= span.start > 0 for span in rec.spans)
    assert min(self_times(rec.spans)) >= 0
    assert rec.current() == ""


def _current(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


@pytest.mark.parametrize("traced", [False, True])
def test_every_patch_is_restored(traced):
    inst = Instrument(traced)
    with pytest.raises(KeyError), inst.installed():
        patches = inst.patched()
        assert patches
        for owner, attr, original in patches:
            assert _current(owner, attr) is not original
        raise KeyError("a failing workload still restores")
    assert inst.patched() == []
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, attr
    if traced:
        patched_names = {attr for _, attr, _ in patches}
        assert {"run", "execute_job", "build_network", "run_sharded",
                "from_stats", "__init__"} <= patched_names


def test_digest_mismatch_counts_as_failure(tmp_path):
    checks = _Checks()
    first, second = Iteration(), Iteration()
    first.cells["k"] = {"delivered": 1}
    second.cells["k"] = {"delivered": 2}
    checks.add(first, "first")
    checks.add(second, "repeat 2")
    assert checks.attempted == 2
    assert checks.failed == 1

    stored = tmp_path / "digests.json"
    checks.against_earlier_runs(stored)
    later = _Checks()
    later.add(second, "first")
    later.against_earlier_runs(stored)
    assert later.failed == 1


def test_failed_counts_cell_executions_not_messages(tmp_path):
    checks = _Checks()
    broken = Iteration(failures={"k": "conservation"})
    checks.count(broken, "warm-up")
    good, other = Iteration(), Iteration()
    good.cells["k"] = {"delivered": 1}
    other.cells["k"] = {"delivered": 2}
    checks.add(good, "repeat 1")
    checks.add(other, "repeat 2")
    # repeat 2 differs from repeat 1 and from an earlier run's digest.
    stored = tmp_path / "digests.json"
    stored.write_text(json.dumps({"k": "0" * 64}, allow_nan=False))
    checks.against_earlier_runs(stored)
    checks.fail(None, "trace.unattributed_pct 9 exceeds 5")
    assert len(checks.failures) == 4
    assert checks.attempted == 3
    assert checks.failed == 3


def test_digest_store_is_keyed_by_the_benchmark_sources(tmp_path):
    source = tmp_path / "perfbench"
    shutil.copytree(REPO / "perfbench", source,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    before = digest_path(tmp_path, "baldur_4k", 0, TINY, source)
    workloads = source / "workloads.py"
    text = workloads.read_text()
    assert "BIG_LOAD = 0.7" in text
    workloads.write_text(text.replace("BIG_LOAD = 0.7", "BIG_LOAD = 0.6"))
    after = digest_path(tmp_path, "baldur_4k", 0, TINY, source)
    assert before != after
    assert bench_fingerprint(source) != bench_fingerprint(REPO / "perfbench")

    # New inputs give new digests; stored old ones are not compared.
    old, new = Iteration(), Iteration()
    old.cells["k"] = {"load": 0.7}
    new.cells["k"] = {"load": 0.6}
    earlier = _Checks()
    earlier.add(old, "repeat 1")
    earlier.against_earlier_runs(before)
    later = _Checks()
    later.add(new, "repeat 1")
    later.against_earlier_runs(after)
    assert later.failures == []


def test_table5_error_covers_rows_without_drops():
    rows = [
        {"paper_drop_rate_pct": 2.0, "drop_rate_pct": 4.0},
        {"paper_drop_rate_pct": 1.0, "drop_rate_pct": 0.5},
        {"paper_drop_rate_pct": None, "drop_rate_pct": 3.0},
    ]
    assert table5_drop_err(rows) == pytest.approx(2.0)
    rows.append({"paper_drop_rate_pct": 0.02, "drop_rate_pct": 0.0})
    assert table5_drop_err(rows) == pytest.approx(
        (2.0 * 2.0 * TABLE5_ERR_CAP) ** (1 / 3)
    )
    assert table5_drop_err([]) is None


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_host_speed_probes_here_and_in_forked_children():
    host = HostSpeed()
    with host.sampling():
        _spin(0.3)
        ticks = len(host.samples) - BURST
        assert ticks >= 2
        with host.in_children():
            held = len(host.samples)
            child = multiprocessing.get_context("fork").Process(
                target=_spin, args=(0.4,)
            )
            child.start()
            child.join()
            assert child.exitcode == 0
            _spin(0.1)
            assert len(host.samples) == held
    assert len(host.samples) >= ticks + 2 * BURST
    assert host.child_probes >= 2
    slow = host.slowdown()
    assert 0.05 < slow < 50
    assert slow == pytest.approx(
        (sum(host.samples) + host.child_s)
        / (len(host.samples) + host.child_probes) / REF_PROBE_S
    )
    assert host.rescale(10.0) == pytest.approx(10.0 / slow)
    local = sum(host.samples) / len(host.samples) / REF_PROBE_S
    assert host.rescale(10.0, local=True) == pytest.approx(10.0 / local)
    assert host.worker_ratio() > 0
    assert HostSpeed().worker_ratio() == 0.0



@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_emits_every_metric(workload, tmp_path):
    manifest = load_manifest()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run(workload, 3, 0.0, trace, scale=TINY, state_dir=tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in manifest[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for name, metric in result["metrics"].items():
            value = metric["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value)
            if section == "end_to_end":
                assert value > 0, name
        record = json.loads(
            (tmp_path / "results"
             / f"{workload}-seed3-trace{int(trace)}.json").read_text()
        )
        assert record["provenance"]["seed"] == 3
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    assert layer["sim.run_s" if workload != "baldur_4k_shards2"
                 else "shard.run_s"] > 0
    assert layer["zoo.builds"] >= 1
    if workload == "paper_sweep":
        assert layer["runner.sweep_s"] > 0
        assert layer["netsim.route_enqueue.calls"] > 0
        assert layer["core.table5_drop_err"] >= 1.0
    else:
        assert layer["runner.sweep_s"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "baldur_4k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
