"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import re

import pytest

import cells
import ledger
import run
import worker

ROOT = os.path.dirname(worker.HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def sample_layer_metrics() -> dict:
    layers = {name: {"self_s": 1.0, "calls": 1} for name in ledger.LAYERS}
    counters = {name: 1 for name in ledger.STATS_COUNTERS}
    counters.update({"machine.sim_cycles": 1, "machine.node_cycles": 8,
                     "network.remote_packets": 1, "sim.events": 3})
    return ledger.per_layer_metrics(layers, counters, 1.0, 1.0, 2.0)


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------
def test_every_repro_module_maps_to_a_named_layer():
    unmapped = []
    for directory, _dirs, files in os.walk(worker.REPRO_DIR):
        for name in files:
            if name.endswith(".py"):
                relpath = os.path.relpath(os.path.join(directory, name),
                                          worker.REPRO_DIR)
                layer = ledger.repro_layer(relpath)
                if layer is None or layer == "other":
                    unmapped.append(relpath)
    assert unmapped == [], f"add these to ledger.PACKAGE_LAYER: {unmapped}"


def test_a_new_package_is_unmapped_not_other():
    assert ledger.repro_layer("newpackage/module.py") is None
    assert ledger.repro_layer("typhoon/np.py") == "typhoon"
    assert ledger.repro_layer("machine.py") == "harness"


def test_profile_grouping_by_layer():
    repro_dir = worker.REPRO_DIR
    stats = {
        (os.path.join(repro_dir, "sim", "engine.py"), 1, "run"):
            (5, 5, 0.5, 1.0, {}),
        (os.path.join(repro_dir, "cli.py"), 1, "main"): (1, 1, 0.25, 1.0, {}),
        ("~", 0, "<built-in method builtins.len>"): (7, 7, 0.125, 0.1, {}),
    }
    layers = ledger.group_profile(stats, repro_dir)
    assert layers["sim"] == {"self_s": 0.5, "calls": 5}
    assert layers["harness"] == {"self_s": 0.25, "calls": 1}
    assert layers["other"] == {"self_s": 0.125, "calls": 7}
    assert layers["kernel"] == {"self_s": 0.0, "calls": 0}


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_every_metric_name_is_well_formed():
    benchmark = load_benchmark()
    names = (list(ledger.END_TO_END) + list(sample_layer_metrics())
             + [m["name"] for key in ("end_to_end", "per_layer")
                for m in benchmark[key]]
             + [w["name"] for w in benchmark["workloads"]])
    assert [name for name in names if not NAME.fullmatch(name)] == []


def test_benchmark_json_lists_what_the_command_prints():
    benchmark = load_benchmark()
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} \
        == ledger.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} \
        == {name: unit for name, (_v, unit) in sample_layer_metrics().items()}
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def test_pins_cover_exactly_the_cells_run():
    with open(os.path.join(worker.HERE, "fingerprints.json")) as handle:
        pins = json.load(handle)
    for workload, expected in zip(run.WORKLOADS, (50, 18, 3)):
        ids = [cell.id for cell in cells.cells_for(workload, 42)]
        assert len(ids) == len(set(ids)) == expected
        assert sorted(ids) == sorted(pins[workload])


@pytest.fixture(scope="module")
def small_pass() -> dict:
    few = cells.figure4_cells(seed=42, nodes=4, fractions=(0.2,))
    return worker.run_pass("figure4", 42, cells=few)


def test_a_corrupted_fingerprint_counts_as_failed(small_pass):
    records = small_pass["cells"]
    pins = {r["id"]: ledger.fingerprint(r["counters"]) for r in records}
    assert ledger.failed_cells([records], pins) == []
    corrupted = dict(pins)
    cell_id = records[1]["id"]
    corrupted[cell_id] = [corrupted[cell_id][0] + 1] + corrupted[cell_id][1:]
    assert ledger.failed_cells([records], corrupted) == [cell_id]
    assert ledger.failed_cells([records, records], corrupted) \
        == [cell_id, cell_id]


def test_errors_and_non_repeating_counters_count_as_failed(small_pass):
    records = small_pass["cells"]
    broken = [dict(records[0], counters=None, error="boom")] + records[1:]
    assert ledger.failed_cells([broken], None) == [records[0]["id"]]
    drifted = [dict(r, counters=dict(r["counters"])) for r in records]
    drifted[2]["counters"]["sim.events"] += 1
    assert ledger.failed_cells([records, drifted], None) \
        == [records[2]["id"]]


def test_spans_share_cell_ids(small_pass):
    ids = {r["id"] for r in small_pass["cells"]}
    for cell_id in ids:
        names = sorted(s["name"] for s in small_pass["spans"]
                       if s["cell"] == cell_id)
        assert names == ["build_machine", "cell", "run_workers", "setup"]


def test_conformance_environment_is_refused(monkeypatch):
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    assert run.environment_error() is None
    monkeypatch.setenv("REPRO_CONFORMANCE", "1")
    assert "REPRO_CONFORMANCE" in run.environment_error()


def test_a_directory_without_sources_is_refused(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CONFORMANCE", raising=False)
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert "no repro package" in run.environment_error()


# ----------------------------------------------------------------------
# The benchmark runs what the CLI runs
# ----------------------------------------------------------------------
def cycles_by_cell(pass_record: dict) -> dict[str, int]:
    return {r["id"]: r["counters"]["machine.sim_cycles"]
            for r in pass_record["cells"]}


def test_figure3_cells_match_run_figure3():
    from repro.harness.experiments import run_figure3

    apps = ("ocean", "em3d")
    configurations = [("small", 2048, 16384)]
    few = cells.figure3_cells(7, nodes=4, apps=apps,
                              configurations=configurations)
    cycles = cycles_by_cell(worker.run_pass("figure3", 7, cells=few))
    rows = run_figure3(apps=apps, nodes=4, seed=7,
                       configurations=configurations).rows
    assert len(rows) == 2 and len(cycles) == 4
    for row in rows:
        prefix = f"{row['application']}/small/2048"
        assert cycles[f"{prefix}/dirnnb"] == row["dirnnb_cycles"]
        assert cycles[f"{prefix}/typhoon-stache"] == row["stache_cycles"]


def test_figure4_cells_match_run_figure4():
    from repro.harness.experiments import run_figure4

    fractions = (0.0, 0.3)
    few = cells.figure4_cells(7, nodes=4, fractions=fractions)
    cycles = cycles_by_cell(worker.run_pass("figure4", 7, cells=few))
    rows = run_figure4(nodes=4, fractions=fractions, seed=7).rows
    d = cells.FIGURE4_DEFAULTS
    edges = 2 * d["nodes_per_proc"] * d["degree"] * d["iterations"]
    assert len(rows) == 2 and len(cycles) == 6
    for row in rows:
        prefix = f"em3d/{row['remote_pct']}pct"
        for system, column in (("dirnnb", "dirnnb"),
                               ("typhoon-stache", "typhoon_stache"),
                               ("typhoon-update", "typhoon_update")):
            assert cycles[f"{prefix}/{system}"] / edges == row[column]
