"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench

They run real passes of the cheapest workload, so they take about a
minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = run.SPEC
WORKLOAD = "main_theorem"


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads_the_worker_runs():
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("trace,table", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, table, capsys):
    code = run.main(["--workload", WORKLOAD, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 0 and result["correct"], out
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[table]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = out.splitlines()
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in lines), name


def test_traced_counts_repeat_for_a_seed():
    first = run.spawn(WORKLOAD, 3, 1)["layers"]
    second = run.spawn(WORKLOAD, 3, 1)["layers"]
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(first) | {"trace.overhead_s"} == names
    exact = {m["name"] for m in BENCHMARK["per_layer"]
             if m["unit"] in run.EXACT_UNITS}
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["kernel.normal_form.calls"] > 0


def test_corrupted_reference_trips_the_gate(tmp_path: Path, capsys):
    reference = run.load_reference()
    assert "0" in reference[WORKLOAD], "record seed 0 first"
    reference[WORKLOAD]["0"] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    code = run.main(["--workload", WORKLOAD, "--seed", "0", "--seconds", "1"],
                    reference_path=path)
    result = _last_json(capsys.readouterr().out)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_digest_mismatch_counts_every_operation_as_failed():
    check = run.Run(WORKLOAD, 0, {WORKLOAD: {"0": "a" * 64}})
    check.add({"attempted": 17, "failed": 0, "errors": [], "digest": "b" * 64})
    assert (check.attempted, check.failed, check.correct) == (17, 17, False)
    same = run.Run(WORKLOAD, 0, {WORKLOAD: {"0": "a" * 64}})
    same.add({"attempted": 17, "failed": 0, "errors": [], "digest": "a" * 64})
    same.add({"attempted": 17, "failed": 0, "errors": [], "digest": "c" * 64})
    assert (same.failed, same.correct) == (17, False)


def test_tracer_patches_every_lookup_site():
    sys.path.insert(0, str(run.ROOT / "src"))
    import tracing
    from multigb import cli, csideals, determinantal
    original = csideals.ugb_check
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for site, attr in ((csideals, "gin"), (determinantal, "ugb_check"),
                           (csideals, "ugb_check"), (cli, "parse"),
                           (cli, "gin"), (csideals.Ideal, "colon")):
            assert hasattr(getattr(site, attr), "__wrapped__"), (site, attr)
    finally:
        tracer.uninstall()
    assert csideals.ugb_check is original
    assert determinantal.ugb_check is original
