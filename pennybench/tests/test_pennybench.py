"""Tests of the benchmark itself, on its tiny-size mode.

Run from the repository root:  python3 -m pytest pennybench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import repro.obs as obs
from repro.bench import get_benchmark
from repro.gpusim import make_executor

from pennybench import checks
from pennybench.workloads import Campaign, Figures, read_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "pennybench", "run.py")
WORKLOADS = ("compile-suite", "campaign", "figures")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_metrics_match_benchmark_json(workload, trace):
    done = run_bench(
        "--workload", workload, "--tiny", "--seconds", "0.1",
        "--seed", "7", "--trace", str(trace),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared("per_layer" if trace else "end_to_end")
    if trace:
        trace_path = os.path.join(ROOT, "pennybench", "out", f"trace-{workload}.json")
        with open(trace_path) as f:
            assert obs.validate_chrome_trace(json.load(f)) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "pennybench"), tmp_path / "pennybench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "pennybench/run.py", "--workload", "campaign",
         "--seconds", "1"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- each check rejects a deliberately corrupted input ------------------------------


@pytest.mark.parametrize("abbr", sorted(checks.REFERENCES))
def test_reference_rejects_a_flipped_output_word(abbr):
    bench = get_benchmark(abbr)
    wl = bench.workload()
    mem, out, inputs = read_inputs(wl)
    make_executor(bench.fresh_kernel(), backend="scalar",
                  rf_code_factory=lambda: None).run(wl.launch, mem)
    output = mem.download(*out)
    assert checks.check_reference(abbr, inputs, output) == []
    flipped = list(output)
    flipped[len(flipped) // 2] ^= 1 << 30
    assert checks.check_reference(abbr, inputs, flipped)
    assert checks.check_oracle(abbr, output, output) == []
    assert checks.check_oracle(abbr, flipped, output)


def test_record_check_enforces_appendix_a():
    ok = {"index": 0, "surface": "rf", "outcome": "recovered", "due_cause": None}
    assert checks.check_record(ok) is None
    assert checks.check_record(dict(ok, outcome="sdc"))
    # a single-bit RF strike must never end in a DUE
    assert checks.check_record(dict(ok, outcome="due", due_cause="memory_exception"))
    ckpt = dict(ok, surface="ckpt", outcome="due", due_cause="memory_exception")
    assert checks.check_record(ckpt) is None
    assert checks.check_record(dict(ckpt, due_cause="watchdog_timeout"))
    assert checks.check_record(dict(ok, surface="harness", outcome="due",
                                     due_cause="worker_crash"))


def test_campaign_check_rejects_an_sdc_record(tmp_path):
    workload = Campaign(seed=5, tiny=True, out_dir=str(tmp_path))
    rnd = workload.run_round(workers=1)
    assert workload.check([rnd]) == {}
    report = rnd.results["BFS"]
    report.records[2] = dataclasses.replace(report.records[2], outcome="sdc")
    failed = workload.check([rnd])
    assert list(failed) == ["0:BFS:2"]
    assert "silent data corruption" in failed["0:BFS:2"]


@pytest.fixture(scope="module")
def figures_round(tmp_path_factory):
    workload = Figures(seed=5, tiny=True, out_dir=str(tmp_path_factory.mktemp("f")))
    return workload, workload.run_round()


def test_figures_check_rejects_a_shifted_fig11_column(figures_round):
    workload, rnd = figures_round
    assert workload.check([rnd]) == {}
    column = rnd.results["fig11"]["Auto/Auto_select"]
    abbrs = [a for a in column if a != "gmean"]
    shifted = dict(column)
    for src, dst in zip(abbrs, abbrs[1:] + abbrs[:1]):
        shifted[dst] = column[src]
    tables = dict(rnd.results, fig11=dict(rnd.results["fig11"]))
    tables["fig11"]["Auto/Auto_select"] = shifted
    bad = checks.check_fig11_matches_fig9(tables["fig9"], tables["fig11"])
    assert set(bad) == set(abbrs)
    failed = workload.check([dataclasses.replace(rnd, results=tables)])
    assert {f"0:fig11:Auto/Auto_select:{a}" for a in abbrs} <= set(failed)


def test_figures_check_rejects_a_broken_ordering(figures_round):
    workload, rnd = figures_round
    fig9 = {s: dict(col) for s, col in rnd.results["fig9"].items()}
    fig9["Penny"]["gmean"], fig9["Bolt/Global"]["gmean"] = (
        fig9["Bolt/Global"]["gmean"], fig9["Penny"]["gmean"],
    )
    assert checks.check_ordering("fig9", fig9)
    tables = dict(rnd.results, fig9=fig9)
    failed = workload.check([dataclasses.replace(rnd, results=tables)])
    assert len([k for k in failed if k.startswith("0:fig9:")]) == len(
        workload.figure_cells("fig9")
    )
