"""Quick checks of the benchmark itself on tiny inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os

import pytest

import job
import run
import tracing
import workloads

TINY = {
    "count-random": {"rows": 2, "cols": 3},
    "sphere-grid": {"rows": 3, "cols": 4, "subdivision": 2},
    "paper-constructions": {"hexgrid_k": 1, "stairs_n": 10,
                            "pipeline_n": 40, "pipeline_p": 0.4},
}
SEED = 7


def traced_job(workload: str) -> dict:
    tracer = tracing.Tracer()
    result = job.run_job(workload, SEED, tracer, size=TINY[workload])
    assert result["problems"] == []
    return tracer.to_doc()


@pytest.fixture(scope="module")
def docs():
    return {w: traced_job(w) for w in TINY}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_spans_nest_and_self_times_sum_to_job_time(docs, workload):
    spans = docs[workload]["spans"]
    for name, start, end, parent, _ in spans:
        assert start <= end
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2], name
    root = next(i for i, s in enumerate(spans) if s[0] == tracing.JOB)
    in_job = {root}
    for i, s in enumerate(spans):
        if s[3] in in_job:
            in_job.add(i)
    own = tracing.self_times(spans)
    assert all(t >= 0 for t in own)
    job_time = spans[root][2] - spans[root][1]
    assert sum(own[i] for i in in_job) == pytest.approx(job_time, rel=1e-9)


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, None, None], ["b", 1.0, 5.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["d", 6.0, 7.0, 0, None]]
    assert tracing.self_times(spans) == [5.0, 3.0, 1.0, 1.0]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_ratio_has_a_nonzero_base(docs, workload):
    values = tracing.job_layer_values(docs[workload])
    for ratio, (base, exercised_by) in tracing.RATIO_BASES.items():
        if workload in exercised_by:
            assert values[base] > 0, (ratio, base)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counts_repeat_across_traced_runs(docs, workload):
    again = tracing.job_layer_values(traced_job(workload))
    first = tracing.job_layer_values(docs[workload])
    counts = [n for n, (unit, _) in tracing.PER_LAYER.items()
              if unit in ("count", "ratio") and n in first]
    assert {n: first[n] for n in counts} == {n: again[n] for n in counts}


def test_layer_metrics_cover_every_per_layer_metric(docs):
    doc = docs["count-random"]
    metrics = tracing.layer_metrics([doc], [1.0])
    assert set(metrics) == set(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_reference_check_flags_a_wrong_answer(workload):
    answer = job.run_job(workload, SEED, size=TINY[workload])["answer"]
    assert job.run_job(workload, SEED, size=TINY[workload],
                       expected=answer)["problems"] == []
    key = sorted(answer)[-1]
    wrong = dict(answer, **{key: answer[key] + 1})
    problems = job.run_job(workload, SEED, size=TINY[workload],
                           expected=wrong)["problems"]
    assert len(problems) == 1 and key in problems[0]


def test_reference_holds_fixed_answers_for_every_workload():
    for workload in workloads.WORKLOADS:
        assert job.expected_answer(workload, 0)


def test_reference_records_results_only():
    with open(job.REFERENCE_PATH) as fh:
        reference = json.load(fh)
    for workload, ref in reference.items():
        results = set(workloads.WORKLOADS[workload].results)
        assert set(ref["fixed"]) <= results
        for answer in ref["by_seed"].values():
            assert set(answer) <= results, workload


@pytest.mark.parametrize("workload", ["count-random", "sphere-grid"])
def test_changed_prefilter_figure_with_same_count_passes(workload):
    """A program change that moves how many tuples the prefilter keeps,
    but not the count, is still correct; a changed count is not."""
    wl = workloads.WORKLOADS[workload]
    expected = job.expected_answer(workload, 0)
    answer = {key: expected[key] for key in wl.results}
    # a prefilter that keeps exactly the positive tuples
    answer["after_prefilter"] = answer["count"]
    stale = dict(expected, after_prefilter=expected["tuples_total"])
    assert wl.compare(answer, stale) == []
    assert wl.compare(dict(answer, count=answer["count"] + 1), expected)


def test_end_to_end_times_are_scaled_to_the_nominal_host_speed(capsys):
    jobs = [{"ok": True, "input_seed": i, "wall_s": 2.0 + i,
             "setup_s": 0.4, "host_scale": 0.5, "peak_rss_mb": 30.0,
             "answer": {}} for i in range(3)]
    metrics = run.summarize("count-random", 0, jobs, None)["metrics"]
    assert metrics["wall_s"]["value"] == pytest.approx(1.5)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
    assert metrics["peak_rss_mb"]["value"] == 30.0


def test_calibration_loop_is_timed():
    assert job.calibration_s() > 0
    result = job.run_job("count-random", SEED, size=TINY["count-random"])
    assert result["host_scale"] > 0


def test_benchmark_json_names_what_the_code_emits():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == tracing.PER_LAYER
    assert {m["name"] for m in bench["end_to_end"]} \
        == {"wall_s", "setup_s", "peak_rss_mb"}
