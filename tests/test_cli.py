import inspect
import io
import json
import os
import random
import subprocess
import sys

import pytest

from spacecross import cli, counting, geometry, pipeline
from spacecross.drawing import decode_drawing
from spacecross.errors import ValidationError


def run(capsys, *argv):
    """Exit code and parsed stdout report (None when stdout is empty)."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_gen_fixture_then_count_crossings_through_a_file(tmp_path, capsys):
    f = str(tmp_path / "f.json")
    code, status = run(capsys, "gen-fixture", "--kind", "drawing",
                       "--params", '{"n": 6}', "--output", f)
    assert (code, status) == (0, {"written": f, "kind": "drawing"})
    code, doc = run(capsys, "count-crossings", "--input", f)
    assert code == 0
    assert doc["count"] == 0 and doc["tuples_total"] == 0
    assert doc["tuples_after_prefilter"] == 0


def test_count_crossings_report_and_missing_input(tmp_path, capsys):
    f = str(tmp_path / "f.json")
    run(capsys, "gen-fixture", "--kind", "drawing", "--seed", "3",
        "--params", '{"n": 9, "p": 0.8}', "--output", f)
    code, doc = run(capsys, "count-crossings", "--input", f, "--witnesses")
    assert code == 0
    assert doc["count"] <= doc["tuples_after_prefilter"] <= doc["tuples_total"]
    assert len(doc["witnesses"]) == doc["count"]
    stages = doc["stages"]
    assert [s["name"] for s in stages] == ["enumerate", "tuple_filter",
                                           "certified_filter", "exact"]
    assert stages[1]["rows_in"] == doc["tuples_total"]
    assert stages[1]["rows_out"] == doc["tuples_after_prefilter"]
    assert stages[-1]["rows_out"] == doc["count"]
    code, doc = run(capsys, "count-crossings", "--input", str(tmp_path / "none"))
    assert code == 1 and doc["code"] == "FileNotFoundError"
    code, doc = run(capsys, "count-crossings", "--input", str(tmp_path))
    assert code == 1 and doc["code"] == "IsADirectoryError"


def test_count_crossings_invariant_failure_exits_2(tmp_path, capsys, monkeypatch):
    f = str(tmp_path / "f.json")
    run(capsys, "gen-fixture", "--kind", "drawing", "--params", '{"n": 6}',
        "--output", f)

    def broken(*args, **kwargs):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(counting, "count_line_crossings", broken)
    code, doc = run(capsys, "count-crossings", "--input", f)
    assert (code, doc["code"]) == (2, "AssertionError")


def test_case_analysis_invariant_failure_exits_2(tmp_path, capsys,
                                                 monkeypatch):
    # a flat drawing's rows go to the case analysis, whose answers are
    # certified by verify_transversal; a refusal there is a broken invariant
    f = str(tmp_path / "f.json")
    run(capsys, "gen-fixture", "--kind", "drawing",
        "--params", '{"n": 8, "flat": true}', "--output", f)
    monkeypatch.setattr(geometry, "verify_transversal", lambda *args: None)
    code, doc = run(capsys, "count-crossings", "--input", f, "--k", "3")
    assert (code, doc["code"]) == (2, "AssertionError")


def test_count_planar_and_lift_sphere(tmp_path, capsys):
    flat = str(tmp_path / "flat.json")
    lifted = str(tmp_path / "lifted.json")
    run(capsys, "gen-fixture", "--kind", "drawing",
        "--params", '{"n": 7, "flat": true}', "--output", flat)
    code, doc = run(capsys, "count-planar", "--input", flat)
    assert code == 0 and doc["count"] >= 0
    code, status = run(capsys, "lift-sphere", "--input", flat,
                       "--subdivision", "2", "--output", lifted)
    assert (code, status) == (0, {"written": lifted, "subdivision": 2})
    code, doc = run(capsys, "count-crossings", "--input", lifted, "--k", "3")
    assert code == 0 and doc["tuples_total"] > 0
    # lifting a non-flat drawing is a validation error
    code, doc = run(capsys, "lift-sphere", "--input", lifted)
    assert (code, doc["code"]) == (1, "ValidationError")


def test_drawings_print_to_stdout_and_read_from_stdin(tmp_path, capsys,
                                                      monkeypatch):
    # without --output the drawing is stdout, as it pipes into the next
    # command
    assert cli.main(["gen-fixture", "--kind", "drawing",
                     "--params", '{"n": 7, "flat": true}']) == 0
    flat = capsys.readouterr().out
    assert decode_drawing(flat).graph.n == 7
    monkeypatch.setattr("sys.stdin", io.StringIO(flat))
    assert cli.main(["lift-sphere", "--input", "-", "--subdivision", "2"]) == 0
    lifted = capsys.readouterr().out
    f = str(tmp_path / "lifted.json")
    assert run(capsys, "lift-sphere", "--input", write(tmp_path / "flat.json",
                                                       json.loads(flat)),
               "--subdivision", "2", "--output", f) == (
        0, {"written": f, "subdivision": 2})
    assert decode_drawing(lifted).positions == decode_drawing(
        (tmp_path / "lifted.json").read_text()).positions


def test_gen_hexgrid_writes_drawing_and_reports_to_stdout(tmp_path, capsys):
    f = str(tmp_path / "hex.json")
    code, doc = run(capsys, "gen-hexgrid", "--k", "2", "--subdivision", "1",
                    "--output", f)
    assert code == 0
    assert (doc["vertices"], doc["edges"], doc["written"]) == (64, 97, f)
    code, doc = run(capsys, "count-planar", "--input", f)
    assert code == 1  # the written drawing is lifted, hence not flat


def test_gen_hexgrid_at_the_smallest_size(tmp_path, capsys):
    # without --output the drawing goes to stdout, as it pipes into
    # count-crossings
    assert cli.main(["gen-hexgrid", "--k", "1", "--subdivision", "1"]) == 0
    out = capsys.readouterr().out
    d = decode_drawing(out)
    assert (d.graph.n, d.graph.m) == (24, 37)
    assert d.positions == pipeline.hexgrid_construction(1, 1).drawing.positions
    code, doc = run(capsys, "count-crossings", "--k", "4",
                    "--input", write(tmp_path / "hex.json", json.loads(out)))
    assert (code, doc["count"], doc["tuples_total"]) == (0, 0, 29143)


def test_gen_stair_and_order_types(capsys):
    code, doc = run(capsys, "gen-stair", "--n", "8", "--m", "8",
                    "--check-bounds")
    assert code == 0 and doc["pass"] is True
    code, doc = run(capsys, "gen-stair", "--n", "200", "--m", "400",
                    "--check-bounds")
    assert code == 0 and doc["pass"] is True
    assert doc["D"] == 4
    assert doc["count"] == sum(doc["by_components"].values()) > 0
    assert set(doc["by_components"]) == {"1", "2"}
    code, doc = run(capsys, "order-types")
    assert (code, doc["total"]) == (0, 105)


def test_linking_commands(tmp_path, capsys):
    hopf = str(tmp_path / "hopf.json")
    stacked = str(tmp_path / "stacked.json")
    assert run(capsys, "gen-fixture", "--kind", "hopf-pair",
               "--output", hopf) == (0, None)
    code, doc = run(capsys, "linking", "--input", hopf)
    assert (code, doc) == (0, {"lk": 1})
    run(capsys, "gen-fixture", "--kind", "stacked-pairs", "--output", stacked)
    code, doc = run(capsys, "transversal-4cycles", "--input", stacked)
    assert (code, doc["found"]) == (0, True)
    code, doc = run(capsys, "conway-gordon", "--seed", "1")
    assert code == 0 and doc["parity_sum"] % 2 == 1
    code, doc = run(capsys, "linking", "--input", write(tmp_path / "bad.json", {}))
    assert (code, doc["code"]) == (1, "KeyError")


def test_linking_with_collinear_edges(tmp_path, capsys):
    cycles = [[[0, 0, 0], [1, 0, 0], [0, 1, 0]],
              [[2, 0, 0], [3, 0, 0], [2, 0, 1]]]
    pair = write(tmp_path / "pair.json", {
        "cycles": [[[str(c) for c in p] for p in cyc] for cyc in cycles]})
    assert run(capsys, "linking", "--input", pair) == (0, {"lk": 0})


def test_conway_gordon_reads_six_points_and_rejects_coplanar(tmp_path,
                                                           capsys):
    six = str(tmp_path / "six.json")
    assert run(capsys, "gen-fixture", "--kind", "six-points", "--seed", "2",
               "--output", six) == (0, None)
    code, doc = run(capsys, "conway-gordon", "--input", six)
    assert code == 0 and doc == run(capsys, "conway-gordon", "--seed", "2")[1]
    assert len(doc["linking_numbers"]) == 10 and doc["parity_sum"] == 1
    flat = write(tmp_path / "flat.json", {"points": [
        [str(i), str(i * i), "0"] for i in range(6)]})
    code, doc = run(capsys, "conway-gordon", "--input", flat)
    assert (code, doc["code"]) == (1, "DegeneratePosition")


def test_transversal_4cycles_reports_none_for_far_triangles(tmp_path, capsys):
    # the triangles of test_linking.test_far_unlinked_triangles_have_none
    rng = random.Random(11)
    cycles = []
    for i in range(4):
        center = (50 * i, 37 * i * i % 91, (13 * i) % 17)
        cycles.append([[f"{64 * c + rng.randint(-8, 8)}/64" for c in center]
                       for _ in range(3)])
    far = write(tmp_path / "far.json", {"cycles": cycles})
    assert run(capsys, "transversal-4cycles", "--input", far) == (
        0, {"found": False})


def test_witness_pipeline(tmp_path, capsys):
    f = str(tmp_path / "f.json")
    run(capsys, "gen-fixture", "--kind", "drawing", "--params", '{"n": 6}',
        "--output", f)
    code, doc = run(capsys, "witness-pipeline", "--input", f)
    assert (code, doc) == (0, {"witnesses": [], "count": 0})


def test_witness_pipeline_budget_default_matches_the_api():
    api = inspect.signature(pipeline.boost_witness_pipeline)
    args = cli.build_parser().parse_args(["witness-pipeline"])
    assert args.budget == api.parameters["budget"].default


def test_witness_pipeline_refuses_a_budget_below_1(tmp_path, capsys):
    # the default budget finds 3 witnesses on this drawing; a budget below
    # 1 searches nothing, and is refused rather than reported as 0
    f = str(tmp_path / "f.json")
    run(capsys, "gen-fixture", "--kind", "drawing", "--seed", "1",
        "--params", '{"n": 40, "p": 0.4}', "--output", f)
    for budget in ("0", "-5"):
        code, doc = run(capsys, "witness-pipeline", "--input", f,
                        "--budget", budget)
        assert (code, doc["code"]) == (1, "ValidationError")
    with pytest.raises(ValidationError):
        pipeline.boost_witness_pipeline(
            decode_drawing((tmp_path / "f.json").read_text()), budget=-1)


@pytest.mark.parametrize("argv, error", [
    (["order-types"], "FileNotFoundError"),
    (["gen-fixture", "--kind", "four-k6"], "FileNotFoundError"),
    (["count-crossings", "--input", "."], "IsADirectoryError"),
], ids=["order-types", "gen-fixture", "count-crossings"])
def test_an_unwritable_report_path_sends_the_report_to_stdout(
        tmp_path, capsys, argv, error):
    bad = tmp_path / "missing" / "x.json"
    code, doc = run(capsys, *argv, "--output", str(bad))
    assert (code, doc["code"]) == (1, error)
    assert not bad.parent.exists()


def _drawing_doc(pos="0", edges=None):
    return {"n": 2, "vertices": [{"id": 0, "pos": [pos, "0", "0"]},
                                 {"id": 1, "pos": ["1", "0", "0"]}],
            "edges": [{"u": 0, "v": 1}] if edges is None else edges}


def _cycles_doc(scalar):
    return {"cycles": [[[scalar, "0", "0"], ["1", "0", "0"], ["0", "1", "0"]],
                       [["0", "0", "1"], ["1", "0", "1"], ["0", "1", "1"]]]}


# every subcommand that reads a document, with a malformed one
MALFORMED = [
    ("count-crossings", _drawing_doc(edges=5)),
    ("count-planar", _drawing_doc(edges=[{"u": 0, "v": 1, "polyline": 5}])),
    ("lift-sphere", _drawing_doc(pos="1/0")),
    ("witness-pipeline", _drawing_doc(pos="x")),
    ("linking", _cycles_doc("x")),
    ("linking", {"cycles": _cycles_doc("0")["cycles"][:1]}),
    ("transversal-4cycles", _cycles_doc("1/0")),
    ("transversal-4cycles", {"cycles": 5}),
    ("conway-gordon", {"points": [["x", "0", "0"]] * 6}),
    ("linking", []),
]


@pytest.mark.parametrize("command,doc", MALFORMED)
def test_malformed_documents_exit_1_with_a_report(tmp_path, capsys, command,
                                                  doc):
    code, report = run(capsys, command,
                       "--input", write(tmp_path / "bad.json", doc))
    assert (code, report["code"]) == (1, "ValidationError")


def test_unknown_fixture_kind_exits_1(capsys):
    code, doc = run(capsys, "gen-fixture", "--kind", "nope")
    assert (code, doc["code"]) == (1, "ValidationError")


@pytest.mark.parametrize("kind, params", [
    ("drawing", '{"n": 7, "p": "x"}'),
    ("drawing", '{"n": "seven"}'),
    ("drawing", '[1]'),
    ("drawing", '{"n": 7'),
    ("drawing", '{"n": 7, "flatt": true}'),      # unknown key
    ("drawing", '{"p": 0.5}'),                   # n is required
    ("drawing", '{"n": 7, "p": 1.5}'),
    ("drawing", '{"n": 7, "flat": 1}'),
    ("points", '{"count": 2, "denominator_bound": 0}'),
    ("points", '{"count": -1}'),
    ("graph", '{"n": 4.5}'),
    ("stacked-pairs", '{"offset": "far"}'),
    ("hopf-pair", '{"offset": 1}'),
    ("four-k6", '{"denominator_bound": true}'),
])
def test_malformed_fixture_params_exit_1(capsys, kind, params):
    code, doc = run(capsys, "gen-fixture", "--kind", kind, "--params", params)
    assert (code, doc["code"]) == (1, "ValidationError")


@pytest.mark.parametrize("params", [
    '{"n": 3, "span": 0}',
    '{"n": 3, "denominator_bound": 0}',
    # 2^3 = 8 and 2^2 = 4 distinct lattice points
    '{"n": 9, "span": 1, "denominator_bound": 1}',
    '{"n": 5, "span": 1, "denominator_bound": 1, "flat": true}',
])
def test_drawing_larger_than_its_lattice_exits_1(params):
    # in a subprocess with a timeout: sampling such a drawing never ends
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "spacecross.cli", "gen-fixture", "--kind",
         "drawing", "--params", params], capture_output=True, text=True,
        timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["code"] == "ValidationError"


def test_drawing_fills_its_lattice(capsys):
    for params in ('{"n": 8, "span": 1, "denominator_bound": 1}',
                   '{"n": 4, "span": 1, "denominator_bound": 1, "flat": true}',
                   # values 0, 1/2, 1: 27 points
                   '{"n": 27, "span": 1, "denominator_bound": 2}'):
        code, doc = run(capsys, "gen-fixture", "--kind", "drawing",
                        "--params", params)
        assert code == 0 and len(doc["vertices"]) == json.loads(params)["n"]


def test_subcommands_take_only_their_flags(capsys):
    for argv in (["count-planar", "--input", "x", "--threads", "2"],
                 ["count-crossings", "--input", "x", "--mode", "float"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    for argv in (["--help"], ["count-crossings", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
