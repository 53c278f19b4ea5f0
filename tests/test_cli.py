"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import build_parser, main

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"


GONE = object()
#: (where in an exported problem, or in its "solution", to put what; what the error names)
BAD_DOCUMENTS = [
    (("tasks", 0, "max_latency_s"), float("nan"), "tasks[0]['max_latency_s'] must be a finite number"),
    (("budgets", "memory_gb"), float("inf"), "budgets['memory_gb'] must be a finite number"),
    (("tasks", 1, "request_rate"), "5", "tasks[1]['request_rate'] must be a finite number"),
    (("tasks",), GONE, "problem is missing 'tasks'"),
    (("tasks", 1, "max_latency_s"), GONE, "tasks[1] is missing 'max_latency_s'"),
    ((), [1], "document must be a JSON object, got list"),
    (("tasks", 0), 3, "tasks[0] must be a JSON object, got int"),
    (("blocks", 2), "b", "blocks[2] must be a JSON object, got str"),
    (("paths", 0), None, "paths[0] must be a JSON object, got NoneType"),
    (("paths", 0, "block_ids", 0), "nope", "blocks (as named by paths[0]) is missing 'nope'"),
    (("solution",), [1], "document must be a JSON object, got list"),
    (("solution", "assignments", 0, "admission_ratio"), "1", "assignments[0]['admission_ratio'] must be"),
    (("solution", "assignments", 1, "radio_blocks"), GONE, "assignments[1] is missing 'radio_blocks'"),
    (("solution", "assignments", 0), 7, "assignments[0] must be a JSON object, got int"),
]

#: (command line, the flag argparse names) of out-of-range numbers: each
#: used to end in a ValueError traceback or, for --users, a silent 20
OUT_OF_RANGE = [
    (["solve-small", "--tasks", "0"], "--tasks"),
    (["emulate", "--tasks", "6"], "--tasks"),
    (["serve-sim", "--tasks", "-1"], "--tasks"),
    (["export-problem", "out.json", "--tasks", "6"], "--tasks"),
    (["serve-sim", "--slice-margin", "-5"], "--slice-margin"),
    (["emulate", "--duration", "0"], "--duration"),
    (["solve-scale", "--users", "0"], "--users"),
    (["solve-scale", "--users", "-20"], "--users"),
    *(([command, "--seed", "-1"], "--seed") for command in (
        "solve-small", "solve-large", "solve-scale", "emulate", "serve-sim",
    )),
    (["profile", "--repeats", "0"], "--repeats"),
    (["profile", "--input-size", "7"], "--input-size"),
    (["profile", "--classes", "0"], "--classes"),
    (["sweep", "--values", "abc"], "--values"),
    (["sweep", "--knob", "radio", "--values", "nan"], "--values"),
    (["sweep", "--knob", "radio", "--values", "2.5"], "--values"),
    (["sweep", "--knob", "memory", "--values", "-1"], "--values"),
    # a negative --top used to print "... N more roots elided" and exit 0
    (["trace-summary", "t.json", "--top", "-3"], "--top"),
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_small_defaults(self):
        args = build_parser().parse_args(["solve-small"])
        assert args.tasks == 5
        assert not args.optimal

    def test_rate_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve-large", "--rate", "extreme"])

    def test_reproduce_artifact_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig99"])


class TestCommands:
    def test_solve_small(self, capsys):
        assert main(["solve-small", "--tasks", "2"]) == 0
        out = capsys.readouterr().out
        assert "[OffloaDNN]" in out
        assert "objective" in out

    def test_solve_small_with_optimal(self, capsys):
        assert main(["solve-small", "--tasks", "2", "--optimal"]) == 0
        out = capsys.readouterr().out
        assert "[Optimum]" in out

    def test_solve_large(self, capsys):
        assert main(["solve-large", "--rate", "low"]) == 0
        out = capsys.readouterr().out
        assert "[OffloaDNN] low rate" in out
        assert "[SEM-O-RAN]" in out
        assert "admitted 20/20" in out

    def test_emulate(self, capsys):
        assert main(["emulate", "--tasks", "2", "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "\nall tasks within latency targets: True\n" in out

    def test_emulate_prints_the_fig11_record(self, capsys):
        """``emulate`` is the Fig. 11 generator at its run arguments: at
        the defaults it prints the committed record."""
        assert main(["emulate"]) == 0
        assert capsys.readouterr().out == (RESULTS / "fig11_emulation.txt").read_text()

    def test_serve_sim_rejects_non_finite_window(self, capsys):
        # an infinite window used to "run": nothing completed, an infinite
        # duration, a zero table and exit 0
        assert main(["serve-sim", "--tasks", "1", "--window", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: batch_window_s ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag", OUT_OF_RANGE, ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE]
    )
    def test_out_of_range_numbers_are_usage_errors(
        self, argv, flag, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f": error: argument {flag}: " in captured.err.splitlines()[-1]
        assert not (tmp_path / "out.json").exists()

    def test_profile_resnet(self, capsys):
        assert main(["profile", "--arch", "resnet18", "--input-size", "16",
                     "--repeats", "1", "--classes", "10"]) == 0
        out = capsys.readouterr().out
        assert "(fp32 plan)" in out
        assert "layer4" in out
        assert "total:" in out

    def test_profile_mobilenet(self, capsys):
        assert main(["profile", "--arch", "mobilenetv2", "--input-size", "16",
                     "--repeats", "1", "--classes", "10"]) == 0
        assert "mobilenetv2" in capsys.readouterr().out

    def test_profile_times_plans_only(self, capsys):
        """There is no eager mode to select: ``--compiled`` is gone and the
        header names the plan that was timed."""
        with pytest.raises(SystemExit) as exited:
            main(["profile", "--compiled"])
        assert exited.value.code == 2
        assert main(["profile", "--input-size", "16", "--repeats", "1",
                     "--classes", "10", "--int8"]) == 0
        assert "(int8 plan)" in capsys.readouterr().out

    @pytest.mark.parametrize("name, record", [
        ("fig2", "fig2_training"),
        ("fig9", "fig9_admission"),
        ("fig10", "fig10_largescale"),
        ("fig11", "fig11_emulation"),
        ("headline", "headline"),
        ("sensitivity", "sensitivity"),
        # the exhaustive optimum up to T = 5 (one pass for both figures)
        pytest.param("fig7", "fig7_cost_memory", marks=pytest.mark.slow),
        pytest.param("fig8", "fig8_breakdown", marks=pytest.mark.slow),
    ])
    def test_reproduce_prints_the_committed_record(self, name, record, capsys):
        """Every artifact without a host-clock column prints exactly its
        record under benchmarks/results/ (fig3, fig6 and table1 time the
        host)."""
        assert main(["reproduce", name]) == 0
        assert capsys.readouterr().out == (RESULTS / f"{record}.txt").read_text()

    def test_sweep_radio(self, capsys):
        assert main(["sweep", "--knob", "radio", "--values", "30,100"]) == 0
        out = capsys.readouterr().out
        assert "w. admission" in out

    def test_sweep_default_values(self, capsys):
        assert main(["sweep", "--knob", "memory"]) == 0
        assert "memory" in capsys.readouterr().out

    def test_export_and_solve_file(self, capsys, tmp_path):
        problem_file = tmp_path / "p.json"
        solution_file = tmp_path / "s.json"
        assert main(["export-problem", str(problem_file), "--scenario", "small",
                     "--tasks", "2"]) == 0
        assert problem_file.exists()
        assert main(["solve-file", str(problem_file),
                     "--solution-out", str(solution_file)]) == 0
        out = capsys.readouterr().out
        assert "objective:" in out
        assert solution_file.exists()

    def test_solve_file_without_output(self, capsys, tmp_path):
        problem_file = tmp_path / "p.json"
        main(["export-problem", str(problem_file), "--tasks", "1"])
        assert main(["solve-file", str(problem_file)]) == 0

    @pytest.mark.parametrize(
        "path, value, message", BAD_DOCUMENTS,
        ids=[".".join(map(str, row[0])) or "document" for row in BAD_DOCUMENTS],
    )
    def test_bad_documents_are_one_line_errors(self, path, value, message, capsys, tmp_path):
        from repro.core.serialize import load_problem, load_solution

        problem_file, solution_file = tmp_path / "p.json", tmp_path / "s.json"
        main(["export-problem", str(problem_file), "--tasks", "2"])
        main(["solve-file", str(problem_file), "--solution-out", str(solution_file)])
        capsys.readouterr()
        target = solution_file if path[:1] == ("solution",) else problem_file
        *parents, last = path[target is solution_file:] or [None]
        document = node = json.loads(target.read_text())
        for key in parents:
            node = node[key]
        if last is None:
            document = value
        elif value is GONE:
            del node[last]
        else:
            node[last] = value
        target.write_text(json.dumps(document))
        if target is solution_file:
            with pytest.raises(ValueError) as raised:
                load_solution(str(target), load_problem(str(problem_file)))
            assert message in str(raised.value)
        else:  # the NaN-latency document used to solve and exit 0
            assert main(["solve-file", str(target)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err
            assert captured.err.startswith("error: problem ") and captured.err.count("\n") == 1


class TestTraceCommands:
    def test_serve_sim_trace_roundtrip(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        assert main(["serve-sim", "--tasks", "2", "--duration", "1",
                     "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert f"spans to {trace_file}" in out
        assert "[virtual clock]" in out  # flamegraph epilogue
        assert trace_file.exists()
        assert main(["trace-summary", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "request" in out
        assert "virtual" in out

    def test_bare_trace_prints_flamegraph_only(self, capsys, tmp_path):
        assert main(["emulate", "--tasks", "2", "--duration", "2",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "[virtual clock]" in out
        assert "request" in out and "uplink" in out
        assert not list(tmp_path.iterdir())  # nothing written

    def test_trace_summary_rejects_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": "nope"}')
        assert main(["trace-summary", str(bad)]) == 1
        assert "invalid chrome trace" in capsys.readouterr().err
        bad.write_text("[1, 2]")  # a top-level list used to be an AttributeError
        assert main(["trace-summary", str(bad)]) == 1
        assert "not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, reason", [("missing.json", "No such file or directory"), (".", "Is a directory")]
    )
    def test_trace_summary_reports_an_unreadable_path(self, capsys, tmp_path, name, reason):
        """A missing file or a directory used to end in a traceback."""
        path = tmp_path / name
        assert main(["trace-summary", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize(
        "content, reason",
        [(b"\xff\xfe", "not UTF-8 text (byte 0: invalid start byte)"),
         (b"", "empty trace file")],
    )
    def test_trace_summary_names_an_unreadable_or_empty_file(
        self, capsys, tmp_path, content, reason
    ):
        """A non-UTF-8 file used to print the codec error without the path,
        and an empty one passed as a trace of 0 records."""
        path = tmp_path / "trace.json"
        path.write_bytes(content)
        assert main(["trace-summary", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {reason}\n"
