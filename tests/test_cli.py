import pytest

import taupipe.cli as cli
from taupipe.cli import main
from taupipe.core import make_event, make_particle
from taupipe.eventio import parse_report, write_events


def run_cli(argv):
    return main(argv)


def test_run_with_generated_events(tmp_path, capsys):
    report = tmp_path / "out.jsonl"
    code = run_cli(["run", "--gen", "1:100:clustered", "--freq", "300", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle check: ok (100 events)" in out
    records = parse_report(report.read_text())
    metrics = records[-1]
    assert metrics["ii_cycles"] <= 45
    assert metrics["cdc_overhead_cycles"] == 10
    assert metrics["feasible"] is True


def test_run_reports_are_byte_identical(tmp_path):
    r1, r2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["run", "--gen", "9:40:busy", "--report"]
    assert run_cli(argv + [str(r1)]) == 0
    assert run_cli(argv + [str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_run_missing_events_file(capsys):
    assert run_cli(["run", "--events", "missing.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_requires_exactly_one_source(tmp_path):
    assert run_cli(["run"]) == 2
    ev = tmp_path / "e.txt"
    ev.write_text(write_events([make_event(0, [make_particle(50, 0, 0)])]))
    assert run_cli(["run", "--events", str(ev), "--gen", "1:1:uniform"]) == 2


def test_run_bad_gen_spec():
    assert run_cli(["run", "--gen", "1:10"]) == 2
    assert run_cli(["run", "--gen", "1:ten:uniform"]) == 2
    assert run_cli(["run", "--gen", "1:10:weird"]) == 2


def test_run_variant_combinations_agree(tmp_path):
    out = {}
    for merge, clean in (("A", "A"), ("B", "B")):
        report = tmp_path / f"{merge}{clean}.jsonl"
        code = run_cli(
            [
                "run",
                "--gen",
                "4:60:clustered",
                "--merge",
                merge,
                "--clean",
                clean,
                "--report",
                str(report),
            ]
        )
        assert code == 0
        out[(merge, clean)] = [
            r for r in parse_report(report.read_text()) if r.get("type") == "event"
        ]
    assert out[("A", "A")] == out[("B", "B")]


def test_run_infeasible_budget_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "tight.cfg"
    cfgfile.write_text("latency_budget_300 = 100\n")
    code = run_cli(["run", "--gen", "1:10:uniform", "--freq", "300", "--config", str(cfgfile)])
    assert code == 1
    assert "INFEASIBLE" in capsys.readouterr().out


def test_compare_merge_table(capsys):
    code = run_cli(["compare", "--dimension", "merge", "--gen", "2:50:clustered"])
    out = capsys.readouterr().out
    assert code == 0
    lines = {l.split(",")[0].strip(): l for l in out.splitlines() if "," in l}
    assert "38" in lines["stage latency"] and "33" in lines["stage latency"]
    assert "34" in lines["stage ii"] and "33" in lines["stage ii"]
    assert "identical" in out


def test_compare_clean_table(capsys):
    code = run_cli(["compare", "--dimension", "clean", "--gen", "2:50:clustered"])
    out = capsys.readouterr().out
    assert code == 0
    lines = {l.split(",")[0].strip(): l for l in out.splitlines() if "," in l}
    assert "13" in lines["stage latency"] and "15" in lines["stage latency"]
    assert "identical" in out


def test_compare_divergence_dumps_counterexample(tmp_path, capsys):
    # a cone so wide that every seed sees all particles forces merge overflow,
    # where the two merge solutions legitimately pick different candidates
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text("filter_cone_r2 = 400000000\nsignal_cone_r2_max = 400000000\nsignal_cone_k = 2000000000\n")
    code = run_cli(
        ["compare", "--dimension", "merge", "--gen", "3:30:busy", "--config", str(cfgfile)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "divergence" in captured.err
    assert "counterexample" in captured.err
    assert "taupipe-events 1" in captured.err


def test_explore_known_operating_points(capsys):
    code = run_cli(["explore", "--freqs", "360,300"])
    out = capsys.readouterr().out
    assert code == 0
    rows = {l[:32].strip(): l[32:].split() for l in out.splitlines()[2:]}
    assert rows["ii budget, cycles"] == ["54", "45"]
    assert rows["latency budget, cycles"] == ["275", "220"]
    assert rows["cdc overhead, cycles"] == ["0", "10"]
    assert rows["feasible"] == ["yes", "yes"]
    achieved = [int(x) for x in rows["achieved latency, cycles"]]
    assert achieved[1] == achieved[0] + 10


EXPLORE_360_300 = """\
operating point exploration (gen 1:50:clustered, merge B, clean B)
                                     360 MHz     300 MHz
latency budget, cycles                   275         220
ii budget, cycles                         54          45
achieved latency, cycles                 200         210
achieved ii, cycles                       44          44
cdc overhead, cycles                       0          10
feasible                                 yes         yes
"""


def test_explore_without_a_source_generates_no_events(monkeypatch, capsys):
    # timing depends on the event count only, so the default 50 events are
    # never built
    def no_events(*args, **kwargs):
        raise AssertionError("explore generated events")

    monkeypatch.setattr(cli, "gen_events", no_events)
    assert run_cli(["explore", "--freqs", "360,300"]) == 0
    assert capsys.readouterr().out == EXPLORE_360_300


def test_explore_gen_reads_only_the_count(monkeypatch, capsys):
    def no_events(*args, **kwargs):
        raise AssertionError("explore generated events")

    monkeypatch.setattr(cli, "gen_events", no_events)
    assert run_cli(["explore", "--freqs", "360,300", "--gen", "1:2000:busy"]) == 0
    assert capsys.readouterr().out == EXPLORE_360_300.replace("1:50:clustered", "1:2000:busy")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("1:2000", "--gen expects SEED:COUNT:PROFILE"),
        ("1:x:busy", "--gen seed and count must be integers, got '1:x:busy'"),
        ("1:5:nope", "--gen profile must be one of ('uniform', 'clustered', 'busy'), got 'nope'"),
        ("1:-1:busy", "--gen count must be non-negative"),
    ],
)
def test_explore_rejects_bad_gen_specs(capsys, spec, message):
    assert run_cli(["explore", "--freqs", "360", "--gen", spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_explore_empty_freqs(capsys):
    assert run_cli(["explore", "--freqs", ""]) == 2
    assert "non-empty" in capsys.readouterr().err


def test_explore_bad_freqs(capsys):
    assert run_cli(["explore", "--freqs", "abc"]) == 2
    assert run_cli(["explore", "--freqs", "-5"]) == 2
    # 150 ns at 6 MHz is less than one cycle
    assert run_cli(["explore", "--freqs", "360,6"]) == 2
    assert "--freqs 6: all budget figures must be strictly positive" in capsys.readouterr().err


def test_run_from_event_file(tmp_path, capsys):
    ev = make_event(3, [make_particle(80, 100, 100), make_particle(10, 110, 105)])
    path = tmp_path / "events.txt"
    path.write_text(write_events([ev]))
    code = run_cli(["run", "--events", str(path)])
    assert code == 0
    assert "events: 1" in capsys.readouterr().out


def test_run_rejects_bad_config(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("frobnicate = 1\n")
    assert run_cli(["run", "--gen", "1:5:uniform", "--config", str(cfgfile)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "0"])
def test_run_rejects_non_positive_latency_budget(tmp_path, capsys, value):
    cfgfile = tmp_path / "budget.cfg"
    cfgfile.write_text(f"# budgets\nlatency_budget_360 = {value}\n")
    assert run_cli(["run", "--gen", "1:5:uniform", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert "latency_budget_360 must be positive" in err


def test_compare_prints_overridden_stage_rows(tmp_path, capsys):
    cfgfile = tmp_path / "merge20.cfg"
    cfgfile.write_text("stage.merging.latency = 20\n")
    code = run_cli(
        ["compare", "--dimension", "merge", "--gen", "2:50:clustered", "--config", str(cfgfile)]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = {l[:28].strip(): l[28:].split() for l in out.splitlines()[2:]}
    assert rows["stage latency, cycles"] == ["20", "20"]
    assert rows["measured latency, cycles"] == ["187", "187"]


def test_run_keeps_stage_override_under_merge_flag(tmp_path, capsys):
    # the override applies to whichever merge solution the flag selects
    cfgfile = tmp_path / "merge33.cfg"
    cfgfile.write_text("stage.merging.latency = 33\n")
    argv = ["run", "--gen", "1:20:clustered", "--merge", "A", "--config", str(cfgfile)]
    assert run_cli(argv) == 0
    assert "latency: 200 cycles  ii: 44 cycles" in capsys.readouterr().out


def test_run_merge_b_checks_its_own_cap_order_on_cone_overflow(tmp_path, capsys):
    # whole-plane cones overflow every seed's candidate cap, where the two
    # merge solutions keep different candidates
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text(
        "filter_cone_r2 = 400000000\nsignal_cone_r2_max = 400000000\nsignal_cone_k = 2000000000\n"
    )
    for merge in "AB":
        argv = ["run", "--gen", "3:30:busy", "--merge", merge, "--config", str(cfgfile)]
        assert run_cli(argv) == 0
        assert "oracle check: ok (30 events)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "setting, message",
    [
        ("fifo_depth = 0", "fifo_depth must be >= 1"),
        ("feed_period = -1", "feed_period must be non-negative"),
        ("hop_overheads = 1,1", "hop_overheads needs 7 entries"),
        ("stage.merging.ii = 0", "ii_cycles must be >= 1"),
        ("stage.merging.latency = -3", "cycle counts must be non-negative"),
        # a later valid key of the same record is not blamed
        ("hop_overheads = 1,-1,1,1,1,1,1\nfifo_depth = 4", "hop_overheads must be non-negative"),
        ("stage.merging.ii = 0\nstage.merging.latency = 5", "ii_cycles must be >= 1"),
    ],
)
def test_run_engine_and_stage_errors_name_the_line(tmp_path, capsys, setting, message):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"# timing\n{setting}\n")
    assert run_cli(["run", "--gen", "1:5:uniform", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert "line 2: " in err
    assert message in err


@pytest.mark.parametrize(
    "setting, line, message",
    [
        ("format_version = 2", 2, "unsupported config format_version 2"),
        ("n_filter_blocks = 5", 2, "n_filter_blocks * block_size must equal n_input"),
        ("phi_range = 3", 2, "phi_range must be a positive even number"),
        # a later key that the message does not name is not blamed
        ("n_filter_blocks = 5\nmin_tau_pt = 20", 2, "n_filter_blocks * block_size"),
        # among the keys the message names, the last one set is blamed
        ("block_size = 16\nphi_range = 2048\nn_input = 100", 4, "(got 4*16 != 100)"),
        ("max_taus = 9\nn_seeds = 8", 3, "max_taus must be in 1..n_seeds=8"),
        ("merge_solution = C\ncdc_overhead_cycles = 3", 2, "merge_solution must be one of"),
        ("ii_budget_ns = 3\nlatency_budget_300 = 200", 2, "less than one cycle at 300 MHz"),
    ],
    ids=["format-version", "block-math", "phi-range", "unnamed-later-key", "last-named-key",
         "max-taus", "run-config-later-key", "ii-budget-cycles"],
)
def test_run_config_constraint_errors_name_the_line(tmp_path, capsys, setting, line, message):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"# trigger\n{setting}\n")
    assert run_cli(["run", "--gen", "1:5:uniform", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}: " in err
    assert message in err


def test_run_report_to_unwritable_path_exits_two(tmp_path, capsys):
    report = tmp_path / "missing" / "r.jsonl"
    assert run_cli(["run", "--gen", "1:3:busy", "--report", str(report)]) == 2
    assert f"cannot write report {report}" in capsys.readouterr().err


def test_run_events_file_with_bad_utf8_names_the_line(tmp_path, capsys):
    path = tmp_path / "events.txt"
    path.write_bytes(b"taupipe-events 1\n0 0 50 0 0 charged_hadron\n0 1 50 0 0 \xff\xfe\n")
    assert run_cli(["run", "--events", str(path)]) == 2
    assert f"events {path}: line 3: not valid UTF-8" in capsys.readouterr().err


def test_run_config_with_bad_utf8_names_the_line(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_bytes(b"n_input = \xff\nfifo_depth = 8\n")
    assert run_cli(["run", "--gen", "1:2:busy", "--config", str(cfgfile)]) == 2
    assert f"config {cfgfile}: line 1: not valid UTF-8" in capsys.readouterr().err
