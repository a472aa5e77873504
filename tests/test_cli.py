import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import taupipe
import taupipe.cli as cli
from taupipe.cli import build_parser, main
from taupipe.core import Particle, make_event
from taupipe.eventio import gen_events, parse_events, parse_report, write_events
from taupipe.reference import oracle_trigger
from taupipe.stages import TriggerConfig, run_stages


def run_cli(argv):
    return main(argv)


def test_run_with_generated_events(tmp_path, capsys):
    report = tmp_path / "out.jsonl"
    code = run_cli(["run", "--gen", "1:100:clustered", "--freq", "300", "--report", str(report)])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
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
    ev.write_text(write_events([make_event(0, [Particle(50, 0, 0)])]))
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
    # a slow tau_parameters stage takes the latency to 301 > 220 at 300 MHz
    cfgfile = tmp_path / "slow.cfg"
    cfgfile.write_text("stage.tau_parameters.latency = 150\n")
    code = run_cli(["run", "--gen", "1:10:uniform", "--freq", "300", "--config", str(cfgfile)])
    assert code == 1
    out = capsys.readouterr().out
    assert "latency: 301 cycles" in out
    assert "INFEASIBLE" in out


def test_explore_known_operating_points(capsys):
    code = run_cli(["explore", "--freqs", "360,300"])
    out = capsys.readouterr().out
    assert code == 0
    rows = {l[:32].strip(): l[32:].split() for l in out.splitlines()[2:]}
    assert rows["latency budget, cycles"] == ["275", "220"]
    assert rows["ii budget, cycles"] == ["54", "45"]
    assert rows["cdc overhead, cycles"] == ["0", "10"]
    latencies = {"A, clean A": 203, "A, clean B": 205, "B, clean A": 198, "B, clean B": 200}
    for pair, latency in latencies.items():
        assert rows[f"merge {pair}: latency"] == [str(latency), str(latency + 10)]
        assert rows[f"merge {pair}: ii"] == ["44", "44"]
        assert rows[f"merge {pair}: feasible"] == ["yes", "yes"]
    assert len(rows) == 3 + 3 * len(latencies)


EXPLORE_360_300 = """\
operating point exploration (gen 1:50:clustered)
                                     360 MHz     300 MHz
latency budget, cycles                   275         220
ii budget, cycles                         54          45
cdc overhead, cycles                       0          10
merge A, clean A: latency                203         213
merge A, clean A: ii                      44          44
merge A, clean A: feasible               yes         yes
merge A, clean B: latency                205         215
merge A, clean B: ii                      44          44
merge A, clean B: feasible               yes         yes
merge B, clean A: latency                198         208
merge B, clean A: ii                      44          44
merge B, clean A: feasible               yes         yes
merge B, clean B: latency                200         210
merge B, clean B: ii                      44          44
merge B, clean B: feasible               yes         yes
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
        # an II is the spacing of consecutive events: one event measures none
        ("1:0:busy", "explore needs at least 2 events to measure an II, got 0"),
        ("1:1:busy", "explore needs at least 2 events to measure an II, got 1"),
    ],
)
def test_explore_rejects_bad_gen_specs(capsys, spec, message):
    assert run_cli(["explore", "--freqs", "360", "--gen", spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_explore_refuses_a_one_event_file(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text(write_events([make_event(0, [Particle(50, 0, 0)])]))
    assert run_cli(["explore", "--freqs", "360", "--events", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: explore needs at least 2 events to measure an II, got 1\n"


@pytest.mark.parametrize("source", ["gen", "events"])
def test_run_refuses_zero_events(tmp_path, capsys, source):
    path = tmp_path / "empty.txt"
    path.write_text(write_events([]))  # the header line only
    argv = ["--gen", "1:0:busy"] if source == "gen" else ["--events", str(path)]
    assert run_cli(["run", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: run needs at least 1 event, got 0\n"


def test_explore_empty_freqs(capsys):
    assert run_cli(["explore", "--freqs", ""]) == 2
    assert "non-empty" in capsys.readouterr().err


def test_explore_bad_freqs(capsys):
    assert run_cli(["explore", "--freqs", "abc"]) == 2
    assert run_cli(["explore", "--freqs", "-5"]) == 2
    # 150 ns at 6 MHz is less than one cycle
    assert run_cli(["explore", "--freqs", "360,6"]) == 2
    assert "--freqs 6: all budget figures must be strictly positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["run", "--gen", "1_0:+2:busy"],
            "--gen seed and count must be integers, got '1_0:+2:busy'",
        ),
        (
            ["run", "--gen", "\u0661:\u0662:busy"],
            "--gen seed and count must be integers, got '\u0661:\u0662:busy'",
        ),
        (
            ["explore", "--gen", "1:2:busy", "--freqs", "+300,3_60"],
            "--freqs values must be integers, got '+300,3_60'",
        ),
        (["run", "--gen", "1:2:busy", "--freq", "+300"], "--freq: invalid int value: '+300'"),
        (["run", "--gen", "1:2:busy", "--freq", "\uff13\uff10\uff10"], "--freq: invalid int value"),
    ],
    ids=["gen-underscore-plus", "gen-arabic-digits", "freqs-plus-underscore", "freq-plus",
         "freq-fullwidth"],
)
def test_command_line_integers_are_ascii_decimal(capsys, argv, message):
    # int() takes '_', a '+' sign and non-ASCII digits; the files do not, nor
    # does the command line
    try:
        code = run_cli(argv)
    except SystemExit as exc:  # argparse rejects an option value itself
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_readme_cli_block_names_the_parser_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    named = {line.split()[1] for line in block.splitlines() if line.startswith("taupipe ")}
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert named == set(subparsers.choices)


def test_run_from_event_file(tmp_path, capsys):
    # one event is enough: the counterexample minimiser writes one-event files
    ev = make_event(3, [Particle(80, 100, 100), Particle(10, 110, 105)])
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


def test_explore_applies_stage_overrides_to_every_pair(tmp_path, capsys):
    cfgfile = tmp_path / "merge20.cfg"
    cfgfile.write_text("stage.merging.latency = 20\n")
    code = run_cli(["explore", "--freqs", "360", "--gen", "2:50:clustered", "--config", str(cfgfile)])
    out = capsys.readouterr().out
    assert code == 0
    rows = {l[:32].strip(): l[32:].split() for l in out.splitlines()[2:]}
    # merging (20) may not complete before filtering (38): it starts 18
    # cycles after filtering does, not offset 4 + hop 1 = 5, so either merge
    # solution gives the same latency
    latencies = {"A, clean A": 198, "A, clean B": 200, "B, clean A": 198, "B, clean B": 200}
    for pair, latency in latencies.items():
        assert rows[f"merge {pair}: latency"] == [str(latency)]


def test_explore_ignores_the_configured_solution_pair(tmp_path, capsys):
    # merge_solution and clean_solution only pick run's default pair
    cfgfile = tmp_path / "aa.cfg"
    cfgfile.write_text("merge_solution = A\nclean_solution = A\n")
    assert run_cli(["explore", "--freqs", "360,300", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out == EXPLORE_360_300


def test_compare_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["compare", "--dimension", "merge", "--gen", "2:50:clustered"])
    assert exc.value.code == 2
    assert "invalid choice: 'compare'" in capsys.readouterr().err


def test_run_keeps_stage_override_under_merge_flag(tmp_path, capsys):
    # the override applies to whichever merge solution the flag selects
    cfgfile = tmp_path / "merge33.cfg"
    cfgfile.write_text("stage.merging.latency = 33\n")
    argv = ["run", "--gen", "1:20:clustered", "--merge", "A", "--config", str(cfgfile)]
    assert run_cli(argv) == 0
    assert "latency: 200 cycles  ii: 44 cycles" in capsys.readouterr().out


@pytest.mark.parametrize(
    "setting, figures",
    [
        # the defaults give 200/44; cleaning's hop of 2 is latency only
        ("stage.cleaning.hop = 0", "latency: 198 cycles  ii: 44 cycles"),
        # seeding's spacing loop, 43 + 1, sets the II, so its hop is both
        ("stage.seeding.hop = 0", "latency: 199 cycles  ii: 43 cycles"),
    ],
)
def test_run_takes_stage_hops_from_the_config(tmp_path, capsys, setting, figures):
    cfgfile = tmp_path / "hop.cfg"
    cfgfile.write_text(f"{setting}\n")
    assert run_cli(["run", "--gen", "1:50:busy", "--config", str(cfgfile)]) == 0
    assert figures in capsys.readouterr().out


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


def _drop_last_tau_of_busy_events(ev, *args, **kwargs):
    """``run_stages`` with a fault that shows only on events with more than
    three valid particles."""
    taus = run_stages(ev, *args, **kwargs)
    return taus[:-1] if sum(p.valid for p in ev.particles) > 3 else taus


def test_run_writes_a_minimised_counterexample_on_divergence(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_stages", _drop_last_tau_of_busy_events)
    assert run_cli(["run", "--gen", "1:5:clustered"]) == 1
    captured = capsys.readouterr()
    assert "oracle check: DIVERGENT at event 0" in captured.out
    head, _, text = captured.err.partition("counterexample event:\n")
    assert head == ""
    [minimised] = parse_events(text)
    original = gen_events(1, 1, "clustered")[0]
    assert minimised.event_id == original.event_id
    cfg = TriggerConfig()
    assert _drop_last_tau_of_busy_events(minimised, cfg) != oracle_trigger(minimised, cfg, "B")
    n_valid = [sum(p.valid for p in ev.particles) for ev in (minimised, original)]
    assert 3 < n_valid[0] < n_valid[1]


@pytest.mark.parametrize(
    "setting, message",
    [
        ("fifo_depth = 0", "fifo_depth must be >= 1"),
        ("stage.merging.ii = 0", "ii_cycles must be >= 1"),
        ("stage.merging.latency = -3", "cycle counts must be non-negative"),
        ("stage.cleaning.hop = -1", "stage cleaning: cycle counts must be non-negative"),
        # a later valid key of the same record is not blamed
        ("merge_solution = C\nfifo_depth = 4", "merge_solution must be one of"),
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
        # a later key that the message does not name is not blamed
        ("signal_cone_r2_min = 20000\nmin_tau_pt = 20", 2, "signal_cone_r2_min must not exceed"),
        # among the keys the message names, the last one set is blamed
        (
            "signal_cone_r2_max = 100\nmin_tau_pt = 20\nsignal_cone_r2_min = 200",
            4,
            "(got 200 > 100)",
        ),
        ("merge_solution = C\nclean_solution = A", 2, "merge_solution must be one of"),
    ],
    ids=["format-version", "unnamed-later-key", "last-named-key", "run-config-later-key"],
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


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_importing_the_cli_loads_only_the_standard_library(flags):
    # The package promises no runtime dependencies, and every run pays for
    # what the import loads, whatever else happens to be installed.
    probe = (
        "import sys; before = set(sys.modules); import taupipe.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(taupipe.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, *flags, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    added = set(done.stdout.split())
    assert "taupipe" in added
    assert added - {"taupipe"} <= sys.stdlib_module_names, added - sys.stdlib_module_names
