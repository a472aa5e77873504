"""Fuzzing of the command line: any argv exits 0, 1 or 2, never with a traceback."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from taupipe.cli import main
from taupipe.core import Particle, make_event
from taupipe.eventio import write_events

# Path arguments are drawn by name and resolved to files made once per module.
FILES = {
    "@events": write_events([make_event(0, [Particle(80, 0, 0), Particle(10, 3, 4)])]),
    "@bad-events": "taupipe-events 1\n0 0 50 0 0 bogus\n",
    "@config": "fifo_depth = 4\nstage.merging.latency = 30\n",
    "@tight-config": "stage.tau_parameters.latency = 150\n",
    "@bad-config": "fifo_depth = 0\n",
    "@budget-key-config": "ii_budget_ns = 3\n",  # a constant, so an unknown key
}
BAD_UTF8 = b"taupipe-events 1\n0 0 50 0 \xff 0\n"
PATHS = [*FILES, "@bad-utf8", "@dir", "@missing", "@report", "@report-in-missing-dir"]

path = st.sampled_from(PATHS)
# The options of each subcommand, each with the values drawn for it.
OPTIONS = {
    "run": {
        "--events": path,
        "--gen": st.sampled_from(
            ["1:2:busy", "0:0:uniform", "3:3:clustered", "2:1:busy", "1:2", "x:1:busy",
             "1:-1:busy", "1:1:weird", ""]
        ),
        "--config": path,
        "--merge": st.sampled_from(["A", "B", "C"]),
        "--clean": st.sampled_from(["A", "B", "c"]),
        "--freq": st.sampled_from(["360", "300", "240", "x"]),
        "--report": path,
    },
    "explore": {
        "--config": path,
        "--freqs": st.sampled_from(["360,300", "300", "", "0", "6", "-5", "a,b", "240,100000"]),
    },
}
REQUIRED = {"explore": "--freqs"}
junk = st.one_of(st.sampled_from(["-h", "--bogus", "run", "--gen"]), st.text(max_size=6))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = OPTIONS[command]
    argv = [command]
    flags = [REQUIRED[command]] if command in REQUIRED else []
    for flag in flags + draw(st.lists(st.sampled_from(sorted(options)), max_size=5)):
        argv += [flag, draw(options[flag])]
    if draw(st.integers(0, 9)) == 0:  # now and then a stray token
        argv.insert(draw(st.integers(0, len(argv))), draw(junk))
    return argv


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    resolved = {}
    for name, text in FILES.items():
        resolved[name] = root / name[1:]
        resolved[name].write_text(text)
    resolved["@bad-utf8"] = root / "bad-utf8"
    resolved["@bad-utf8"].write_bytes(BAD_UTF8)
    resolved["@dir"] = root
    resolved["@missing"] = root / "missing"
    resolved["@report"] = root / "report.jsonl"
    resolved["@report-in-missing-dir"] = root / "missing" / "report.jsonl"
    return {name: str(p) for name, p in resolved.items()}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_any_argv_exits_with_a_documented_code(paths, argv):
    argv = [paths.get(token, token) for token in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2, --help exits 0
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
