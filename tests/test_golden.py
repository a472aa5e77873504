"""Pinned output digests: the gate for any speed-up of the functional model.

Every value below was captured before the per-particle hot path was
optimised.  A change that alters a report byte, a generated event or an
operation count fails here, whatever its speed.

The report digests were re-pinned once, for report format v2, which drops
the two per-stage counters that were constant or derived (events fired and
busy cycles): against the v1 reports, every event record was byte-identical
and each metrics record equalled v1's without those two keys.  The generated-event digests and the
operation totals were not touched.
"""

import hashlib

import pytest

from taupipe.cli import main
from taupipe.core import OpCounter
from taupipe.eventio import gen_events, load_config, write_events
from taupipe.stages import TriggerConfig, run_stages

DENSE_CONFIG = (
    "filter_cone_r2 = 400000000\n"
    "signal_cone_r2_max = 400000000\n"
    "signal_cone_k = 2000000000\n"
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv, config, digest",
    [
        (
            ["--gen", "1:40:busy"],
            None,
            "22c74cd3e7741021137564c3a9d5f97216a94715a8a4a634fe32f35c1cce7f00",
        ),
        (
            ["--gen", "1:60:uniform", "--freq", "300"],
            "min_seed_pt = 200\n",
            "0520b8b8dae58e7d5279b63c8c97111b727c25abccaa0f385ec6871bcaced9fa",
        ),
        (
            ["--gen", "1:30:busy", "--merge", "A", "--clean", "A"],
            DENSE_CONFIG,
            "f057e3c88762b7c12efe2e611fd87caff6c8f4931678bcfcb313871f58c03884",
        ),
    ],
    ids=["busy", "sparse-300mhz", "dense-overflow"],
)
def test_report_digest_pinned(tmp_path, argv, config, digest):
    report = tmp_path / "report.jsonl"
    full = ["run", *argv, "--report", str(report)]
    if config is not None:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        full += ["--config", str(cfgfile)]
    assert main(full) == 0
    assert sha256(report.read_bytes()) == digest


@pytest.mark.parametrize(
    "profile, digest",
    [
        ("uniform", "4f74fa69dc7d9287a7a8f7c67173ab1de9d5f824dd75850e5912521ef6fc148a"),
        ("clustered", "794415cdfb19dd902aa516a1b8b52422b901aedc5c6beae5a509b5c4373a37db"),
        ("busy", "3abdc708ea8eb42d67758aa4a1bf44e531554294e9ba7ae5f8d30158d7a4f81a"),
    ],
)
def test_generated_events_digest_pinned(profile, digest):
    assert sha256(write_events(gen_events(1, 200, profile)).encode()) == digest


def test_op_totals_pinned():
    cfg = TriggerConfig()
    ops = OpCounter()
    for event in gen_events(1, 50, "busy", cfg):
        run_stages(event, cfg, "B", "B", ops)
    assert ops == OpCounter(157801, 1424, 92268)


@pytest.mark.parametrize(
    "config, profile, merge, clean, totals",
    [
        ("", "busy", "A", "A", (157801, 1424, 86688)),
        ("", "clustered", "A", "B", (73824, 1460, 52078)),
        ("", "clustered", "B", "A", (73824, 1460, 62914)),
        (DENSE_CONFIG, "busy", "A", "A", (224308, 1518, 172870)),
        (DENSE_CONFIG, "busy", "B", "B", (223185, 1500, 205219)),
    ],
    ids=["busy-AA", "clustered-AB", "clustered-BA", "whole-plane-AA", "whole-plane-BB"],
)
def test_op_totals_pinned_per_pair(config, profile, merge, clean, totals):
    cfg = load_config(config).trigger
    ops = OpCounter()
    for event in gen_events(1, 50, profile):
        run_stages(event, cfg, merge, clean, ops)
    assert ops == OpCounter(*totals)
