"""Replay the benchmark's golden digests.

Each workload of bench/workloads.py is built at seed 0, as
`bench/run.py --record-golden` builds it, and every command runs through
`reflexorb.cli.main`. Its stdout, with the input hash and oracle seed
masked by `workloads.normalized_digest`, must match bench/golden.json. The
benchmark files are only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from reflexorb.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """workload -> its commands at seed 0, with their input files written."""
    return {
        w: workloads.build(w, 0, tmp_path_factory.mktemp(w)) for w in workloads.WORKLOADS
    }


def test_every_golden_key_is_built(commands):
    assert {c.key for cmds in commands.values() for c in cmds} == set(GOLDEN)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_matches_golden(workload, commands, capsys):
    mismatches = []
    for cmd in commands[workload]:
        code = main(list(cmd.argv))
        digest = workloads.normalized_digest(cmd, capsys.readouterr().out)
        if code != 0 or digest != GOLDEN.get(cmd.key):
            mismatches.append(f"{cmd.key} (exit {code})")
    assert mismatches == []
