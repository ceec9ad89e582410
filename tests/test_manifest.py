"""Every CLI output of the hash manifest, regenerated and compared with its line.

A ``{name}`` argument is an input file written here (``INPUTS``); the CLI
runs in this process with DRIFTEST_THREADS=1, unless the line sets
variables before ``driftest``.
"""

import shlex
from pathlib import Path

import numpy as np
import pytest

from driftest.cli import main
from manifest import ENTRIES, check

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _zipf_stream(path):
    """perfbench's estimate input: 2^20 zipf(3) samples over 1..2^20 by inverse CDF, seed 0."""
    ranks = np.arange(1, 2**20 + 1, dtype=np.float64)
    cdf = np.cumsum(ranks**-3.0)
    cdf /= cdf[-1]
    u = np.random.default_rng(0).random(2**20)
    samples = np.minimum(np.searchsorted(cdf, u, side="right"), 2**20 - 1) + 1
    path.write_text("\n".join(map(str, samples.tolist())) + "\n")


SCENARIOS = {
    "iid": "kind = iid\nt = 2048\nseed = 0\nk = 20\n",
    "linear_1e-3": "kind = linear_drift\nt = 1024\nseed = 0\nk = 10\nstep_delta = 0.001\n",
    "linear_1e-2": "kind = linear_drift\nt = 512\nseed = 0\nk = 10\nstep_delta = 0.01\n",
    "abrupt": "kind = abrupt\nt = 32768\nseed = 0\nk = 10\nchange_point = 8192\n",
    "rotating": "kind = rotating_support\nt = 8192\nseed = 0\nk = 8\nperiod = 1\n",
    "geometric": ("kind = geometric_drift\nt = 4096\nseed = 0\ngeo_p_start = 0.3\n"
                  "geo_p_end = 0.45\n"),
    "zipf": "kind = zipf_drift\nt = 4096\nseed = 0\nzipf_s_start = 5.0\nzipf_s_end = 4.5\n",
}

INPUTS = {"zipf_2^20": _zipf_stream,
          **{f"{name}.cfg": lambda path, text=text: path.write_text(text)
             for name, text in SCENARIOS.items()}}

CLI = [command for command in ENTRIES if "driftest" in shlex.split(command)[:2]
       and "{distinct_2^22}" not in command]


@pytest.mark.parametrize("command", CLI)
def test_cli_output_matches_the_manifest(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTEST_THREADS", "1")
    words = shlex.split(command)
    while words[0] != "driftest":
        monkeypatch.setenv(*words.pop(0).split("=", 1))
    argv = []
    for word in words[1:]:
        if word.startswith("{"):
            INPUTS[word[1:-1]](tmp_path / word[1:-1])
            word = str(tmp_path / word[1:-1])
        argv.append(word)
    capsys.readouterr()
    assert main(argv) == 0
    check(command, [capsys.readouterr().out.encode()])


def test_the_manifest_covers_the_cli_lines_the_demos_and_the_distinct_samples():
    demos = [f"demo {path.name}" for path in DEMOS]
    assert [c for c in ENTRIES if c.startswith("demo ")] == demos
    assert [c for c in ENTRIES if c not in CLI and c not in demos] == [
        "driftest estimate --input {distinct_2^22} --output -"]
