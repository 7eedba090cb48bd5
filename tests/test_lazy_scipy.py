"""No decision path imports scipy; scipy.optimize is imported only when a linear program runs.

Each check runs in a fresh interpreter, because this test process may have
loaded scipy already.  The script takes a JSON list of CLI argument lists and
a flag saying whether the last call must load scipy.optimize; every other
call must leave every scipy module unloaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from channel_order.channels import Channel, channel_to_csv, erasure_channel, symmetric_channel
from channel_order.groups import cyclic_group

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

calls, last_loads = json.loads(sys.argv[1]), json.loads(sys.argv[2])
import channel_order
assert not scipy_modules(), ("import channel_order", scipy_modules())
from channel_order.cli import main
for i, argv in enumerate(calls):
    code = main(argv)
    assert code in (0, 1), (argv, code)
    if last_loads and i == len(calls) - 1:
        assert "scipy.optimize" in sys.modules, argv
    else:
        assert not scipy_modules(), (argv, scipy_modules())
"""


def run_calls(calls, last_loads=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(calls), json.dumps(last_loads)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def write(path, text):
    path.write_text(text)
    return str(path)


def test_decision_paths_do_not_load_scipy(tmp_path):
    w = write(tmp_path / "w.csv", channel_to_csv(symmetric_channel(3, 0.2)))
    near = write(tmp_path / "near.csv", channel_to_csv(symmetric_channel(3, 0.9)))
    far = write(tmp_path / "far.csv", channel_to_csv(symmetric_channel(3, 0.95)))
    erasure = write(tmp_path / "erasure.csv", channel_to_csv(erasure_channel(3, 0.4)))
    noise_w = write(tmp_path / "noise_w.csv", "0.8,0.1,0.1\n")
    noise_v = write(tmp_path / "noise_v.csv", "0.5,0.3,0.2\n")
    table = write(tmp_path / "group.json", cyclic_group(3).to_json())
    run_calls(
        [
            ["constants", "--q", "3", "--delta", "0.2"],
            ["check-degraded", "--w", w, "--v", near],
            ["check-degraded", "--w", w, "--v", far],
            ["check-degraded", "--additive", "--w", noise_w, "--v", noise_v],
            ["check-less-noisy", "--w", w, "--v", near],
            ["check-less-noisy", "--w", w, "--v", erasure],
            ["delta-star", "--v", near],
            ["region", "--delta", "0.2", "--grid", "8", "--out", str(tmp_path / "region.csv")],
            ["dirichlet-check", "--w", w, "--v", near, "--kind", "discrete"],
            ["group-validate", table],
        ]
    )


def test_lp_fallbacks_still_load_scipy(tmp_path):
    # a singular W has no unique candidate kernel; a tall W of full column
    # rank has one, A = W^+ V by least squares, and both orders skip the LP
    tall = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
    singular = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
    w = write(tmp_path / "w.csv", channel_to_csv(symmetric_channel(3, 0.2)))
    v = write(tmp_path / "v.csv", channel_to_csv(symmetric_channel(3, 0.5)))
    wt = write(tmp_path / "tall.csv", channel_to_csv(Channel(tall)))
    degraded = write(tmp_path / "degraded.csv", channel_to_csv(Channel(tall @ symmetric_channel(2, 0.3).matrix)))
    ws = write(tmp_path / "singular.csv", channel_to_csv(Channel(singular)))
    calls = [["check-degraded", "--w", w, "--v", v]]
    calls += [[command, "--w", wt, "--v", other] for command in ("check-degraded", "check-less-noisy")
              for other in (v, degraded)]
    run_calls(calls + [["check-degraded", "--w", ws, "--v", v]], last_loads=True)
