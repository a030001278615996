"""The scripts under scripts/, run as a user runs them."""

import os
import pathlib
import subprocess
import sys

from strforge.pipeline import all_combinations, assemble

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_describe_all_lists_every_combination():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "describe_all.py"),
                           "--scale", "0.125"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    cfgs = all_combinations(scale=0.125)
    assert len(rows) == len(cfgs) == 24
    for i, (row, cfg) in enumerate(zip(rows, cfgs), start=1):
        assert row[:2] == [str(i), cfg.name]
        assert int(row[2].replace(",", "")) == assemble(cfg).param_element_count()
