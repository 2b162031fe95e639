"""``tools/same_bits.py`` runs on this tree and prints one digest per output."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_bits.py"


def test_same_bits_smoke():
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)
    assert list(digests) == sorted(digests)
    # 3 shapes x 3 seeds x (problem + 7 solvers x 4 outputs), 3 verify runs and
    # the problem-file error texts; sgd-epie is rejected at K = 4, one error
    # digest instead of four
    assert len(digests) == 3 * 3 * (1 + 7 * 4) + 3 + 1 - 3 * (4 - 1)
    assert "errors/problem_json" in digests
    assert "sparse-d100-padded/seed0/sgd-epie/error" in digests
    assert "small-d8/seed0/sgd-epie/error" not in digests
    assert "sparse-d100-padded-k1/seed0/sgd-epie/trace" in digests
    assert all(re.fullmatch("[0-9a-f]{64}", value) for value in digests.values())
    empty = hashlib.sha256(b"").hexdigest()
    assert digests["small-d8/seed0/gd/interval_steps"] == empty
    assert digests["small-d8/seed0/interval-g5/interval_steps"] != empty
    # different seeds give different problems
    assert digests["small-d8/seed0/problem_json"] != digests["small-d8/seed1/problem_json"]


def test_same_bits_usage():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("usage:")
