"""``tools/ledger.py`` runs on this tree and counts each solver's transforms."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ledger.py"


def test_ledger_counts_transforms():
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ledger = json.loads(proc.stdout)
    assert list(ledger) == sorted(ledger)
    iters = ledger["iters"]
    # The monitor transforms every accepted point once, forward and back;
    # interval's second gamma trial adds a forward transform per step and
    # the engine's own residual a back transform.  Each monitor transform
    # takes all R rows, the engine's residual one.  The call totals depend
    # on the Python and numpy versions, and the peak bytes by a few hundred
    # between repeats, so only their presence is checked.
    forward = {"gd": iters + 1, "sgd": iters + 1, "epie": iters + 1,
               "interval": 2 * iters + 1}
    back = {"gd": iters + 1, "sgd": iters + 1, "epie": 2 * iters + 1,
            "interval": iters + 1}
    for shape, regions in (("small-d8", 8), ("sparse-d100-padded", 40)):
        for algorithm in forward:
            key = f"{shape}/{algorithm}"
            assert ledger[f"{key}/dft"] == forward[algorithm], key
            assert ledger[f"{key}/dft_adjoint"] == back[algorithm], key
            assert ledger[f"{key}/dft_rows"] == regions * forward[algorithm], key
            engine = iters if algorithm == "epie" else 0
            assert ledger[f"{key}/dft_adjoint_rows"] == regions * (iters + 1) + engine, key
            assert ledger[f"{key}/shift_stack"] >= iters + 1
            # the monitor's adjoint gather
            assert ledger[f"{key}/unshift_stack"] + ledger[f"{key}/unshift_sum"] \
                >= iters + 1
            # the monitor gathers all R rows each way, the engine one row
            # more per step; interval's trials and curvatures gather more
            gathered = regions * (iters + 1)
            if algorithm == "interval":
                assert ledger[f"{key}/shift_stack_rows"] > gathered, key
                assert ledger[f"{key}/unshift_stack_rows"] > gathered, key
            else:
                assert ledger[f"{key}/shift_stack_rows"] == gathered, key
                assert ledger[f"{key}/unshift_stack_rows"] == gathered + engine, key
            assert ledger[f"{key}/calls_per_iter"] > 0
            assert ledger[f"{key}/peak_bytes"] > 0
    assert len(ledger) == 1 + 2 * 4 * 11


def test_ledger_usage():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("usage:")
