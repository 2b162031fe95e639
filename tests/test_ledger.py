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
    # on the Python and numpy versions, and the peaks by a few hundred bytes
    # between repeats, so the call totals are only checked present and the
    # peaks capped.
    forward = {"gd": iters + 1, "sgd": iters + 1, "epie": iters + 1,
               "interval": 2 * iters + 1}
    back = {"gd": iters + 1, "sgd": iters + 1, "epie": 2 * iters + 1,
            "interval": iters + 1}
    # Gathers (shift_stack, unshift_stack, unshift_sum), exactly: the
    # monitor gathers every accepted point each way, and the engine one row
    # more per step.  Interval's trials gather the points its monitor
    # reuses, and each step recomputes one curvature (the first both), a
    # shift_stack of |v|^2 or an unshift_sum of |z|^2, whose gather counts
    # under unshift_stack.
    gathers = {"gd": (iters + 1, iters + 1, 0), "sgd": (iters + 1, iters + 1, 0),
               "epie": (iters + 1, 2 * iters + 1, 0)}
    interval = {"small-d8": (497, 306, 105), "sparse-d100-padded": (502, 301, 100)}
    for shape, regions in (("small-d8", 8), ("sparse-d100-padded", 40)):
        gathers["interval"] = interval[shape]
        for algorithm in forward:
            key = f"{shape}/{algorithm}"
            assert ledger[f"{key}/dft"] == forward[algorithm], key
            assert ledger[f"{key}/dft_adjoint"] == back[algorithm], key
            assert ledger[f"{key}/dft_rows"] == regions * forward[algorithm], key
            engine = iters if algorithm == "epie" else 0
            assert ledger[f"{key}/dft_adjoint_rows"] == regions * (iters + 1) + engine, key
            counts = tuple(ledger[f"{key}/{name}"]
                           for name in ("shift_stack", "unshift_stack", "unshift_sum"))
            assert counts == gathers[algorithm], key
            # every gather takes all R rows but the engine's, which takes one
            assert ledger[f"{key}/shift_stack_rows"] == regions * counts[0], key
            assert ledger[f"{key}/unshift_stack_rows"] == \
                regions * (counts[1] - engine) + engine, key
            assert ledger[f"{key}/calls_per_iter"] > 0
            assert ledger[f"{key}/peak_bytes"] > 0
            assert ledger[f"{key}/peak_rd_arrays"] > 0
    # the sparse shape's peaks, in complex (R, d) arrays
    caps = {"gd": 8.5, "sgd": 8.5, "epie": 8.5, "interval": 13.0}
    for algorithm, cap in caps.items():
        assert ledger[f"sparse-d100-padded/{algorithm}/peak_rd_arrays"] <= cap, algorithm
    assert len(ledger) == 1 + 2 * 4 * 12


def test_ledger_usage():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("usage:")
