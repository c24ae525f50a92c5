#!/usr/bin/env python3
"""Checks the CSV that `perf_cancel --csv` writes.

Every row must report exact incremental accounting (`exact`) and a valid
schedule on the residual instance (`valid`), and at least one row with
cancellations must have refunded busy time.  Exits non-zero on the first
failure.

Usage: check_perf_cancel.py PERF_CANCEL_CSV
"""

import csv
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1], newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) >= 12, rows
    for r in rows:
        assert r["exact"] == "yes", r
        assert r["valid"] == "yes", r
    cancelled = [r for r in rows if float(r["cancel_rate"]) > 0]
    assert any(int(r["refunded"]) > 0 for r in cancelled), cancelled
    print("cancel smoke ok:", len(rows), "rows, refunds exact")


if __name__ == "__main__":
    main()
