"""Record the digests the figure workloads compare their panels with.

    python3 perfbench/record_goldens.py

Run from the root of a checkout whose figure output is known good; it
renders every panel the fig2-panel and fig5-panel workloads can draw
(cache off) and rewrites ``perfbench/goldens.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    import common
    import figures

    root = common.checkout_root()
    goldens = {}
    for figure in (figures.FIG2, figures.FIG5):
        common.prepare(root, f"record-{figure.name}", 0, False, figure.env)
        goldens[figure.name] = figures.record(figure)
    with open(figures.GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
