"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/budget/compare.py PARENT.json... -- CHANGE.json...

Each file is what ``run.py --out FILE`` wrote (runs may be appended to
one file).  Untraced runs are grouped by workload; the i-th run of a
workload on one side pairs with the i-th on the other, so run the two
sides alternately.  For every (metric, workload) it prints each side's
median and quartiles, the share of pairs the change won, and a verdict
(``stats.verdict``) against the metric's bound: the one in
``BENCHMARK.json`` for the gated metrics, the one in ``spec.py`` for
the metrics only some workloads have.

Exit code 1 when any pair regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spec
import stats

ROOT = Path(__file__).resolve().parents[2]


def bounds() -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}``, ``BENCHMARK.json`` first."""
    out = {m.name: (m.better, m.bound) for m, _ in spec.REPORTED}
    out.update({m.name: (m.better, m.bound) for m in spec.END_TO_END})
    gated = ROOT / "BENCHMARK.json"
    if gated.exists():
        for m in json.loads(gated.read_text())["end_to_end"]:
            out[m["name"]] = (m["better"], m["bound"])
    return out


def load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per untraced run, in order]}``."""
    out: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["trace"]:
                continue
            for metric, (value, _note) in run["end_to_end"].items():
                out.setdefault((run["workload"], metric), []).append(value)
    return out


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent, change = load(argv[:split]), load(argv[split + 1 :])
    rules = bounds()
    regressed = False
    def side(values):
        q1, median, q3 = stats.quartiles(values)
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    print(f"{'workload':<16} {'metric':<24} {'parent median [q1, q3]':<28} {'change median [q1, q3]':<28} {'wins':>5}  verdict")
    for key in sorted(parent.keys() & change.keys()):
        workload, metric = key
        better, bound = rules[metric]
        n = min(len(parent[key]), len(change[key]))
        a, b = parent[key][:n], change[key][:n]
        verdict, share = stats.verdict(a, b, better=better, bound=bound)
        regressed = regressed or verdict == "regressed"
        print(
            f"{workload:<16} {metric:<24} {side(a):<28} {side(b):<28} {share:>5.0%}  "
            f"{verdict} (bound {bound:g}, {n} pairs)"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
