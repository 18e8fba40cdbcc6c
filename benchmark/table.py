"""Prints the tables of a `run.sh` run and judges it.

usage: table.py BENCHMARK.json OUT_DIR SETS

Reads OUT_DIR/set<i>.<workload>.{e2e,layers}.json (the result lines
`mfn-benchmark` printed). Exit status 1 if any run reported an incorrect
output or a failed operation, if an additive check is beyond 15 %, or — with
two or more sets — if the spread of any end-to-end metric exceeds its bound.
"""

import json
import statistics
import sys

ADDITIVE_TOLERANCE = 0.15


def load(path):
    with open(path) as f:
        text = f.read().strip()
    if not text:
        sys.exit(f"{path}: the run printed no result; see the .log next to it")
    return json.loads(text)


def spread(values):
    """Inter-quartile distance over the median, as the contract takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec_path, out, sets = sys.argv[1], sys.argv[2], int(sys.argv[3])
    spec = load(spec_path)
    workloads = [w["name"] for w in spec["workloads"]]
    bad = []

    print(f"\nEnd-to-end metrics, median of {sets} set(s)")
    head = f"{'workload':<16}" + "".join(f"{m['name'] + ' [' + m['unit'] + ']':>24}" for m in spec["end_to_end"])
    print(head)
    spreads = {}
    for w in workloads:
        runs = [load(f"{out}/set{s}.{w}.e2e.json") for s in range(1, sets + 1)]
        for s, r in enumerate(runs, 1):
            if not r["correct"] or r["failed"]:
                bad.append(f"{w} set {s}: correct={r['correct']} failed={r['failed']}/{r['attempted']}")
        row = f"{w:<16}"
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            row += f"{statistics.median(values):>24.4f}"
            if sets >= 2:
                spreads[(w, m["name"])] = (spread(values), m["bound"])
        print(row)

    if spreads:
        print("\nSpread (inter-quartile distance / median) against each bound")
        print(head)
        for w in workloads:
            row = f"{w:<16}"
            for m in spec["end_to_end"]:
                got, bound = spreads[(w, m["name"])]
                over = got > bound
                row += f"{f'{got:.3f} / {bound:.2f}' + ('!' if over else ''):>24}"
                if over:
                    bad.append(f"{w} {m['name']}: spread {got:.3f} exceeds bound {bound}")
            print(row)

    print("\nPer-layer metrics, traced run of set 1 (0 = the workload's operations never enter that layer)")
    layers = {w: load(f"{out}/set1.{w}.layers.json") for w in workloads}
    print(f"{'metric [unit]':<40}" + "".join(f"{w:>16}" for w in workloads))
    for m in spec["per_layer"]:
        row = f"{m['name'] + ' [' + m['unit'] + ']':<40}"
        for w in workloads:
            row += f"{layers[w]['metrics'][m['name']]['value']:>16.4g}"
        print(row)
    for w, r in layers.items():
        if not r["correct"] or r["failed"]:
            bad.append(f"{w} traced: correct={r['correct']} failed={r['failed']}/{r['attempted']}")
        err = r["metrics"]["trace.additive_error"]["value"]
        if err > ADDITIVE_TOLERANCE:
            bad.append(f"{w}: additive check off by {err:.3f}")

    for line in bad:
        print("FAIL", line)
    print('\n{"claim": null}')
    sys.exit(1 if bad else 0)


main()
