#!/usr/bin/env python3
"""Fills the measured tables of EXPERIMENTS.md from the CSVs under results/.

Each table sits between a begin marker `<!-- Ex-MEASURED -->` and an end
marker `<!-- /Ex-MEASURED -->`; only the text between the two is rewritten,
so the prose around a table survives a re-run. A section missing either
marker is skipped. Idempotent."""
import csv
import io
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
DOC = ROOT / "EXPERIMENTS.md"


def table(rows, headers):
    out = io.StringIO()
    out.write("| " + " | ".join(headers) + " |\n")
    out.write("|" + "---|" * len(headers) + "\n")
    for row in rows:
        out.write("| " + " | ".join(str(c) for c in row) + " |\n")
    return out.getvalue()


def load(name):
    path = RESULTS / name
    if not path.exists():
        return None
    with open(path) as f:
        return list(csv.DictReader(f))


def fmt_pct(x):
    return f"{float(x) * 100:.2f}%"


def e1():
    rows = load("e1_minsup_sweep.csv")
    if not rows:
        return None
    # Per dataset: one row per minsup with three algorithm times.
    out = []
    datasets = []
    for r in rows:
        if r["dataset"] not in datasets:
            datasets.append(r["dataset"])
    for ds in datasets:
        sub = [r for r in rows if r["dataset"] == ds]
        minsups = []
        for r in sub:
            if r["minsup"] not in minsups:
                minsups.append(r["minsup"])
        body = []
        for m in minsups:
            cells = {r["algorithm"]: r for r in sub if r["minsup"] == m}
            aa = cells.get("apriori-all")
            some = cells.get("apriori-some")
            dyn = cells.get("dynamic-some(step=2)")
            body.append(
                [
                    fmt_pct(m),
                    f"{float(aa['seconds']):.2f}" if aa else "-",
                    f"{float(some['seconds']):.2f}" if some else "-",
                    f"{float(dyn['seconds']):.2f}" if dyn else "-",
                    aa["patterns"] if aa else "-",
                ]
            )
        out.append(f"**{ds}**\n\n" + table(body, ["minsup", "apriori-all s", "apriori-some s", "dynamic-some s", "patterns"]))
    return "\n".join(out)


def e2():
    rows = load("e2_relative.csv")
    if not rows:
        return None
    body = [
        [fmt_pct(r["minsup"]), "1.00", f"{float(r['apriori_some']):.2f}", f"{float(r['dynamic_some']):.2f}"]
        for r in rows
    ]
    return table(body, ["minsup", "apriori-all", "apriori-some", "dynamic-some"])


def e3():
    rows = load("e3_scaleup_customers.csv")
    if not rows:
        return None
    body = [
        [r["customers"], r["algorithm"], f"{float(r['seconds']):.3f}", f"{float(r['relative']):.2f}"]
        for r in rows
    ]
    return table(body, ["|D|", "algorithm", "seconds", "relative"])


def e4():
    rows = load("e4_scaleup_ctrans.csv")
    if not rows:
        return None
    body = [
        [r["avg_transactions"], r["algorithm"], f"{float(r['seconds']):.3f}", f"{float(r['relative']):.2f}"]
        for r in rows
    ]
    return table(body, ["|C|", "algorithm", "seconds", "relative"])


def e5():
    rows = load("e5_passes.csv")
    if not rows:
        return None
    body = [
        [r["algorithm"], r["k"], r["direction"], r["generated"], r["counted"], r["pruned"], r["large"]]
        for r in rows
    ]
    return table(body, ["algorithm", "k", "direction", "generated", "counted", "pruned", "large"])


def e6():
    rows = load("e6_prefixspan.csv")
    if not rows:
        return None
    body = [
        [fmt_pct(r["minsup"]), r["algorithm"], f"{float(r['seconds']):.3f}", r["patterns"]]
        for r in rows
    ]
    return table(body, ["minsup", "algorithm", "seconds", "maximal patterns"])


def e7():
    rows = load("e7_ablation.csv")
    if not rows:
        return None
    body = [
        [
            r["strategy"],
            r["fanout"] or "-",
            r["leaf_capacity"] or "-",
            r["threads"],
            f"{float(r['seconds']):.3f}",
            r["containment_tests"],
            r["join_ops"],
            r["sstep_ops"],
        ]
        for r in rows
    ]
    return table(
        body,
        [
            "strategy",
            "fanout",
            "leaf cap",
            "threads",
            "seconds",
            "containment tests",
            "joins",
            "sstep ops",
        ],
    )


def e8():
    rows = load("e8_gsp_constraints.csv")
    if not rows:
        return None
    body = [
        [r["constraints"], f"{float(r['seconds']):.3f}", r["frequent"], r["multi_element"]]
        for r in rows
    ]
    return table(body, ["constraints", "seconds", "frequent", "multi-element"])


def main():
    doc = DOC.read_text()
    sections = {
        "E1": e1(),
        "E2": e2(),
        "E3": e3(),
        "E4": e4(),
        "E5": e5(),
        "E6": e6(),
        "E7": e7(),
        "E8": e8(),
    }
    for key, content in sections.items():
        if content is None:
            print(f"{key}: no CSV yet, skipped", file=sys.stderr)
            continue
        begin = f"<!-- {key}-MEASURED -->"
        end = f"<!-- /{key}-MEASURED -->"
        if begin not in doc or end not in doc:
            print(f"{key}: begin or end marker missing, skipped", file=sys.stderr)
            continue
        # Replace only what lies between the two markers.
        pattern = re.compile(re.escape(begin) + r".*?" + re.escape(end), re.S)
        filled = begin + "\n\n" + content.rstrip() + "\n" + end
        doc = pattern.sub(lambda _: filled, doc, count=1)
        print(f"{key}: filled")
    DOC.write_text(doc)


if __name__ == "__main__":
    main()
