#!/usr/bin/env python3
"""Bench regression gate for the binary query protocol, the
runtime-model build and composition (CI).

Reads `go test -bench -benchmem` output on stdin, writes every parsed
benchmark as JSON (the BENCH_6.json artifact), and fails when the
binary serving hot paths, rtmodel.Build, resolving XScluster, a whole
cold XScluster load (parse, resolve, analyze, build, fingerprint) or
readying its snapshot for publishing (selector indexes, summary, tree)
allocate more per operation than the checked-in budget in
internal/serve/testdata/alloc_budget.json — the same ceilings
TestBinarySelectAllocBudget, TestLargeModelAllocBudget,
TestBuildAllocBudget, TestResolveAllocBudget and TestPrepareAllocBudget
enforce in-process,
applied here to the benchmark numbers that land in the artifact.

Usage:
    go test -run=NONE -bench='SelectIndexed|ServeBinary|^BenchmarkBuild$|^BenchmarkResolve$|^BenchmarkFullRefresh$|^BenchmarkPrepare$' -benchmem \
        ./internal/query/ ./internal/serve/ ./internal/rtmodel/ ./internal/resolve/ \
        | scripts/benchgate.py BENCH_6.json
"""

import json
import re
import sys

# BenchmarkServeBinary/select-bin-8  80000  14394 ns/op  6544 B/op  78 allocs/op
BENCH_RE = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op"
    r"(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?"
)

# benchmark name -> alloc_budget.json key
GATES = {
    "BenchmarkServeBinary/select-bin": "serve_select_bin",
    "BenchmarkServeBinary/summary-bin": "serve_summary_bin",
    "BenchmarkServeBinary/summary-json": "serve_summary_json",
    "BenchmarkServeBinary/element-bin": "serve_element_bin",
    "BenchmarkServeBinary/eval-bin": "serve_eval_bin_xscluster",
    "BenchmarkServeBinary/dispatch-bin": "serve_dispatch_bin_xscluster",
    "BenchmarkServeBinary/batch-xs-bin": "serve_batch_bin_xscluster",
    "BenchmarkBuild": "rtmodel_build_xscluster",
    "BenchmarkResolve": "resolve_xscluster",
    "BenchmarkFullRefresh": "serve_full_refresh_xscluster",
    "BenchmarkPrepare": "serve_prepare_xscluster",
}


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: benchgate.py <out.json> < bench-output")
    out_path = sys.argv[1]

    results = []
    for line in sys.stdin:
        sys.stdout.write(line)
        m = BENCH_RE.match(line.strip())
        if not m:
            continue
        name, iters, ns = m.group(1), int(m.group(2)), float(m.group(3))
        entry = {"name": name, "iterations": iters, "ns_per_op": ns}
        if m.group(4) is not None:
            entry["bytes_per_op"] = float(m.group(4))
            entry["allocs_per_op"] = float(m.group(5))
        results.append(entry)

    with open("internal/serve/testdata/alloc_budget.json") as f:
        budget = json.load(f)

    failures = []
    gated = {}
    for entry in results:
        key = GATES.get(entry["name"])
        if key is None:
            continue
        limit = budget[key]
        gated[entry["name"]] = {"allocs_per_op": entry.get("allocs_per_op"), "budget": limit}
        if "allocs_per_op" not in entry:
            failures.append(f"{entry['name']}: no allocs/op (run with -benchmem)")
        elif entry["allocs_per_op"] > limit:
            failures.append(
                f"{entry['name']}: {entry['allocs_per_op']} allocs/op exceeds budget {limit}"
            )
    for name in GATES:
        if name not in gated:
            failures.append(f"{name}: benchmark missing from output")

    with open(out_path, "w") as f:
        json.dump({"benchmarks": results, "gates": gated, "failures": failures}, f, indent=2)
        f.write("\n")

    if not results:
        sys.exit("benchgate: no benchmark lines parsed")
    if failures:
        sys.exit("benchgate: FAIL\n  " + "\n  ".join(failures))
    print(f"benchgate: {len(results)} benchmarks, {len(gated)} gated, all within budget")


if __name__ == "__main__":
    main()
