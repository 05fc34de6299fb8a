"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The closed-form oracles agree with schemelab on H(3,2), H(4,2), H(3,3),
   J(5,2), J(6,3), J(7,2), Petersen and the cycles of length 7, 9 and 10:
   labels, distances, P, Q and multiplicities, in the order schemelab
   reports them.
2. On each workload's tiny configuration, two traced runs with the same
   seed give identical exact counts, a timed run completes, and no op
   fails.
3. BENCHMARK.json names exactly the metrics that run.py emits.

Exits 0 when all of this holds.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import oracles
import run
import workloads

CLOSED_FORM_FAMILIES = ("hamming,3,2", "hamming,4,2", "hamming,3,3", "johnson,5,2",
                        "johnson,6,3", "johnson,7,2", "petersen", "cycle,7", "cycle,9",
                        "cycle,10")
EXACT_COUNTS = ("ratmat.matmul_calls", "ratmat.matmul_ops", "poly.char_poly_calls",
                "poly.char_poly_dim_sum", "floatlin.symmetric_eigen_calls",
                "partition.equitable_calls", "partition.equitable_share", "codes.tested",
                "codes.cr_share", "codes.dedup_skip_share")


def closed_form_problems(sl) -> list[str]:
    problems = []
    for name in CLOSED_FORM_FAMILIES:
        fam = oracles.family(name)
        s = sl.named_scheme(*fam.name_and_params)
        spec = sl.spectral_data(s)
        got_p = spec.p_matrix.rows if fam.exact else spec.p_matrix
        got_q = spec.q_matrix.rows if fam.exact else spec.q_matrix
        checks = {
            "labels": sorted(s.labels) == sorted(fam.labels),
            "distances": [list(r) for r in s.relation_of] == fam.relation_table(s.labels),
            "P": workloads.matrix_match(fam, [list(r) for r in got_p], fam.p_matrix),
            "Q": workloads.matrix_match(fam, [list(r) for r in got_q], fam.q_matrix()),
            "multiplicities": spec.multiplicities == fam.multiplicities,
        }
        problems += [f"{name}: {key} differ" for key, ok in checks.items() if not ok]
    return problems


def main() -> int:
    sl = run.load_schemelab()
    problems = closed_form_problems(sl)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out_dir = run.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=out_dir))
    try:
        for workload in workloads.WORKLOADS.values():
            tiny = dataclasses.replace(workload, config=workload.tiny)
            tally = run.Tally()
            counts = []
            for attempt in range(2):
                metrics = run.traced_run(tiny, sl, 7, work_dir, tally,
                                         work_dir / f"spans-{attempt}.jsonl")
                counts.append({k: metrics[k][0] for k in EXACT_COUNTS})
            if counts[0] != counts[1]:
                problems.append(f"{workload.name}: counts differ between runs: {counts}")
            if set(metrics) != {m["name"] for m in spec["per_layer"]}:
                problems.append(f"{workload.name}: traced metrics differ from BENCHMARK.json")
            metrics = run.timed_run(tiny, sl, 7, 0, work_dir, tally)
            if set(metrics) != {m["name"] for m in spec["end_to_end"]}:
                problems.append(f"{workload.name}: timed metrics differ from BENCHMARK.json")
            if tally.failed:
                problems += [f"{workload.name}: {p}" for p in tally.problems]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
