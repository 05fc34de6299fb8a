"""Per-stage timing ladder for the spectra, partition and feasibility
layers, relation-file input and the code search.

    python3 bench/ladder.py [--parent DIR] [--out FILE] [--stage-timeout S]

Times one call each, in every family of ``LADDER``, of ``spectral_data``;
of ``partition_projector``, ``commutes_with_scheme``, ``is_equitable`` and
``feasibility_report`` on the distance-1 partition of vertex 0; of
``godsil_condition`` on the one-cell partition (``godsil_one_cell``); of
``is_equitable`` on the partition ({0}, the rest), which is never
equitable for d >= 2, so it times the witness path
(``is_equitable_witness``); of ``search_completely_regular`` on relation 1
over the first 64 singletons (``search_singletons_64``); and of
``read_relation_file`` plus ``verify_axioms`` on the family's relation
file, written untimed in the contiguous 0/1 form (``verify_relations``).
Each checkout is measured in its
own child process: this one, and with ``--parent DIR`` also the checkout at
DIR (for instance a parent commit, made with ``git clone``), through the
same script, so both sides run identical timing code. The result is one
JSON object, printed or written to ``--out``: per side the git SHA of the
tree measured, and per family and stage the wall seconds and the reference
seconds of ``perfbench/hostspeed.py`` (the wall time scaled by a fixed
``Fraction`` kernel timed just before and after it, so that the host's own
swings in speed cancel), plus the machine, Python and numpy.

A stage still running after ``--stage-timeout`` seconds is stopped and
recorded as ``{"timed_out_after_s": S}``, and the stages that need its
result are skipped. Building the scheme is not timed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = (("petersen",), ("hamming", 4, 2), ("johnson", 6, 3),
          ("johnson", 11, 5), ("hamming", 9, 2))


class StageTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise StageTimeout


def _timed(call, timeout_s: float, hostspeed) -> tuple[dict, object]:
    """Run ``call`` once under a wall-clock alarm; its times and result."""
    before = hostspeed.probe()
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    start = time.perf_counter()
    try:
        out = call()
    except StageTimeout:
        return {"timed_out_after_s": timeout_s}, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    after = hostspeed.probe()
    return {"wall_s": round(wall, 6),
            "ref_s": round(hostspeed.scale(wall, before, after), 6)}, out


def measure(src: Path, timeout_s: float) -> dict:
    """Every stage on every family, for the schemelab found in ``src``."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import hostspeed
    import numpy as np
    import schemelab as sl
    from schemelab import fileio

    signal.signal(signal.SIGALRM, _on_alarm)

    families = {}
    for family in LADDER:
        s = sl.named_scheme(*family)
        part = sl.distance_partition(s, 1, [0])[0]
        row = {"v": s.v, "d": s.d, "t": part.t}
        row["spectral_data"], spec = _timed(lambda: sl.spectral_data(s),
                                            timeout_s, hostspeed)
        row["partition_projector"], f = _timed(
            lambda: sl.partition_projector(part), timeout_s, hostspeed)
        if f is None:  # the projector timed out, so there is none to test
            row["commutes_with_scheme"] = {"skipped": "no projector"}
        else:
            row["commutes_with_scheme"], _ = _timed(
                lambda: sl.commutes_with_scheme(f, s), timeout_s, hostspeed)
        row["is_equitable"], _ = _timed(lambda: sl.is_equitable(s, part),
                                        timeout_s, hostspeed)
        if spec is None:  # spectral data timed out
            row["feasibility_report"] = row["godsil_one_cell"] = \
                {"skipped": "no spectral data"}
        else:
            row["feasibility_report"], _ = _timed(
                lambda: sl.feasibility_report(s, spec, part), timeout_s,
                hostspeed)
            one_cell = sl.one_cell_partition(s)
            row["godsil_one_cell"], _ = _timed(
                lambda: sl.godsil_condition(s, spec, one_cell), timeout_s,
                hostspeed)
        split = sl.Partition(s.labels, ((0,), tuple(range(1, s.v))))
        row["is_equitable_witness"], _ = _timed(
            lambda: sl.is_equitable(s, split), timeout_s, hostspeed)
        row["search_singletons_64"], _ = _timed(
            lambda: sl.search_completely_regular(s, 1, (1, 1), budget=64),
            timeout_s, hostspeed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scheme.rel"
            path.write_text(_relation_text(s))

            def verify_file():
                labels, mats = fileio.read_relation_file(path)
                return sl.verify_axioms(mats, labels)

            row["verify_relations"], _ = _timed(verify_file, timeout_s,
                                                hostspeed)
        families[",".join(map(str, family))] = row
    return {"numpy": np.__version__, "families": families}


def _relation_text(s) -> str:
    """The relation file of ``s``: header "v d", then A_0..A_d as rows of
    contiguous 0/1 digits, blank-line separated."""
    blocks = ["".join("".join("1" if r == i else "0" for r in row) + "\n"
                      for row in s.relation_of) for i in range(s.d + 1)]
    return f"{s.v} {s.d}\n" + "\n".join(blocks)


def git_sha(tree: Path) -> str:
    sha = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True).stdout
    dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain",
                            "--untracked-files=no"],
                           capture_output=True, text=True, check=True).stdout
    return sha.strip() + ("+dirty" if dirty.strip() else "")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_side(tree: Path, timeout_s: float) -> dict:
    """Measure the checkout at ``tree`` in a child process."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--src",
         str(tree / "src"), "--stage-timeout", str(timeout_s)],
        capture_output=True, text=True, check=True)
    return {"git_sha": git_sha(tree), **json.loads(child.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", metavar="DIR", type=Path,
                        help="also measure the checkout at DIR")
    parser.add_argument("--out", metavar="FILE", help="write the JSON here")
    parser.add_argument("--stage-timeout", type=float, default=120.0,
                        metavar="S", help="stop a stage after S seconds")
    parser.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.src is not None:  # child process: measure one source tree
        print(json.dumps(measure(args.src, args.stage_timeout)))
        return 0
    result = {"machine": {"platform": platform.platform(),
                          "cpu": cpu_model(), "cpus": os.cpu_count(),
                          "python": platform.python_version()},
              "stage_timeout_s": args.stage_timeout,
              "change": run_side(ROOT, args.stage_timeout)}
    if args.parent is not None:
        result["parent"] = run_side(args.parent.resolve(), args.stage_timeout)
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
