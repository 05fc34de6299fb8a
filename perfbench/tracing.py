"""Span tracer that instruments schemelab from the outside.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with
a recording wrapper, in every ``schemelab`` module namespace that binds it
(``feasibility`` and ``codes`` import by name, so one function can have
several bindings), and wraps ``RationalMatrix.__matmul__``. ``uninstall``
puts the originals back. Nothing under ``src/`` is edited.

A span is (name, start, end, parent span, op id); spans stay in memory and
are written out once, when the run ends. Counts are taken in the same
wrappers, from argument shapes and results.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

# span name -> (module, attribute); the span name is "<layer>.<attribute>"
TARGETS = [
    ("scheme", "named_scheme"), ("scheme", "from_distance_regular_graph"),
    ("scheme", "verify_axioms"),
    ("ratmat", "inverse"), ("ratmat", "nullspace"), ("ratmat", "rank"),
    ("poly", "char_poly"), ("poly", "integer_roots"), ("poly", "poly_divides"),
    ("spectra", "rational_spectrum_roots"), ("spectra", "common_eigenspaces"),
    ("spectra", "idempotents"), ("spectra", "eigenmatrices"),
    ("spectra", "spectral_data"),
    ("floatlin", "symmetric_eigen"), ("floatlin", "float_rank"),
    ("partition", "is_equitable"), ("partition", "distance_partition"),
    ("partition", "partition_projector"), ("partition", "commutes_with_scheme"),
    ("feasibility", "trace_profile"), ("feasibility", "godsil_condition"),
    ("feasibility", "subduced_multiplicities"), ("feasibility", "lloyd_check"),
    ("feasibility", "verify_equitable_multiplicities"),
    ("feasibility", "higman_condition"), ("feasibility", "is_scheme_automorphism"),
    ("feasibility", "feasibility_report"),
    ("codes", "search_completely_regular"), ("codes", "is_completely_regular"),
    ("fileio", "read_relation_file"), ("fileio", "read_partition_file"),
    ("fileio", "read_permutation_file"), ("fileio", "read_edge_list"),
    ("cli", "main"), ("cli", "cmd_verify"), ("cli", "cmd_spectra"),
    ("cli", "cmd_partition"), ("cli", "cmd_automorphism"), ("cli", "cmd_search"),
]
MATMUL = "ratmat.matmul"

CLI_SPANS = ("cli.main", "cli.cmd_verify", "cli.cmd_spectra", "cli.cmd_partition",
             "cli.cmd_automorphism", "cli.cmd_search")

# metric -> span names whose busy time (union of intervals) it reports
BUSY = {
    "scheme.build_s": ("scheme.named_scheme", "scheme.from_distance_regular_graph"),
    "scheme.verify_axioms_s": ("scheme.verify_axioms",),
    "ratmat.matmul_s": (MATMUL,),
    "poly.char_poly_s": ("poly.char_poly",),
    "poly.integer_roots_s": ("poly.integer_roots",),
    "poly.poly_divides_s": ("poly.poly_divides",),
    "spectra.rational_spectrum_s": ("spectra.rational_spectrum_roots",),
    "spectra.idempotents_s": ("spectra.idempotents",),
    "spectra.eigenmatrices_s": ("spectra.eigenmatrices",),
    "ratmat.inverse_s": ("ratmat.inverse",),
    "ratmat.nullspace_s": ("ratmat.nullspace",),
    "ratmat.rank_s": ("ratmat.rank",),
    "floatlin.symmetric_eigen_s": ("floatlin.symmetric_eigen",),
    "floatlin.float_rank_s": ("floatlin.float_rank",),
    "partition.equitable_s": ("partition.is_equitable",),
    "partition.distance_partition_s": ("partition.distance_partition",),
    "partition.projector_s": ("partition.partition_projector",),
    "partition.commutes_s": ("partition.commutes_with_scheme",),
    "feasibility.trace_profile_s": ("feasibility.trace_profile",),
    "feasibility.godsil_s": ("feasibility.godsil_condition",),
    "feasibility.subduced_s": ("feasibility.subduced_multiplicities",),
    "feasibility.lloyd_s": ("feasibility.lloyd_check",),
    "feasibility.multiplicities_s": ("feasibility.verify_equitable_multiplicities",),
    "feasibility.higman_s": ("feasibility.higman_condition",),
    "feasibility.automorphism_s": ("feasibility.is_scheme_automorphism",),
    "codes.search_s": ("codes.search_completely_regular",),
    "codes.classify_s": ("codes.is_completely_regular",),
    "fileio.read_s": ("fileio.read_relation_file", "fileio.read_partition_file",
                      "fileio.read_permutation_file", "fileio.read_edge_list"),
    "cli.verify_s": ("cli.cmd_verify",),
    "cli.spectra_s": ("cli.cmd_spectra",),
    "cli.partition_s": ("cli.cmd_partition",),
    "cli.automorphism_s": ("cli.cmd_automorphism",),
    "cli.search_s": ("cli.cmd_search",),
}
# metric -> span names whose self time (duration minus children) it reports
SELF = {
    "spectra.eigenspaces_self_s": ("spectra.common_eigenspaces",),
    "codes.enumerate_s": ("codes.search_completely_regular",),
    "cli.self_s": CLI_SPANS,
}
# metric -> span name whose number of calls it reports
CALLS = {
    "ratmat.matmul_calls": MATMUL,
    "poly.char_poly_calls": "poly.char_poly",
    "floatlin.symmetric_eigen_calls": "floatlin.symmetric_eigen",
    "partition.equitable_calls": "partition.is_equitable",
}


def _count_matmul(counts, args, result):
    a, b = args[0], args[1]
    counts["ratmat.matmul_ops"] += a.nrows * a.ncols * b.ncols


def _count_char_poly(counts, args, result):
    counts["poly.char_poly_dim_sum"] += args[0].nrows


def _count_equitable(counts, args, result):
    counts["partition.equitable_true"] += bool(result.equitable)


def _count_search(counts, args, result):
    counts["codes.tested"] += result.tested
    counts["codes.skipped"] += result.skipped_duplicates
    counts["codes.cr"] += sum(r.completely_regular for r in result.records)


COUNTERS = {
    MATMUL: _count_matmul,
    "poly.char_poly": _count_char_poly,
    "partition.is_equitable": _count_equitable,
    "codes.search_completely_regular": _count_search,
}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "ratio"
    return "count"


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent, op)
        self.counts: Counter = Counter()
        self.op = None               # id of the op being run
        self._stack: list[int] = []
        self._patches: list = []     # (owner, attribute, original, wrapper)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body; spans nest by call order."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = (name, start, time.perf_counter(), parent, self.op)

    def install(self, sl) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "schemelab" or key.startswith("schemelab.")]
        for layer, attr in TARGETS:
            original = getattr(sys.modules[f"schemelab.{layer}"], attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        cls = sl.RationalMatrix
        original = cls.__matmul__
        self._patch(cls, "__matmul__", original, self._wrap(MATMUL, original))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        durations = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for s, dur in zip(spans, durations):
            if s[3] >= 0:
                child_time[s[3]] += dur

        def has_ancestor_in(idx, names):
            parent = spans[idx][3]
            while parent >= 0:
                if spans[parent][0] in names:
                    return True
                parent = spans[parent][3]
            return False

        out: dict[str, float] = {}
        for metric, names in BUSY.items():
            names = set(names)
            out[metric] = sum(durations[i] for i, s in enumerate(spans)
                              if s[0] in names and not has_ancestor_in(i, names))
        for metric, names in SELF.items():
            names = set(names)
            out[metric] = sum(durations[i] - child_time[i]
                              for i, s in enumerate(spans) if s[0] in names)
        calls = Counter(s[0] for s in spans)
        for metric, name in CALLS.items():
            out[metric] = calls[name]
        c = self.counts
        out["ratmat.matmul_ops"] = c["ratmat.matmul_ops"]
        out["poly.char_poly_dim_sum"] = c["poly.char_poly_dim_sum"]
        out["partition.equitable_share"] = (
            c["partition.equitable_true"] / calls["partition.is_equitable"]
            if calls["partition.is_equitable"] else 0.0)
        out["codes.tested"] = c["codes.tested"]
        out["codes.cr_share"] = c["codes.cr"] / c["codes.tested"] if c["codes.tested"] else 0.0
        considered = c["codes.tested"] + c["codes.skipped"]
        out["codes.dedup_skip_share"] = c["codes.skipped"] / considered if considered else 0.0
        return out

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times relative to ``origin``."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": start - origin, "end": end - origin,
                                     "parent": parent, "op": op}) + "\n")

