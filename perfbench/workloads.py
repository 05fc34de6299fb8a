"""The benchmark's workloads: inputs made from a seed, ops, and their checks.

Every workload is a closed loop with one client: one process, one thread,
and each op waits for its verdict before the next starts. ``setup`` builds
one pass of ops (a fixed list for the seed) plus the warm-up ops, and
calls ``checkpoint`` after each costly step so that the runner can follow
the host's speed through it; the runner repeats the pass. Ops look schemelab functions up at call time, so
the tracer's wrappers see every call.

An op's ``check`` returns a list of problems; an empty list means that every
oracle agreed. The oracles are in ``oracles.py`` and never call schemelab.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

# The Petersen pairing {0,0'} {1,2'} {2,1'} {3,4'} {4,3'}: not equitable,
# yet its projection values <F,E_j> are (1, 2, 2).
PETERSEN_PAIR_CELLS = [["0", "0'"], ["1", "2'"], ["2", "1'"], ["3", "4'"], ["4", "3'"]]
PETERSEN_PAIR_VALUES = (1, 2, 2)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # candidate codes or partitions whose equitability the op decides
    candidates: Callable[[object], int] | None = None


@dataclass
class Session:
    ops: list          # one pass, in order
    warmup: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable    # (sl, seed, work_dir, config, checkpoint) -> Session
    config: object     # the benchmark's configuration
    tiny: object       # a small configuration for the self-test


def values_match(fam: oracles.Family, got, want) -> bool:
    if len(got) != len(want):
        return False
    if fam.exact:
        return all(Fraction(a) == Fraction(b) for a, b in zip(got, want))
    return all(oracles.close(a, b) for a, b in zip(got, want))


def matrix_match(fam, got, want) -> bool:
    return len(got) == len(want) and all(values_match(fam, a, b) for a, b in zip(got, want))


# -- command-line workloads ---------------------------------------------------

def call_cli(sl_cli, argv):
    """Run ``schemelab.cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sl_cli.main(argv)
        except SystemExit as exc:   # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_op(sl_cli, digests, kind, spec, argv, check, candidates=None,
            expected_exit=0) -> Op:
    """A CLI call whose stdout must be byte-identical on every repeat."""
    argv = argv + ["--json"]
    key = tuple(argv)

    def checked(result):
        code, out, err = result
        problems = []
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digests.setdefault(key, digest) != digest:
            problems.append("stdout differs from an earlier identical call")
        if code != expected_exit:
            problems.append(f"exit code {code}, expected {expected_exit}: {err.strip()[:200]}")
        try:
            report = json.loads(out)
        except ValueError:
            return problems + ["stdout is not a JSON report"]
        if report.get("exit") != code:
            problems.append(f"report exit {report.get('exit')} != process exit {code}")
        return problems + check(report)

    def count(result):
        return candidates(json.loads(result[1])) if candidates else 0

    return Op(kind, f"{kind} {spec}", lambda: call_cli(sl_cli, argv), checked,
              count if candidates else None)


def _write_relation_file(path: Path, fam: oracles.Family, rng: random.Random) -> None:
    order = list(fam.labels)
    rng.shuffle(order)       # vertex i of the file is order[i]
    table = fam.relation_table(order)
    blocks = ["\n".join("".join("1" if table[x][y] == r else "0" for y in range(fam.v))
                        for x in range(fam.v)) for r in range(fam.d + 1)]
    path.write_text(f"{fam.v} {fam.d}\n" + "\n\n".join(blocks) + "\n")


def _check_scheme(fam):
    def check(report):
        problems = []
        if report.get("axioms") != "pass":
            problems.append(f"axioms {report.get('axioms')}")
        if (report.get("v"), report.get("d")) != (fam.v, fam.d):
            problems.append(f"v, d = {report.get('v')}, {report.get('d')}")
        if tuple(report.get("valencies", ())) != fam.valencies:
            problems.append(f"valencies {report.get('valencies')}")
        return problems
    return check


def _check_spectra(fam):
    def check(report):
        problems = []
        if report.get("mode") != ("exact" if fam.exact else "float"):
            problems.append(f"mode {report.get('mode')}")
        if tuple(report.get("multiplicities", ())) != fam.multiplicities:
            problems.append(f"multiplicities {report.get('multiplicities')}")
        if not matrix_match(fam, report.get("P", []), fam.p_matrix):
            problems.append("P differs from the closed form")
        if not matrix_match(fam, report.get("Q", []), fam.q_matrix()):
            problems.append("Q differs from the closed form")
        return problems
    return check


def _check_single_vertex_partition(fam, cells):
    t = len(cells)

    def check(report):
        problems = []
        if report.get("equitable") is not True:
            problems.append("distance partition reported not equitable")
        if tuple(report.get("cell sizes", ())) != tuple(len(c) for c in cells):
            problems.append(f"cell sizes {report.get('cell sizes')}")
        values = report.get("projection values <F,E_j>", [])
        if not values_match(fam, values, [1] * (fam.d + 1)):
            problems.append(f"<F,E_j> = {values}, expected all 1")
        if not values_match(fam, [sum(Fraction(x) for x in values)], [t]):
            problems.append("sum of <F,E_j> differs from the number of cells")
        if report.get("subduced multiplicities dim(W_j H)") != [1] * (fam.d + 1):
            problems.append("subduced multiplicities are not all 1")
        for key in ("projection condition", "lloyd", "multiplicity identity"):
            if report.get(key) != "PASS":
                problems.append(f"{key}: {report.get(key)}")
        return problems
    return check


def _check_automorphism(fam, mapping):
    alpha = fam.fixed_relation_counts(mapping)
    values = fam.higman_values(alpha)

    def check(report):
        problems = []
        if report.get("automorphism") is not True:
            problems.append("a true automorphism was rejected")
        if tuple(report.get("alpha (fixed-relation counts)", ())) != alpha:
            problems.append(f"alpha {report.get('alpha (fixed-relation counts)')}, expected {alpha}")
        if not values_match(fam, report.get("values <P,E_j>", []), values):
            problems.append("<P_sigma,E_j> differs from the closed form")
        if report.get("higman condition") != "PASS":
            problems.append(f"higman condition {report.get('higman condition')}")
        return problems
    return check


def _check_single_vertex_search(fam):
    def check(report):
        problems = []
        if report.get("tested") != fam.v or report.get("completely regular found") != fam.v:
            problems.append(f"tested {report.get('tested')}, completely regular "
                            f"{report.get('completely regular found')}; expected {fam.v} each")
        if report.get("exhaustive") is not True:
            problems.append("search not exhaustive")
        return problems
    return check


def _single_partition_candidate(report) -> int:
    return 1


def _search_candidates(report) -> int:
    return report["tested"]


CLI_KINDS = ("verify", "verify-relations", "spectra", "partition", "automorphism", "search")


def setup_cli(sl, seed: int, work_dir: Path, config, checkpoint) -> Session:
    """One op of each kind per family, ordered kind by kind.

    Each family contributes a relation file (its vertices in a seeded
    order), a distance-partition file around a seeded vertex, and a seeded
    automorphism; the program sees only these files and the family name.
    """
    specs, kinds = config
    rng = random.Random(seed)
    digests: dict = {}
    by_kind: dict[str, list] = {kind: [] for kind in kinds}
    for spec in specs:
        fam = oracles.family(spec)
        stem = work_dir / spec.replace(",", "-")
        family_args = ["--family", spec]
        for kind in kinds:
            if kind == "verify":
                op = _cli_op(sl.cli, digests, kind, spec, ["verify"] + family_args,
                             _check_scheme(fam))
            elif kind == "verify-relations":
                path = stem.with_suffix(".rel")
                _write_relation_file(path, fam, rng)
                op = _cli_op(sl.cli, digests, kind, spec,
                             ["verify", "--relations", str(path)], _check_scheme(fam))
            elif kind == "spectra":
                op = _cli_op(sl.cli, digests, kind, spec, ["spectra"] + family_args,
                             _check_spectra(fam))
            elif kind == "partition":
                cells = fam.distance_cells([rng.choice(fam.labels)])
                path = stem.with_suffix(".part")
                path.write_text("".join(" ".join(c) + "\n" for c in cells))
                op = _cli_op(sl.cli, digests, kind, spec,
                             ["partition"] + family_args + ["--partition", str(path),
                                                            "--feasibility", "--multiplicities"],
                             _check_single_vertex_partition(fam, cells),
                             _single_partition_candidate)
            elif kind == "automorphism":
                mapping = fam.automorphism(rng)
                path = stem.with_suffix(".perm")
                path.write_text("".join(f"{x} {y}\n" for x, y in mapping.items()))
                op = _cli_op(sl.cli, digests, kind, spec,
                             ["automorphism"] + family_args + ["--permutation", str(path)],
                             _check_automorphism(fam, mapping))
            elif kind == "search":
                op = _cli_op(sl.cli, digests, kind, spec,
                             ["search"] + family_args + ["--sizes", "1"],
                             _check_single_vertex_search(fam), _search_candidates)
            else:
                raise ValueError(f"unknown CLI op kind {kind!r}")
            by_kind[kind].append(op)
        checkpoint()
    ops = [op for kind in kinds for op in by_kind[kind]]
    return Session(ops=ops, warmup=[ops[0]])


# -- library sessions ---------------------------------------------------------

def _spectral_problems(fam, s, spec) -> list:
    """The scheme and its spectral data against the closed forms."""
    problems = []
    if [list(r) for r in s.relation_of] != fam.relation_table(s.labels):
        problems.append("relation_of differs from the closed-form distances")
    if spec is not None:
        p = spec.p_matrix.rows if fam.exact else spec.p_matrix
        if not matrix_match(fam, [list(r) for r in p], fam.p_matrix):
            problems.append("P differs from the closed form")
        if spec.multiplicities != fam.multiplicities:
            problems.append(f"multiplicities {spec.multiplicities}")
    return problems


def _partition_op(sl, s, spec, fam, rel, kind, *, code=None, cells=None,
                  expect_equitable=None) -> Op:
    """is_equitable, the commutation test, feasibility and, if equitable,
    the multiplicity identity, on a distance partition or given cells."""
    index = s.index
    if code is not None:
        want_cells = tuple(tuple(sorted(index[x] for x in c))
                           for c in fam.distance_cells(code))

    def run():
        part = (sl.distance_partition(s, 1, code)[0] if code is not None
                else sl.make_partition(s, cells))
        eq = sl.is_equitable(s, part)
        commutes, _ = sl.commutes_with_scheme(sl.partition_projector(part), s)
        feas = sl.feasibility_report(s, spec, part)
        mult = sl.verify_equitable_multiplicities(s, spec, part, eq) if eq.equitable else None
        return part, eq, commutes, feas, mult

    def check(out):
        part, eq, commutes, feas, mult = out
        truth = oracles.equitable_by_counts(rel, part.cell_of)
        problems = []
        if code is not None and part.cells != want_cells:
            problems.append("distance partition differs from the closed form")
        if expect_equitable is not None and truth != expect_equitable:
            problems.append("count oracle changed its verdict")
        if eq.equitable != truth or feas.equitable != truth:
            problems.append(f"is_equitable says {eq.equitable}, count oracle {truth}")
        if commutes != truth:
            problems.append(f"commutation says {commutes}, count oracle {truth}")
        values = feas.godsil.values
        if sum(values) != part.t:
            problems.append(f"sum of <F,E_j> is {sum(values)}, not t = {part.t}")
        if code is not None and len(code) == 1 and values != (1,) * (s.d + 1):
            problems.append(f"single-vertex <F,E_j> = {values}")
        if cells is PETERSEN_PAIR_CELLS and (values != PETERSEN_PAIR_VALUES
                                             or not feas.godsil.all_pass):
            problems.append(f"Petersen pairing <F,E_j> = {values}")
        if truth:
            if feas.lloyd is None or not feas.lloyd.all_pass:
                problems.append("Lloyd fails on an equitable partition")
            if not mult.ok or mult.subduced != values:
                problems.append("multiplicity identity fails")
        return problems

    return Op(kind, f"{kind} {fam.spec}", run, check, lambda out: 1)


def _higman_op(sl, s, spec, fam, mapping, automorphism: bool) -> Op:
    kind = "higman-automorphism" if automorphism else "higman-random"
    alpha = fam.fixed_relation_counts(mapping)

    def run():
        try:
            return sl.higman_condition(s, spec, mapping)
        except sl.NotAutomorphismError as exc:
            return exc

    def check(out):
        if not automorphism:
            return ([] if isinstance(out, sl.NotAutomorphismError)
                    else ["a non-automorphism was accepted"])
        if isinstance(out, sl.NotAutomorphismError):
            return ["a true automorphism was rejected"]
        problems = []
        if out.alpha != alpha:
            problems.append(f"alpha {out.alpha}, expected {alpha}")
        if out.values != fam.higman_values(alpha) or not out.all_pass:
            problems.append(f"Higman values {out.values}")
        return problems

    return Op(kind, f"{kind} {fam.spec}", run, check)


def _random_cells(rng, labels):
    t = rng.randint(2, 6)
    cells = [[x] for x in rng.sample(labels, t)]
    taken = {c[0] for c in cells}
    for x in labels:
        if x not in taken:
            cells[rng.randrange(t)].append(x)
    return cells


def _random_non_automorphism(rng, fam):
    while True:
        images = list(fam.labels)
        rng.shuffle(images)
        mapping = dict(zip(fam.labels, images))
        if not fam.is_automorphism(mapping):
            return mapping


# Draws of each op kind per scheme in a partition-session pass. The cost of
# a distance partition depends on its code, so one draw made a run's figures
# depend on which codes the seed picked; two halve that share of the spread.
SESSION_DRAWS = 2


def setup_partition_session(sl, seed: int, work_dir: Path, specs, checkpoint) -> Session:
    """Build each scheme and its spectral data, then a seeded stream.

    Per scheme and pass, ``SESSION_DRAWS`` times: a completely regular and
    a non-regular code of size 1-3 (distance partitions in (V, R_1)), a
    random partition into 2-6 cells, a true automorphism and a random
    permutation; plus the Petersen pairing. The mix is fixed, so the seed
    changes the inputs, not the mix.
    """
    rng = random.Random(seed)
    ops, warmup = [], []
    for name in specs:
        fam = oracles.family(name)
        s = sl.named_scheme(*fam.name_and_params)
        checkpoint()
        spec = sl.spectral_data(s)
        checkpoint()
        rel = fam.relation_table(s.labels)
        labels = list(fam.labels)
        for _ in range(SESSION_DRAWS):
            codes = {}   # CR verdict -> code
            while len(codes) < 2:
                code = sorted(rng.sample(range(fam.v), rng.randint(1, 3)))
                codes.setdefault(oracles.completely_regular(rel, 1, code),
                                 [s.labels[x] for x in code])
            for is_cr, code in sorted(codes.items()):
                ops.append(_partition_op(sl, s, spec, fam, rel, "distance-partition",
                                         code=code, expect_equitable=is_cr))
            ops.append(_partition_op(sl, s, spec, fam, rel, "random-partition",
                                     cells=_random_cells(rng, labels)))
            ops.append(_higman_op(sl, s, spec, fam, fam.automorphism(rng), True))
            ops.append(_higman_op(sl, s, spec, fam, _random_non_automorphism(rng, fam),
                                  False))
        if name == "petersen":
            ops.append(_partition_op(sl, s, spec, fam, rel, "pair-partition",
                                     cells=PETERSEN_PAIR_CELLS))
        warm = _partition_op(sl, s, spec, fam, rel, "warmup", code=[labels[0]])
        warmup.append(Op(warm.kind, warm.label, warm.run,
                         lambda out, fam=fam, s=s, spec=spec, check=warm.check:
                         _spectral_problems(fam, s, spec) + check(out)))
    rng.shuffle(ops)
    return Session(ops=ops, warmup=warmup)


def _search_op(sl, s, spec, fam, rel, sizes, options) -> Op:
    dedup = options.get("dedup_by_signature", False)
    feasibility = options.get("include_feasibility", False)
    oracle: dict = {}

    def run():
        return sl.search_completely_regular(
            s, 1, sizes, dedup_by_signature=dedup,
            spec=spec if feasibility else None, include_feasibility=feasibility)

    def check(result):
        if not oracle:   # computed once per run, outside the timed op
            cands, skipped = oracles.search_candidates(rel, sizes, dedup)
            oracle.update(cands=cands, skipped=skipped,
                          verdicts=[oracles.completely_regular(rel, 1, c) for c in cands])
        problems = []
        if (result.tested, result.skipped_duplicates) != (len(oracle["cands"]), oracle["skipped"]):
            problems.append(f"tested {result.tested}, skipped {result.skipped_duplicates}; "
                            f"expected {len(oracle['cands'])}, {oracle['skipped']}")
        if not result.exhaustive:
            problems.append("search not exhaustive")
        if [r.vertices for r in result.records] != oracle["cands"]:
            problems.append("candidates differ from the enumeration order")
        if [r.completely_regular for r in result.records] != oracle["verdicts"]:
            problems.append("CR verdicts differ from the count oracle")
        if feasibility:
            for r in result.records:
                feas = r.feasibility
                if sum(feas.godsil.values) != r.partition.t:
                    problems.append("sum of <F,E_j> differs from t")
                    break
                if r.completely_regular != (feas.lloyd is not None and feas.lloyd.all_pass):
                    problems.append("Lloyd verdict disagrees with complete regularity")
                    break
        return problems

    label = f"search {fam.spec} {sizes[0]}..{sizes[1]}" + "".join(f" {k}" for k in options)
    return Op("search", label, run, check, lambda result: result.tested)


def setup_code_search(sl, seed: int, work_dir: Path, config, checkpoint) -> Session:
    """Build the schemes (spectral data only where a search needs it) and
    order the searches by the seed."""
    rng = random.Random(seed)
    schemes = {}   # name -> (family, scheme, spectral data or None, relation table)
    for name, _, options in config:
        if name not in schemes:
            fam = oracles.family(name)
            s = sl.named_scheme(*fam.name_and_params)
            checkpoint()
            schemes[name] = (fam, s, None, fam.relation_table(s.labels))
        fam, s, spec, rel = schemes[name]
        if options.get("include_feasibility") and spec is None:
            schemes[name] = (fam, s, sl.spectral_data(s), rel)
            checkpoint()
    ops = [_search_op(sl, s, spec, fam, rel, sizes, options)
           for name, sizes, options in config
           for fam, s, spec, rel in [schemes[name]]]
    rng.shuffle(ops)
    warmup = [Op("warmup", f"warmup {fam.spec}",
                 lambda s=s: sl.is_completely_regular(s, 1, [0]),
                 lambda out, fam=fam, s=s, spec=spec:
                 _spectral_problems(fam, s, spec)
                 + ([] if out.completely_regular else ["a single vertex is not CR"]))
              for fam, s, spec, rel in schemes.values()]
    return Session(ops=ops, warmup=warmup)


WORKLOADS = {w.name: w for w in [
    # What a command-line user pays: every call rebuilds the scheme and its
    # spectra, so scheme, poly, spectra and ratmat do over 90% of the work.
    # Families with v <= 10 keep a pass near 2 s, so every call repeats often
    # enough in a run for its least timing to be its own cost; H(4,2) and
    # J(6,3) appear in the library sessions.
    Workload("cli-exact", setup_cli,
             (("petersen", "hamming,3,2", "johnson,5,2"), CLI_KINDS),
             (("petersen",), CLI_KINDS)),
    # The same loop on cycles, whose spectra are irrational: the only
    # workload where floatlin and the float branches run. The axiom check
    # dominates ((d+1)^2 products with d = n // 2), so a spectral rewrite
    # that helps exact mode but costs float mode shows here.
    Workload("cli-float", setup_cli,
             (("cycle,9", "cycle,11", "cycle,13"), ("spectra", "partition", "automorphism")),
             (("cycle,7",), ("spectra", "partition", "automorphism"))),
    # A library user with prebuilt spectra: partition, feasibility and poly
    # (Lloyd recomputes char(A_i) per equitable partition) do the timed
    # work; scheme and spectra run only in set-up. The fixed mix of
    # equitable and non-equitable partitions shows a gain on one path that
    # costs the other.
    Workload("partition-session", setup_partition_session,
             ("petersen", "hamming,4,2", "johnson,6,3"),
             ("petersen",)),
    # Library searches: codes and partition do the work, spectra none. The
    # CR share of the candidates, 0% to 40% across the searches, is the
    # input property a search optimisation depends on. Default workers.
    Workload("code-search", setup_code_search,
             (("petersen", (1, 4), {}),
              ("hamming,4,2", (1, 2), {}),
              ("hamming,4,2", (3, 3), {}),
              ("johnson,6,3", (1, 3), {}),
              ("hamming,4,2", (1, 4), {"dedup_by_signature": True}),
              ("petersen", (1, 2), {"include_feasibility": True})),
             (("petersen", (1, 2), {}),
              ("petersen", (1, 3), {"dedup_by_signature": True}),
              ("petersen", (1, 1), {"include_feasibility": True}))),
]}
