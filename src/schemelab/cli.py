"""Command-line interface.

Subcommands: verify, spectra, partition, automorphism, search. Reports are
deterministic: identical inputs and flags produce byte-identical output.
Exit codes: 0 success / positive verdict, 1 negative verdict, 2 input
error, 3 internal inconsistency.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import codes, feasibility, fileio, partition, scheme, spectra
from .errors import (InputError, InternalConsistencyError,
                     IrrationalSpectrumError, NotAutomorphismError,
                     NotDistanceRegularError)
from .ratmat import RationalMatrix

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class Report:
    """Ordered key/value report with text and JSON renderings."""

    def __init__(self, command_echo: str):
        self.items: list[tuple[str, object]] = [("command", command_echo)]

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    @staticmethod
    def _scalar_text(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, (Fraction, int, float)):
            return fileio.format_rational(value)
        return str(value)

    def text(self) -> str:
        lines = []
        for key, value in self.items:
            if isinstance(value, RationalMatrix):
                lines.append(f"{key}:")
                for row in value.rows:
                    lines.append("  [" + " ".join(fileio.format_rational(x)
                                                  for x in row) + "]")
            elif isinstance(value, np.ndarray):
                lines.append(f"{key}:")
                for row in value:
                    lines.append("  [" + " ".join(repr(float(x)) for x in row) + "]")
            elif isinstance(value, (tuple, list)):
                lines.append(f"{key}: ("
                             + ", ".join(self._scalar_text(x) for x in value) + ")")
            else:
                lines.append(f"{key}: {self._scalar_text(value)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _scalar_json(value):
        if isinstance(value, Fraction):
            return fileio.format_rational(value)
        if isinstance(value, (bool, int, float, str)) or value is None:
            return value
        return str(value)

    def json_obj(self) -> dict:
        obj = {}
        for key, value in self.items:
            if isinstance(value, RationalMatrix):
                obj[key] = [[fileio.format_rational(x) for x in row]
                            for row in value.rows]
            elif isinstance(value, np.ndarray):
                obj[key] = [[float(x) for x in row] for row in value]
            elif isinstance(value, (tuple, list)):
                obj[key] = [self._scalar_json(x) for x in value]
            else:
                obj[key] = self._scalar_json(value)
        return obj

    def render(self, as_json: bool) -> str:
        if as_json:
            return json.dumps(self.json_obj(), indent=2) + "\n"
        return self.text()


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _add_scheme_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--family",
                     help="named scheme: petersen | hamming,n,q | johnson,n,k | cycle,n")
    src.add_argument("--relations", metavar="FILE",
                     help="relation-matrix file (header 'v d', then d+1 blocks)")
    src.add_argument("--edges", metavar="FILE",
                     help="edge-list file; requires --drg")
    p.add_argument("--drg", action="store_true",
                   help="treat the edge list as a distance-regular graph")
    p.add_argument("--max-vertices", type=int, default=scheme.DEFAULT_MAX_VERTICES,
                   help="size cap for constructed schemes (default %(default)s)")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _parse_family(text: str):
    parts = text.split(",")
    name = parts[0].strip()
    try:
        params = tuple(int(x) for x in parts[1:])
    except ValueError:
        raise InputError(f"family parameters must be integers: {text!r}") from None
    return name, params


def _relation_axioms(args, report: Report) -> scheme.AxiomReport:
    """Read --relations, apply the size cap, and verify the axioms."""
    report.add("scheme input", f"relations {args.relations}")
    report.add("relations sha256", _digest(args.relations))
    labels, mats = fileio.read_relation_file(args.relations)
    scheme.check_size_cap(len(labels), args.max_vertices)
    return scheme.verify_axioms(mats, labels=labels)


def _load_scheme(args, report: Report):
    if args.family:
        name, params = _parse_family(args.family)
        report.add("scheme input", f"family {args.family}")
        return scheme.named_scheme(name, *params, max_vertices=args.max_vertices)
    if args.relations:
        axioms = _relation_axioms(args, report)
        if not axioms.ok:
            raise InputError(f"relation file is not a scheme: axiom "
                             f"{axioms.axiom} fails ({axioms.detail})")
        return axioms.scheme
    if not args.drg:
        raise InputError("--edges requires --drg (edge lists are only "
                         "interpreted as distance-regular graphs)")
    report.add("scheme input", f"edges {args.edges} (distance-regular)")
    report.add("edges sha256", _digest(args.edges))
    g = fileio.read_edge_list(args.edges)
    return scheme.from_distance_regular_graph(g, max_vertices=args.max_vertices)


def _scheme_summary(report: Report, s, spec=None) -> None:
    report.add("v", s.v)
    report.add("d", s.d)
    report.add("valencies", s.valencies)
    if spec is not None:
        report.add("multiplicities", spec.multiplicities)
        report.add("mode", spec.mode)
        if spec.eigen_tol is not None:
            report.add("eigen tolerance", spec.eigen_tol)
        for w in spec.warnings:
            report.add("warning", w)


def _echo(argv: list[str]) -> str:
    return " ".join(argv)


# -- subcommand handlers -----------------------------------------------------

def cmd_verify(args, argv) -> tuple[Report, int]:
    report = Report(_echo(argv))
    if args.relations:
        axioms = _relation_axioms(args, report)
        if not axioms.ok:
            report.add("axioms", "fail")
            report.add("violated axiom", axioms.axiom)
            report.add("detail", axioms.detail)
            report.add("witness", axioms.witness)
            return report, EXIT_NEGATIVE
        s = axioms.scheme
    else:
        try:
            s = _load_scheme(args, report)
        except NotDistanceRegularError as e:
            report.add("axioms", "fail")
            report.add("detail", str(e))
            if e.triple is not None:
                report.add("violated triple (i, j, k)", e.triple)
            return report, EXIT_NEGATIVE
    report.add("axioms", "pass")
    _scheme_summary(report, s)
    report.add("intersection numbers", "available")
    return report, EXIT_OK


def cmd_spectra(args, argv) -> tuple[Report, int]:
    report = Report(_echo(argv))
    s = _load_scheme(args, report)
    spec = spectra.spectral_data(s, mode=args.mode, eigen_tol=args.tol_eigen)
    _scheme_summary(report, s, spec)
    report.add("P", spec.p_matrix)
    report.add("Q", spec.q_matrix)
    report.add("checks", "P Q = vI and duality verified")
    return report, EXIT_OK


def cmd_partition(args, argv) -> tuple[Report, int]:
    report = Report(_echo(argv))
    s = _load_scheme(args, report)
    report.add("partition file", args.partition)
    report.add("partition sha256", _digest(args.partition))
    cells = fileio.read_partition_file(args.partition, s.labels)
    part = partition.make_partition(s, cells)
    spec = spectra.spectral_data(s, mode=args.mode, eigen_tol=args.tol_eigen)
    _scheme_summary(report, s, spec)
    report.add("cells", part.t)
    report.add("cell sizes", part.cell_sizes)
    eq = partition.is_equitable(s, part)
    report.add("equitable", eq.equitable)
    if eq.equitable:
        for i, n_i in enumerate(eq.quotients):
            report.add(f"quotient N_{i}", n_i)
    else:
        report.add("witness", eq.witness.describe(s.labels))
    if args.feasibility:
        feas = feasibility.feasibility_report(s, spec, part,
                                              int_tol=args.tol_int)
        report.add("trace profile <F,A_i>", feas.trace_profile)
        report.add("projection values <F,E_j>", feas.godsil.values)
        report.add("non-negative integer verdicts",
                   tuple("pass" if v else "fail" for v in feas.godsil.verdicts))
        report.add("projection condition",
                   "PASS" if feas.godsil.all_pass else "FAIL")
        if feas.godsil.int_tol is not None:
            report.add("integrality tolerance", feas.godsil.int_tol)
        if feas.lloyd is not None:
            report.add("lloyd divisibility",
                       tuple("pass" if v else "fail" for v in feas.lloyd.divides))
            report.add("lloyd", "PASS" if feas.lloyd.all_pass else "FAIL")
        else:
            report.add("lloyd", "skipped (partition not equitable)")
    if args.multiplicities:
        if not eq.equitable:
            report.add("multiplicity identity", "skipped (partition not equitable)")
        else:
            check = feasibility.verify_equitable_multiplicities(s, spec, part, eq)
            report.add("projection values <F,E_j>", check.projection_values)
            report.add("subduced multiplicities dim(W_j H)", check.subduced)
            report.add("quotient spectra match", check.quotient_spectra_ok)
            report.add("multiplicity identity",
                       "PASS" if check.ok else "FAIL")
    return report, EXIT_OK if eq.equitable else EXIT_NEGATIVE


def cmd_automorphism(args, argv) -> tuple[Report, int]:
    report = Report(_echo(argv))
    s = _load_scheme(args, report)
    report.add("permutation file", args.permutation)
    report.add("permutation sha256", _digest(args.permutation))
    raw = fileio.read_permutation_file(args.permutation, s.labels)
    spec = spectra.spectral_data(s, mode=args.mode, eigen_tol=args.tol_eigen)
    _scheme_summary(report, s, spec)
    try:
        result = feasibility.higman_condition(
            s, spec, raw, check_automorphism=not args.no_commutation_check,
            int_tol=args.tol_int)
    except NotAutomorphismError as e:
        report.add("automorphism", False)
        report.add("detail", f"{e}; condition not evaluated")
        return report, EXIT_NEGATIVE
    report.add("automorphism",
               True if result.automorphism_checked else "not checked")
    report.add("alpha (fixed-relation counts)", result.alpha)
    report.add("values <P,E_j>", result.values)
    report.add("algebraic integer verdicts",
               tuple("pass" if v else "fail" for v in result.verdicts))
    if result.caveat:
        report.add("caveat", result.caveat)
        report.add("integrality tolerance", result.int_tol)
    report.add("higman condition", "PASS" if result.all_pass else "FAIL")
    return report, EXIT_OK if result.all_pass else EXIT_NEGATIVE


def _parse_sizes(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        k = int(text)
        return k, k
    except ValueError:
        raise InputError(f"sizes must be 'k' or 'a..b', got {text!r}") from None


def cmd_search(args, argv) -> tuple[Report, int]:
    if args.dedup:
        print("note: --dedup tests one code per inner-relation signature, but "
              "a signature class can mix completely regular and other codes, "
              "so some may be missed", file=sys.stderr)
    if args.workers is not None:
        print("note: --workers is deprecated and has no effect; the search "
              "runs in one thread", file=sys.stderr)
    report = Report(_echo(argv))
    s = _load_scheme(args, report)
    spec = None
    if args.feasibility:
        spec = spectra.spectral_data(s, mode=args.mode, eigen_tol=args.tol_eigen)
    _scheme_summary(report, s, spec)
    sizes = _parse_sizes(args.sizes)
    result = codes.search_completely_regular(
        s, args.relation, sizes, budget=args.budget,
        dedup_by_signature=args.dedup, spec=spec,
        include_feasibility=args.feasibility)
    report.add("relation", args.relation)
    report.add("sizes", f"{sizes[0]}..{sizes[1]}")
    report.add("tested", result.tested)
    if args.dedup:
        report.add("skipped duplicates", result.skipped_duplicates)
    report.add("exhaustive", result.exhaustive)
    found = [r for r in result.records if r.completely_regular]
    report.add("completely regular found", len(found))
    for rec in result.records:
        names = ",".join(s.labels[x] for x in rec.vertices)
        report.add(f"code {{{names}}}",
                   f"rho={rec.covering_radius} "
                   f"cells={rec.partition.cell_sizes} "
                   f"CR={'yes' if rec.completely_regular else 'no'}")
    if args.out:
        Path(args.out).write_text(_records_json(s, result))
        report.add("results written", args.out)
    return report, EXIT_OK


def _records_json(s, result) -> str:
    out = []
    for rec in result.records:
        entry = {
            "vertices": [s.labels[x] for x in rec.vertices],
            "relation": rec.relation,
            "covering_radius": rec.covering_radius,
            "cells": [[s.labels[x] for x in cell]
                      for cell in rec.partition.cells],
            "completely_regular": rec.completely_regular,
        }
        if rec.completely_regular:
            entry["quotients"] = [
                [[fileio.format_rational(x) for x in row] for row in n.rows]
                for n in rec.equitability.quotients]
        else:
            w = rec.equitability.witness
            entry["witness"] = w.describe(s.labels)
        if rec.feasibility is not None:
            entry["trace_profile"] = [fileio.format_rational(x)
                                      for x in rec.feasibility.trace_profile]
            entry["projection_values"] = [fileio.format_rational(x)
                                          for x in rec.feasibility.godsil.values]
            entry["projection_condition"] = rec.feasibility.godsil.all_pass
        out.append(entry)
    return json.dumps({"records": out, "tested": result.tested,
                       "exhaustive": result.exhaustive}, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemelab",
        description="Association schemes: spectra, equitable partitions, "
                    "feasibility conditions, completely regular codes.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, tols=True):
        _add_scheme_args(p)
        if tols:
            p.add_argument("--mode", choices=("auto", "exact", "float"),
                           default="auto", help="arithmetic mode (default auto)")
            p.add_argument("--tol-eigen", type=float,
                           default=spectra.DEFAULT_EIGEN_TOL,
                           help="float-mode eigenvalue grouping tolerance "
                                "(intersection matrices)")
            p.add_argument("--tol-int", type=float,
                           default=feasibility.DEFAULT_INT_TOL,
                           help="float-mode integrality tolerance")

    p = sub.add_parser("verify", help="verify the scheme axioms")
    _add_scheme_args(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("spectra", help="eigenmatrices P, Q and multiplicities")
    common(p)
    p.set_defaults(handler=cmd_spectra)

    p = sub.add_parser("partition", help="equitability and feasibility of a partition")
    common(p)
    p.add_argument("--partition", metavar="FILE", required=True,
                   help="partition file, one cell of labels per line")
    p.add_argument("--feasibility", action="store_true",
                   help="report trace profile, projection values, Lloyd verdicts")
    p.add_argument("--multiplicities", action="store_true",
                   help="check <F,E_j> = dim(W_j H) (equitable partitions)")
    p.set_defaults(handler=cmd_partition)

    p = sub.add_parser("automorphism", help="Higman condition for a permutation")
    common(p)
    p.add_argument("--permutation", metavar="FILE", required=True,
                   help="permutation file: 'x y' lines or one line of images")
    p.add_argument("--no-commutation-check", action="store_true",
                   help="evaluate the condition without the automorphism pre-check")
    p.set_defaults(handler=cmd_automorphism)

    p = sub.add_parser("search", help="search completely regular codes")
    common(p)
    p.add_argument("--relation", type=int, default=1,
                   help="relation i whose graph (V, R_i) gives the distance "
                        "partition (default 1); CR means that partition is "
                        "equitable for every A_j, which is the graph notion "
                        "only when column i of P has d+1 distinct entries")
    p.add_argument("--sizes", required=True, help="code sizes: 'k' or 'a..b'")
    p.add_argument("--budget", type=int, default=codes.DEFAULT_BUDGET,
                   help="maximum number of candidates to test")
    p.add_argument("--dedup", action="store_true",
                   help="skip subsets repeating an inner-relation signature; "
                        "unsound: a signature class can mix completely "
                        "regular and other codes")
    p.add_argument("--feasibility", action="store_true",
                   help="attach feasibility data to each record")
    p.add_argument("--workers", type=int,
                   help="deprecated; accepted for compatibility, has no effect")
    p.add_argument("--out", metavar="FILE", help="write JSON records here")
    p.set_defaults(handler=cmd_search)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    as_json = getattr(args, "json", False)
    try:
        report, code = args.handler(args, argv)
    except (InputError, IrrationalSpectrumError, NotDistanceRegularError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InternalConsistencyError as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    report.add("exit", code)
    sys.stdout.write(report.render(as_json))
    return code


if __name__ == "__main__":
    sys.exit(main())
