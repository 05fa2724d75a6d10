"""Command-line entry point wiring every workbench module together.

Subcommands cover instance validation, exhaustive feasibility verification,
the edge-removal routes, CWL certification and search, group-characterized
codes, and the bundled case studies.  Exit status 0 means a verified-true
outcome, 1 a verified-false or not-found outcome, 2 a usage or input
problem (an ``--out`` file that cannot be written among them), and 3 a
failed internal consistency check or any other uncaught exception, which
indicates a bug in the workbench.  Error targets ``--eps`` lie in [0, 1),
written as ASCII digits, a fraction or a decimal (``0``, ``1/4``, ``0.25``);
the builtin removal routes and ``pwl-remove`` (always at eps 0) exit 1 when
the code's own error is above eps.  Label files give one label per source
tuple, all JSON integers (each fitting in 64 bits) or all strings.

Each command accepts only the flags it reads, by their full names: each
``case-study`` study takes its own after its name, ``remove-edge --groups``
goes only with ``--partition builtin:cwl``, and ``cwl-search --rewrites`` is
0 or 1.  Every integer flag value is ASCII digits after an optional minus.

Reports are deterministic: the command echo keeps only semantic arguments
(execution tuning such as ``--enum-cap`` and ``--out`` is excluded),
structured results are written by ``network.json_bytes`` as the bytes of
``json.dumps(result, indent=2, sort_keys=True)``, and timing goes to stderr
only, so the same inputs produce byte-identical reports.

Only ``errors`` and ``network`` are imported with this module; each handler
imports the modules it runs where it runs them, so that a process compiles
no module its command does not use.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

# No command uses BLAS threads; without this numpy's OpenBLAS starts them at
# import and they burn CPU time in every process.  A value the user set stays.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import DomainError, InternalCheckError, WorkbenchError
from .network import (
    NetworkInstance,
    field,
    int_table,
    json_bytes,
    load_instance,
    load_json,
    read_once,
    require,
    save_instance,
    validate_instance,
)

if TYPE_CHECKING:
    from .codes import GlobalCodeTable, NetworkCode
    from .cwl import CwlWitness
    from .removal import RemovalCertificate, RemovalResult

TUNING_FLAGS = {"--enum-cap", "--out", "--format", "--emit"}
ERROR_ABOVE_EPS = "code error exceeds the requested eps"


@dataclass(frozen=True)
class RunReport:
    """Deterministic record of one invocation."""

    command: tuple[str, ...]
    inputs: dict[str, str]
    result: dict


def _collect_certificates(node) -> list[RemovalCertificate]:
    out = []
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "certificate":
                out.append(value)
            else:
                out.extend(_collect_certificates(value))
    elif isinstance(node, list):
        for value in node:
            out.extend(_collect_certificates(value))
    return out


def emit_report(report: RunReport, fmt: str = "text") -> bytes:
    """Serialize a report; text is JSON, csv (the other ``--format``)
    tabulates the certificates."""
    if fmt == "text":
        return json_bytes(report, end=b"\n")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "edge_id",
            "eps",
            "witness_label",
            "edge_constant",
            "promised",
            "achieved",
            "verdict",
        ]
    )
    for cert in _collect_certificates(report.result):
        writer.writerow(
            [
                cert.edge_id,
                cert.eps,
                json.dumps(cert.witness_label),
                cert.edge_constant,
                ";".join(str(v) for v in cert.promised_cardinalities),
                ";".join(str(v) for v in cert.achieved_cardinalities),
                cert.feasibility.verdict,
            ]
        )
    return buf.getvalue().encode()


def _parse_eps(text: str) -> Fraction:
    try:
        value = Fraction(text) if re.fullmatch(r"[0-9]+(/[0-9]+|\.[0-9]+)?", text) else None
    except ZeroDivisionError:
        value = None
    if value is None:
        raise DomainError(f"expected eps as a rational like 1/4 or 0.25, got {text!r}")
    if value >= 1:
        raise DomainError(f"eps must satisfy 0 <= eps < 1, got {text!r}")
    return value


def _integer(text: str, low: int | None = None, what: str = "an") -> int:
    """The one reader of integers on the command line: ASCII digits with one
    optional leading minus, at least ``low``.  ``int`` also takes ``1_0``,
    ``+1``, `` 1`` and non-ASCII digits; those are usage errors here."""
    if text.isascii() and text.removeprefix("-").isdigit():
        value = int(text)
        if low is None or value >= low:
            return value
    raise argparse.ArgumentTypeError(f"expected {what} integer, got {text!r}")


_positive = functools.partial(_integer, low=1, what="a positive")
_non_negative = functools.partial(_integer, low=0, what="a non-negative")


def _integers(text: str) -> tuple[int, ...]:
    """A comma-separated list of integers, at least one."""
    return tuple(map(_integer, text.split(",")))


def _rates(text: str) -> list[tuple[bool, int]]:
    """Per-source targets as (is a cardinality, n): ``#n`` is a cardinality
    of at least 1, a plain ``n`` that many bits per use."""
    return [
        (True, _integer(e[1:], 1, "a positive")) if e[:1] == "#"
        else (False, _integer(e, 0, "a non-negative"))
        for e in text.split(",")
    ]


def _keys(keys: list[str], text: str) -> tuple[str, ...]:
    """Characterization keys as written: each non-empty and unpadded, since
    a key is never stripped or dropped."""
    if not all(k and k == k.strip() for k in keys):
        raise argparse.ArgumentTypeError(f"expected non-empty unpadded keys, got {text!r}")
    return tuple(keys)


def _sources(text: str) -> tuple[str, ...]:
    """Comma-separated source keys."""
    return _keys(text.split(","), text)


def _demand(text: str) -> tuple[str, ...]:
    """IN_KEY:SOURCE_KEY, split at the first colon."""
    if ":" not in text:
        raise argparse.ArgumentTypeError(f"expected IN_KEY:SOURCE_KEY, got {text!r}")
    return _keys(text.split(":", 1), text)


BUILTIN_ROUTES = {"builtin:cwl": "cwl", "builtin:edge-value": "edge-value"}


def _partition(text: str) -> str:
    """A label file, or one of the builtin routes."""
    if text.startswith("builtin:") and text not in BUILTIN_ROUTES:
        raise argparse.ArgumentTypeError(
            f"expected a label file, builtin:cwl or builtin:edge-value, got {text!r}"
        )
    return text


def _edge_support(data: dict, where: str) -> tuple[int, ...]:
    symbols = field(data, "edge_support", list, where, "be a list of integers")
    return tuple(require(v, int, "edge support symbol") for v in symbols)


def _source_groups(table, descs, where: str) -> list:
    """The source groups ``descs`` describes, the cyclic ones when it is
    None: the one reader of a groups file's and a pieces file's 'sources',
    refused unless their orders are the table's source alphabet sizes."""
    from .groups import CyclicGroup, group_from_description

    if descs is None:
        return [CyclicGroup(n) for n in table.source_sizes]
    sources = [group_from_description(d) for d in require(descs, list, f"{where} 'sources'")]
    if tuple(g.order for g in sources) != table.source_sizes:
        raise DomainError(f"{where} does not match the source alphabets")
    return sources


def _resolve_witness(table, edge_id: str, groups_path: str | None) -> CwlWitness | None:
    """Witness for the edge's encoding function, deriving structure if needed."""
    from .cwl import certify_cwl
    from .groups import group_from_description

    if groups_path is None:
        return certify_cwl(table.edge_values(edge_id), _source_groups(table, None, ""))
    data = load_json(groups_path)
    descs = field(data, "sources", list, "groups file", "list the source group descriptions")
    sources = _source_groups(table, descs, "groups file")
    if (data.get("edge") is None) != (data.get("edge_support") is None):
        raise DomainError(f"{groups_path}: edge group and edge support go together")
    edge = None
    if data.get("edge") is not None:
        edge = (group_from_description(data["edge"]), _edge_support(data, "groups file"))
    return certify_cwl(table.edge_values(edge_id), sources, edge)


def _cwl_removal(table, edge_id: str, groups_path: str | None, eps: Fraction):
    """The edge's CWL witness and the removal it certifies, each or both None."""
    from .cwl import cwl_remove

    witness = _resolve_witness(table, edge_id, groups_path)
    return witness, None if witness is None else cwl_remove(table, edge_id, witness, eps)


def _witness_dict(w: CwlWitness) -> dict:
    return {
        "source_groups": [g.describe() for g in w.source_groups],
        "edge_group": w.edge_group.describe(),
        "edge_support": list(w.edge_support),
        "hom": w.hom,
    }


def _removal_dict(res: RemovalResult, prefix: str | None) -> dict:
    """Report fields of a removal; writes the restricted files under prefix."""
    from .codes import save_code

    if prefix is not None:
        save_instance(res.instance, prefix + ".instance.json")
        save_code(res.code, prefix + ".code.json")
    return {
        "certificate": res.certificate,
        "restricted_instance": res.instance,
        "restricted_code": res.code,
    }


def _load_table(args) -> GlobalCodeTable:
    """The global table of the instance and code files under ``--enum-cap``."""
    from .codes import build_global_table, load_code

    inst = load_instance(args.instance)
    return build_global_table(inst, load_code(args.code), enum_cap=args.enum_cap)


def _cmd_validate(args) -> tuple[int, dict]:
    inst = load_instance(args.instance)
    problems = validate_instance(inst)
    return (0 if not problems else 1), {"problems": problems}


def _cmd_verify(args) -> tuple[int, dict]:
    from .codes import check_feasibility

    table = _load_table(args)
    # 2**b may have at most the digits int writes, as a #n target may; past
    # b = 4 * limit, 2**b > 16**limit shows it too long without taking it.
    limit = sys.get_int_max_str_digits()
    bits = [n * table.code.blocklength for card, n in args.rates if not card]
    if limit and any(b > 4 * limit or 2**b >= 10**limit for b in bits):
        raise DomainError(f"--rates targets must have at most {limit} digits")
    targets = [n if card else 2 ** (n * table.code.blocklength) for card, n in args.rates]
    report = check_feasibility(table, args.eps, targets)
    return (0 if report.verdict else 1), {"feasibility": report}


def _cmd_remove_edge(args) -> tuple[int, dict]:
    from .removal import (
        SourcePartition,
        fiber_edge_values,
        fibers_are_products,
        find_witness,
        remove_by_edge_value,
        restrict_code,
    )

    route = BUILTIN_ROUTES.get(args.partition)
    if route == "edge-value" and args.eps != 0:
        raise DomainError("the edge-value route only applies at eps 0")
    if args.groups is not None and route != "cwl":
        raise DomainError("--groups applies only to --partition builtin:cwl")
    table = _load_table(args)
    if route is not None and table.error > args.eps:
        return 1, {"route": route, "found": False, "reason": ERROR_ABOVE_EPS}

    if route == "cwl":
        witness, res = _cwl_removal(table, args.edge, args.groups, args.eps)
        if res is None:
            return 1, {"route": "cwl", "found": False}
        result = {"route": "cwl", "found": True, "witness": _witness_dict(witness)}
        return 0, {**result, **_removal_dict(res, args.emit)}

    if route == "edge-value":
        res = remove_by_edge_value(table, args.edge)
        if res is None:
            return 1, {"route": "edge-value", "found": False}
        return 0, {"route": "edge-value", "found": True, **_removal_dict(res, args.emit)}

    data = load_json(args.partition, lambda data: [(data.get("labels"), 1)])  # integer labels
    must = "be all integers or all strings"
    labels = field(data, "labels", list, "labels file", must)
    # Listed integer labels pass int_table here, so that a refusal names the
    # file; an array that load_json read has passed the same checks.
    if isinstance(labels, list):
        kinds = set(map(type, labels))
        if kinds <= {int}:
            labels = int_table(labels, 1, f"{args.partition}: labels")
        elif not kinds <= {str}:
            raise DomainError(f"labels file 'labels' must {must}")
    part = SourcePartition(table.source_sizes, labels)
    conditions = {
        "determines_edge": fiber_edge_values(table, args.edge, part),
        "parts_are_products": fibers_are_products(part),
    }
    if not all(conditions.values()):
        return 1, {"route": "partition", "found": False, "conditions": conditions}
    label = find_witness(table, args.edge, part, args.eps)
    if label is None:
        return 1, {"route": "partition", "found": False, "conditions": conditions}
    res = restrict_code(table, args.edge, part, label, args.eps)
    result = {"route": "partition", "found": True, "conditions": conditions}
    return 0, {**result, **_removal_dict(res, args.emit)}


def _cmd_cwl_check(args) -> tuple[int, dict]:
    table = _load_table(args)
    witness = _resolve_witness(table, args.edge, args.groups)
    if witness is None:
        return 1, {"witness": None}
    return 0, {"witness": _witness_dict(witness)}


def _cmd_pwl_remove(args) -> tuple[int, dict]:
    from .cwl import check_piecewise, piecewise_remove

    table = _load_table(args)
    if table.error != 0:
        return 1, {"found": False, "reason": ERROR_ABOVE_EPS}
    data = load_json(args.pieces)
    sources = _source_groups(table, data.get("sources"), "pieces file")
    pieces = []
    for i, p in enumerate(field(data, "pieces", list, "pieces file")):
        where = f"piece {i}"
        subsets = field(require(p, dict, where), "subsets", list, where)
        subsets = [require(sub, list, f"{where} subset {j}") for j, sub in enumerate(subsets)]
        pieces.append((
            [[require(v, int, "piece subset symbol") for v in sub] for sub in subsets],
            [require(v, int, "piece phi entry") for v in field(p, "phi", list, where)],
        ))
    pw = check_piecewise(
        table.edge_values(args.edge), sources, _edge_support(data, "pieces file"), pieces
    )
    if pw is None:
        return 1, {"found": False}
    res = piecewise_remove(table, args.edge, pw)
    return 0, {"found": True, "pieces": len(pw.pieces), **_removal_dict(res, args.emit)}


def _cmd_cwl_search(args) -> tuple[int, dict]:
    from .cwl import SearchBudget, cwl_search
    from .groups import TABLE_VERIFY_BOUND

    budget = SearchBudget(
        max_group_assignments=args.budget,
        max_table_rewrites=args.rewrites,
        max_relabels_per_order=args.relabels,
    )
    table = _load_table(args)
    if args.relabels and any(n > TABLE_VERIFY_BOUND for n in table.source_sizes):
        raise DomainError(
            f"--relabels builds Cayley tables, so it takes source alphabets of at most "
            f"{TABLE_VERIFY_BOUND} symbols"
        )
    found = cwl_search(table, args.edge, budget)
    if found is None:
        return 1, {"found": False}
    result = {
        "found": True,
        "witness": _witness_dict(found.witness),
        "rewritten": found.rewritten,
    }
    if found.rewritten:
        result["rewritten_code"] = found.code
    return 0, result


def _cmd_group_remove(args) -> tuple[int, dict]:
    from .groupcodes import abelian_removal_plan, load_characterization

    gc = load_characterization(args.characterization)
    plan = abelian_removal_plan(gc, args.edge, args.sources, enum_cap=args.enum_cap)
    result = {
        "checks": plan.checks,
        "auxiliary_order": plan.g_prime.order,
        "materialized_instance": plan.table.inst,
        "materialized_code": plan.table.code,
    }
    return 0, {**result, **_removal_dict(plan.removal, args.emit)}


def _cmd_group_zero_error(args) -> tuple[int, dict]:
    from .groupcodes import load_characterization, zero_error_upgrade

    gc = load_characterization(args.characterization)
    decisions = zero_error_upgrade(gc, args.demand)
    result = {"decisions": [d.to_dict() for d in decisions]}
    status = 0 if all(d.kind == "zero_error" for d in decisions) else 1
    return status, result


def _butterfly_run(name: str, inst: NetworkInstance, code: NetworkCode, emit, enum_cap) -> dict:
    from .codes import build_global_table, check_feasibility, save_code

    table = build_global_table(inst, code, enum_cap=enum_cap)
    feas = check_feasibility(table, Fraction(0), list(code.source_alphabets))
    entry: dict = {"name": name, "feasibility": feas, "found": False}
    res = _cwl_removal(table, "bottleneck", None, Fraction(0))[1]
    if res is None:
        return entry
    if emit is not None:
        save_instance(inst, f"{emit}.{name}.instance.json")
        save_code(code, f"{emit}.{name}.code.json")
    entry["found"] = True
    entry.update(_removal_dict(res, None if emit is None else f"{emit}.{name}.restricted"))
    return entry


def _cmd_butterfly(args) -> tuple[int, dict]:
    from .library import butterfly

    runs = [
        _butterfly_run("binary", *butterfly(), args.emit, args.enum_cap),
        _butterfly_run("wide", *butterfly(4), args.emit, args.enum_cap),
    ]
    ok = all(
        r["feasibility"].verdict and r["found"] and r["certificate"].feasibility.verdict
        for r in runs
    )
    return (0 if ok else 1), {"runs": runs}


def _cmd_n2(args) -> tuple[int, dict]:
    from .library import n2_code_check

    report = n2_code_check(args.m, args.w, args.assignment, cap=args.enum_cap)
    return (0 if report.ok else 1), {"n2": report}


def _cmd_n3_injectivity(args) -> tuple[int, dict]:
    from .library import n3_injectivity

    # None marks a parameter not given, which --grid requires; 2, 1, 1 otherwise.
    given = (args.m, args.s, args.alpha)
    if not args.grid:
        params = [tuple(d if v is None else v for v, d in zip(given, (2, 1, 1)))]
    elif given != (None, None, None):
        raise DomainError("--grid runs its own --m, --s and --alpha; give none of them")
    else:
        params = [(m, s, alpha) for m in range(2, 5) for alpha in range(1, 4)
                  for s in range(1, 8) if math.gcd(m, s) == 1]
    reports = [n3_injectivity(m, s, alpha, args.enum_cap) for m, s, alpha in params]
    return (0 if all(r.injective for r in reports) else 1), {"n3": reports}


def _cmd_dougherty(args) -> tuple[int, dict]:
    from .library import dougherty_identity_check

    report = dougherty_identity_check(
        args.alphabet, t=args.t, with_t_search=args.search, enum_cap=args.enum_cap
    )
    ok = (args.t is None or report.ok) and (not args.search or bool(report.discovered))
    return (0 if ok else 1), {"dougherty": report}


def _command(sub, name: str, help: str, handler, *positionals: str, inputs=(), enum_cap=True):
    """A leaf command's parser: its positional arguments, the common flags
    (``--enum-cap`` only where ``enum_cap``, for a handler that reads it),
    and ``handler``, which ``dispatch`` runs once the files named by the
    positionals and the ``inputs`` attributes are read."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    for positional in positionals:
        p.add_argument(positional)
    if enum_cap:
        p.add_argument("--enum-cap", type=_positive, default=None, help="tuple enumeration cap")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(handler=handler, input_attrs=(*positionals, *inputs))
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgedrop", allow_abbrev=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    pair = ("instance", "code")

    _command(sub, "validate", "structural instance checks", _cmd_validate, "instance",
             enum_cap=False)

    p = _command(sub, "verify", "exhaustive feasibility verification", _cmd_verify, *pair)
    p.add_argument("--eps", type=_parse_eps, default=Fraction(0))
    p.add_argument("--rates", type=_rates, required=True, help="bits per use, or #cardinality")

    p = _command(
        sub, "remove-edge", "remove one edge through a partition", _cmd_remove_edge, *pair,
        inputs=("partition", "groups"),
    )
    p.add_argument("--edge", required=True)
    p.add_argument(
        "--partition",
        type=_partition,
        required=True,
        help="label file, builtin:cwl, or builtin:edge-value",
    )
    p.add_argument("--eps", type=_parse_eps, default=Fraction(0))
    p.add_argument("--groups", default=None, help="group file, for builtin:cwl only")
    p.add_argument("--emit", default=None, help="prefix for restricted instance/code files")

    p = _command(
        sub, "cwl-check", "certify one edge's encoding function", _cmd_cwl_check, *pair,
        inputs=("groups",),
    )
    p.add_argument("--edge", required=True)
    p.add_argument("--groups", default=None)

    p = _command(
        sub, "pwl-remove", "remove a piecewise-CWL edge (zero error)", _cmd_pwl_remove, *pair,
        inputs=("pieces",),
    )
    p.add_argument("--edge", required=True)
    p.add_argument("--pieces", required=True)
    p.add_argument("--emit", default=None)

    p = _command(sub, "cwl-search", "bounded search for a CWL certificate", _cmd_cwl_search, *pair)
    p.add_argument("--edge", required=True)
    p.add_argument("--budget", type=_positive, default=64, help="group assignments to try")
    p.add_argument("--rewrites", type=_non_negative, choices=(0, 1), default=1,
                   help="whether to try the table rewrite")
    p.add_argument("--relabels", type=_non_negative, default=0, help="relabelings per order")

    p = _command(
        sub, "group-remove", "abelian characterized-code removal", _cmd_group_remove,
        "characterization",
    )
    p.add_argument("--edge", required=True, help="edge variable key")
    p.add_argument("--sources", type=_sources, required=True, help="comma-separated source keys")
    p.add_argument("--emit", default=None)

    p = _command(
        sub, "group-zero-error", "zero-error versus constant-error dichotomy",
        _cmd_group_zero_error, "characterization", enum_cap=False,
    )
    p.add_argument(
        "--demand",
        type=_demand,
        action="append",
        required=True,
        help="IN_KEY:SOURCE_KEY, repeatable",
    )

    studies = sub.add_parser(
        "case-study", help="bundled constructions and identity checks", allow_abbrev=False
    ).add_subparsers(dest="study", required=True)
    p = _command(studies, "butterfly", "the binary and wide butterflies", _cmd_butterfly)
    p.add_argument("--emit", default=None)
    p = _command(studies, "n2", "the relay scheme's decoding identities", _cmd_n2)
    p.add_argument("--m", type=_integer, default=2)
    p.add_argument("--w", type=_integer, default=2)
    p.add_argument("--assignment", type=_integers, default=None, help="slot assignment, a,b,...")
    p = _command(studies, "n3-injectivity", "injectivity of the n3 map", _cmd_n3_injectivity)
    p.add_argument("--m", type=_integer, default=None, help="base (default 2)")
    p.add_argument("--s", type=_integer, default=None, help="multiplier (default 1)")
    p.add_argument("--alpha", type=_integer, default=None, help="exponent (default 1)")
    p.add_argument("--grid", action="store_true", help="the full parameter grid instead")
    p = _command(studies, "dougherty", "the modified Dougherty identities", _cmd_dougherty)
    p.add_argument("--alphabet", type=_integer, default=4)
    p.add_argument("--t", type=_integers, default=None, help="explicit map t, comma-separated")
    p.add_argument("--search", action="store_true", help="brute-force all maps t")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    return build_parser()


def _semantic_argv(argv: list[str]) -> tuple[str, ...]:
    """The command echo, with execution-tuning flags (by their full names,
    the only ones the parsers take) stripped."""
    out = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        flag = token.split("=", 1)[0]
        if flag in TUNING_FLAGS:
            skip = "=" not in token
            continue
        out.append(token)
    return tuple(out)


def dispatch(argv: list[str]) -> tuple[int, RunReport, str, str | None]:
    """Run one invocation; returns status, report, format, and output path."""
    args = _parser().parse_args(argv)
    paths = [getattr(args, attr) for attr in args.input_attrs]
    with read_once(p for p in paths if p is not None and not p.startswith("builtin:")) as inputs:
        status, result = args.handler(args)
    report = RunReport(
        command=_semantic_argv(argv), inputs=inputs, result=result
    )
    return status, report, args.format, args.out


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    started = time.monotonic()
    try:
        status, report, fmt, out_path = dispatch(argv)
        payload = emit_report(report, fmt)
    except SystemExit as exc:
        status = 0 if exc.code == 0 else 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        status = 3
    except (WorkbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    except Exception as exc:
        import traceback

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        status = 3
    else:
        try:
            if out_path is None:
                sys.stdout.write(payload.decode())
            else:
                with open(out_path, "wb") as fh:
                    fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            status = 2
    print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
