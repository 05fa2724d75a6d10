"""Command-line entry point wiring every workbench module together.

Subcommands cover instance validation, exhaustive feasibility verification,
the edge-removal routes, CWL certification and search, group-characterized
codes, and the bundled case studies.  Exit status 0 means a verified-true
outcome, 1 a verified-false or not-found outcome, 2 a usage or input
problem (an ``--out`` file that cannot be written among them), and 3 a
failed internal consistency check or any other uncaught exception, which
indicates a bug in the workbench.  Error targets ``--eps`` lie in [0, 1);
the builtin removal routes and ``pwl-remove`` (always at eps 0) exit 1 when
the code's own error is above eps.  Label files give one label per source
tuple, all JSON integers (each fitting in 64 bits) or all strings.

Reports are deterministic: the command echo keeps only semantic arguments
(execution tuning such as ``--enum-cap`` and ``--out`` is excluded),
structured results are written by ``network.indented_json`` as the bytes of
``json.dumps(result, indent=2, sort_keys=True)``, and timing goes to stderr
only, so the same inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import (
    NetworkCode,
    _json_table,
    build_global_table,
    check_feasibility,
    code_to_dict,
    load_code,
    save_code,
)
from .cwl import (
    CwlWitness,
    SearchBudget,
    certify_cwl,
    check_piecewise,
    cwl_remove,
    cwl_search,
    piecewise_remove,
)
from .errors import DomainError, InternalCheckError, WorkbenchError
from .groupcodes import abelian_removal_plan, load_characterization, zero_error_upgrade
from .groups import CyclicGroup, group_from_description
from .library import (
    butterfly,
    butterfly4,
    dougherty_identity_check,
    n2_code_check,
    n3_injectivity,
)
from .network import (
    NetworkInstance,
    indented_json,
    instance_to_dict,
    load_instance,
    load_json,
    require_int,
    save_instance,
    validate_instance,
)
from .removal import (
    RemovalResult,
    SourcePartition,
    fiber_edge_values,
    fibers_are_products,
    find_witness,
    remove_by_edge_value,
    restrict_code,
)

TUNING_FLAGS = {"--enum-cap", "--out", "--format", "--emit"}
ERROR_ABOVE_EPS = "code error exceeds the requested eps"


@dataclass(frozen=True)
class RunReport:
    """Deterministic record of one invocation."""

    command: tuple[str, ...]
    inputs: dict[str, str]
    result: dict

    def to_dict(self) -> dict:
        return {
            "command": list(self.command),
            "inputs": dict(sorted(self.inputs.items())),
            "result": self.result,
        }


def _collect_certificates(node) -> list[dict]:
    out = []
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "certificate" and isinstance(value, dict):
                out.append(value)
            else:
                out.extend(_collect_certificates(value))
    elif isinstance(node, list):
        for value in node:
            out.extend(_collect_certificates(value))
    return out


def emit_report(report: RunReport, fmt: str = "text") -> bytes:
    """Serialize a report; text is JSON, csv tabulates the certificates."""
    if fmt == "text":
        return (indented_json(report.to_dict()) + "\n").encode()
    if fmt == "csv":
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
                    cert["edge_id"],
                    cert["eps"],
                    json.dumps(cert["witness_label"]),
                    cert["edge_constant"],
                    ";".join(str(v) for v in cert["promised_cardinalities"]),
                    ";".join(str(v) for v in cert["achieved_cardinalities"]),
                    cert["feasibility"]["verdict"],
                ]
            )
        return buf.getvalue().encode()
    raise DomainError(f"unknown report format {fmt!r}")


def parse_report(payload: bytes) -> RunReport:
    data = json.loads(payload.decode())
    return RunReport(
        command=tuple(data["command"]),
        inputs=dict(data["inputs"]),
        result=data["result"],
    )


def _parse_eps(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"expected a rational like 1/4, got {text!r}") from None
    if value < 0 or value >= 1:
        raise DomainError(f"eps must satisfy 0 <= eps < 1, got {text!r}")
    return value


def _int_at_least(low: int, what: str):
    """An argparse type for flag values that must be integers of at least
    ``low``; anything else is a usage error that names the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _int_list(text: str) -> tuple[int, ...]:
    """A comma-separated list of integers; empty text is the empty list."""
    try:
        return tuple(int(v) for v in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers a,b,..., got {text!r}") from None


def _parse_rates(text: str, blocklength: int) -> list[int]:
    """Per-source cardinality targets: plain integers are bits per use."""
    out = []
    for raw in text.split(","):
        entry = raw.strip()
        try:
            value = int(entry.removeprefix("#"))
        except ValueError:
            raise DomainError(f"--rates entries must be integers, got {entry!r}") from None
        if entry.startswith("#"):
            if value < 1:
                raise DomainError(f"cardinality target must be >= 1, got {entry!r}")
            out.append(value)
        else:
            if value < 0:
                raise DomainError(f"bit target must be >= 0, got {entry!r}")
            out.append(2 ** (value * blocklength))
    return out


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str, tables=None) -> dict:
    data = load_json(path, tables)
    if not isinstance(data, dict):
        raise DomainError(f"{path}: expected a JSON object")
    return data


def _load_groups_file(path: str):
    data = _load_json(path)
    if not isinstance(data.get("sources"), list):
        raise DomainError(f"{path}: 'sources' must list the source group descriptions")
    sources = [group_from_description(d) for d in data["sources"]]
    edge_desc = data.get("edge")
    support = data.get("edge_support")
    if (edge_desc is None) != (support is None):
        raise DomainError(f"{path}: edge group and edge support go together")
    edge = group_from_description(edge_desc) if edge_desc is not None else None
    return sources, edge, _edge_support(support) if support is not None else None


def _edge_support(symbols) -> tuple[int, ...]:
    if not isinstance(symbols, list):
        raise DomainError("'edge_support' must be a list of integers")
    return tuple(require_int(v, "edge support symbol") for v in symbols)


def _resolve_witness(table, edge_id: str, groups_path: str | None) -> CwlWitness | None:
    """Witness for the edge's encoding function, deriving structure if needed."""
    edge = None
    if groups_path is not None:
        sources, edge_group, support = _load_groups_file(groups_path)
        if tuple(g.order for g in sources) != table.source_sizes:
            raise DomainError("group file does not match the source alphabets")
        if edge_group is not None:
            edge = (edge_group, support)
    else:
        sources = [CyclicGroup(n) for n in table.source_sizes]
    return certify_cwl(table.edge_values(edge_id), sources, edge)


def _witness_dict(w: CwlWitness) -> dict:
    return {
        "source_groups": [g.describe() for g in w.source_groups],
        "edge_group": w.edge_group.describe(),
        "edge_support": list(w.edge_support),
        "hom": w.hom,
    }


def _removal_dict(res: RemovalResult, prefix: str | None) -> dict:
    """Report fields of a removal; writes the restricted files under prefix."""
    if prefix is not None:
        save_instance(res.instance, prefix + ".instance.json")
        save_code(res.code, prefix + ".code.json")
    return {
        "certificate": res.certificate.to_dict(),
        "restricted_instance": instance_to_dict(res.instance),
        "restricted_code": code_to_dict(res.code),
    }


def _load_table(args):
    """The instance, the code and their global table under ``--enum-cap``."""
    inst = load_instance(args.instance)
    code = load_code(args.code)
    return inst, code, build_global_table(inst, code, enum_cap=args.enum_cap)


def _cmd_validate(args) -> tuple[int, dict]:
    inst = load_instance(args.instance)
    problems = validate_instance(inst)
    return (0 if not problems else 1), {"problems": problems}


def _cmd_verify(args) -> tuple[int, dict]:
    inst, code, table = _load_table(args)
    rates = _parse_rates(args.rates, code.blocklength)
    report = check_feasibility(inst, code, args.eps, rates, table=table)
    return (0 if report.verdict else 1), {"feasibility": report.to_dict()}


def _label_table(data):
    """Where a label file keeps its one table: integer labels."""
    return [(data.get("labels"), 1)] if isinstance(data, dict) else []


def _cmd_remove_edge(args) -> tuple[int, dict]:
    inst, code, table = _load_table(args)
    route = {"builtin:cwl": "cwl", "builtin:edge-value": "edge-value"}.get(args.partition)
    if route == "edge-value" and args.eps != 0:
        raise DomainError("the edge-value route only applies at eps 0")
    if route is not None and table.error > args.eps:
        return 1, {
            "route": route,
            "found": False,
            "reason": ERROR_ABOVE_EPS,
        }

    if route == "cwl":
        witness = _resolve_witness(table, args.edge, args.groups)
        res = None
        if witness is not None:
            res = cwl_remove(inst, code, table, args.edge, witness, args.eps)
        if res is None:
            return 1, {"route": "cwl", "found": False}
        result = {"route": "cwl", "found": True, "witness": _witness_dict(witness)}
        return 0, {**result, **_removal_dict(res, args.emit)}

    if route == "edge-value":
        res = remove_by_edge_value(inst, code, table, args.edge)
        if res is None:
            return 1, {"route": "edge-value", "found": False}
        return 0, {"route": "edge-value", "found": True, **_removal_dict(res, args.emit)}

    data = _load_json(args.partition, _label_table)
    if "labels" not in data:
        raise DomainError(f"{args.partition}: missing partition labels")
    labels = data["labels"]
    kinds = set(map(type, labels)) if isinstance(labels, list) else {None}
    # Integer labels become an int64 array, unless load_json read them as one.
    if kinds <= {int}:
        labels = _json_table(labels, 1, f"{args.partition}: labels")
    if not (isinstance(labels, np.ndarray) or kinds <= {str}):
        raise DomainError(f"{args.partition}: labels must be all integers or all strings")
    part = SourcePartition(table.source_sizes, labels)
    conditions = {
        "determines_edge": fiber_edge_values(table, args.edge, part) is not None,
        "parts_are_products": fibers_are_products(part),
    }
    if not all(conditions.values()):
        return 1, {"route": "partition", "found": False, "conditions": conditions}
    label = find_witness(table, args.edge, part, args.eps)
    if label is None:
        return 1, {"route": "partition", "found": False, "conditions": conditions}
    res = restrict_code(inst, code, table, args.edge, part, label, args.eps)
    result = {"route": "partition", "found": True, "conditions": conditions}
    return 0, {**result, **_removal_dict(res, args.emit)}


def _cmd_cwl_check(args) -> tuple[int, dict]:
    _, _, table = _load_table(args)
    witness = _resolve_witness(table, args.edge, args.groups)
    if witness is None:
        return 1, {"witness": None}
    return 0, {"witness": _witness_dict(witness)}


def _cmd_pwl_remove(args) -> tuple[int, dict]:
    inst, code, table = _load_table(args)
    if table.error != 0:
        return 1, {"found": False, "reason": ERROR_ABOVE_EPS}
    data = _load_json(args.pieces)
    if "pieces" not in data or "edge_support" not in data:
        raise DomainError(f"{args.pieces}: missing pieces or edge support")
    if "sources" in data and data["sources"] is not None:
        sources = [group_from_description(d) for d in data["sources"]]
    else:
        sources = [CyclicGroup(n) for n in table.source_sizes]
    pieces = [
        (
            [[require_int(v, "piece subset symbol") for v in sub] for sub in p["subsets"]],
            [require_int(v, "piece phi entry") for v in p["phi"]],
        )
        for p in data["pieces"]
    ]
    pw = check_piecewise(
        table.edge_values(args.edge), sources, _edge_support(data["edge_support"]), pieces
    )
    if pw is None:
        return 1, {"found": False}
    res = piecewise_remove(inst, code, table, args.edge, pw)
    return 0, {"found": True, "pieces": len(pw.pieces), **_removal_dict(res, args.emit)}


def _cmd_cwl_search(args) -> tuple[int, dict]:
    inst = load_instance(args.instance)
    code = load_code(args.code)
    budget = SearchBudget(
        max_group_assignments=args.budget,
        max_table_rewrites=args.rewrites,
        max_relabels_per_order=args.relabels,
    )
    found = cwl_search(inst, code, args.edge, budget, enum_cap=args.enum_cap)
    if found is None:
        return 1, {"found": False}
    result = {
        "found": True,
        "witness": _witness_dict(found.witness),
        "rewritten": found.rewritten,
    }
    if found.rewritten:
        result["rewritten_code"] = code_to_dict(found.code)
    return 0, result


def _cmd_group_remove(args) -> tuple[int, dict]:
    gc = load_characterization(args.characterization)
    source_keys = [k.strip() for k in args.sources.split(",") if k.strip()]
    plan = abelian_removal_plan(gc, args.edge, source_keys, enum_cap=args.enum_cap)
    result = {
        "checks": plan.checks,
        "auxiliary_order": plan.g_prime.order,
        "materialized_instance": instance_to_dict(plan.instance),
        "materialized_code": code_to_dict(plan.code),
    }
    return 0, {**result, **_removal_dict(plan.removal, args.emit)}


def _cmd_group_zero_error(args) -> tuple[int, dict]:
    gc = load_characterization(args.characterization)
    demands = []
    for raw in args.demand:
        if ":" not in raw:
            raise DomainError(f"demand {raw!r} must look like IN_KEY:SOURCE_KEY")
        in_key, source_key = raw.split(":", 1)
        demands.append((in_key.strip(), source_key.strip()))
    decisions = zero_error_upgrade(gc, demands)
    result = {"decisions": [d.to_dict() for d in decisions]}
    status = 0 if all(d.kind == "zero_error" for d in decisions) else 1
    return status, result


def _butterfly_run(name: str, inst: NetworkInstance, code: NetworkCode, emit, enum_cap) -> dict:
    table = build_global_table(inst, code, enum_cap=enum_cap)
    feas = check_feasibility(inst, code, Fraction(0), list(code.source_alphabets), table=table)
    witness = _resolve_witness(table, "bottleneck", None)
    entry: dict = {"name": name, "feasibility": feas.to_dict()}
    res = None
    if witness is not None:
        res = cwl_remove(inst, code, table, "bottleneck", witness, Fraction(0))
    if res is None:
        entry["found"] = False
        return entry
    if emit is not None:
        save_instance(inst, f"{emit}.{name}.instance.json")
        save_code(code, f"{emit}.{name}.code.json")
    entry["found"] = True
    entry.update(_removal_dict(res, None if emit is None else f"{emit}.{name}.restricted"))
    return entry


def _cmd_case_study(args) -> tuple[int, dict]:
    if args.name == "butterfly":
        runs = [
            _butterfly_run("binary", *butterfly(), args.emit, args.enum_cap),
            _butterfly_run("wide", *butterfly4(), args.emit, args.enum_cap),
        ]
        ok = all(
            r["feasibility"]["verdict"]
            and r.get("found")
            and r["certificate"]["feasibility"]["verdict"]
            for r in runs
        )
        return (0 if ok else 1), {"runs": runs}

    if args.name == "n2":
        report = n2_code_check(args.m, args.w, args.assignment or None, cap=args.enum_cap)
        return (0 if report.ok else 1), {"n2": report.to_dict()}

    if args.name == "n3-injectivity":
        if args.grid:
            reports = []
            for m in range(2, 5):
                for alpha in range(1, 4):
                    for s in range(1, 8):
                        if math.gcd(m, s) != 1:
                            continue
                        reports.append(n3_injectivity(m, s, alpha, args.enum_cap).to_dict())
            ok = all(r["injective"] for r in reports)
            return (0 if ok else 1), {"n3": reports}
        report = n3_injectivity(args.m, args.s, args.alpha, args.enum_cap)
        return (0 if report.injective else 1), {"n3": [report.to_dict()]}

    if args.name == "dougherty":
        t = args.t or None  # an empty --t is no map
        report = dougherty_identity_check(
            args.alphabet, t=t, with_t_search=args.search, enum_cap=args.enum_cap
        )
        ok = True
        if t is not None:
            ok = ok and report.ok
        if args.search:
            ok = ok and bool(report.discovered)
        return (0 if ok else 1), {"dougherty": report.to_dict()}

    raise DomainError(f"unknown case study {args.name!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--enum-cap", type=_positive_int, default=None, help="tuple enumeration cap")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("text", "csv"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgedrop")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="structural instance checks")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(handler=_cmd_validate, input_attrs=("instance",))

    p = sub.add_parser("verify", help="exhaustive feasibility verification")
    p.add_argument("instance")
    p.add_argument("code")
    p.add_argument("--eps", type=_parse_eps, default=Fraction(0))
    p.add_argument("--rates", required=True, help="bits per use, or #cardinality")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify, input_attrs=("instance", "code"))

    p = sub.add_parser("remove-edge", help="remove one edge through a partition")
    p.add_argument("instance")
    p.add_argument("code")
    p.add_argument("--edge", required=True)
    p.add_argument(
        "--partition",
        required=True,
        help="label file, builtin:cwl, or builtin:edge-value",
    )
    p.add_argument("--eps", type=_parse_eps, default=Fraction(0))
    p.add_argument("--groups", default=None, help="group file for the cwl route")
    p.add_argument("--emit", default=None, help="prefix for restricted instance/code files")
    _add_common(p)
    p.set_defaults(handler=_cmd_remove_edge, input_attrs=("instance", "code"))

    p = sub.add_parser("cwl-check", help="certify one edge's encoding function")
    p.add_argument("instance")
    p.add_argument("code")
    p.add_argument("--edge", required=True)
    p.add_argument("--groups", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_cwl_check, input_attrs=("instance", "code"))

    p = sub.add_parser("pwl-remove", help="remove a piecewise-CWL edge (zero error)")
    p.add_argument("instance")
    p.add_argument("code")
    p.add_argument("--edge", required=True)
    p.add_argument("--pieces", required=True)
    p.add_argument("--emit", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_pwl_remove, input_attrs=("instance", "code", "pieces"))

    p = sub.add_parser("cwl-search", help="bounded search for a CWL certificate")
    p.add_argument("instance")
    p.add_argument("code")
    p.add_argument("--edge", required=True)
    p.add_argument("--budget", type=_positive_int, default=64, help="group assignments to try")
    p.add_argument("--rewrites", type=_non_negative_int, default=1, help="table rewrites to try")
    p.add_argument("--relabels", type=_non_negative_int, default=0, help="relabelings per order")
    _add_common(p)
    p.set_defaults(handler=_cmd_cwl_search, input_attrs=("instance", "code"))

    p = sub.add_parser("group-remove", help="abelian characterized-code removal")
    p.add_argument("characterization")
    p.add_argument("--edge", required=True, help="edge variable key")
    p.add_argument("--sources", required=True, help="comma-separated source keys")
    p.add_argument("--emit", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_group_remove, input_attrs=("characterization",))

    p = sub.add_parser("group-zero-error", help="zero-error versus constant-error dichotomy")
    p.add_argument("characterization")
    p.add_argument(
        "--demand",
        action="append",
        required=True,
        help="IN_KEY:SOURCE_KEY, repeatable",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_group_zero_error, input_attrs=("characterization",))

    p = sub.add_parser("case-study", help="bundled constructions and identity checks")
    p.add_argument(
        "name", choices=("butterfly", "n2", "n3-injectivity", "dougherty")
    )
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--w", type=int, default=2)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--alphabet", type=int, default=4)
    p.add_argument("--assignment", type=_int_list, default=None, help="n2 slot assignment, a,b,...")
    p.add_argument("--t", type=_int_list, default=None, help="explicit map t, comma-separated")
    p.add_argument("--search", action="store_true", help="brute-force all maps t")
    p.add_argument("--grid", action="store_true", help="full parameter grid")
    p.add_argument("--emit", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_case_study, input_attrs=())

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    return build_parser()


def _semantic_argv(argv: list[str]) -> tuple[str, ...]:
    """The command echo, with execution-tuning flags stripped."""
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
    inputs = {}
    for attr in args.input_attrs:
        path = getattr(args, attr)
        if path is not None and not path.startswith("builtin:"):
            inputs[path] = _digest(path)
    if (
        getattr(args, "partition", None) is not None
        and not args.partition.startswith("builtin:")
    ):
        inputs[args.partition] = _digest(args.partition)
    if getattr(args, "groups", None) is not None:
        inputs[args.groups] = _digest(args.groups)
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
        code = exc.code if isinstance(exc.code, int) else 2
        return code if code == 0 else 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3
    if out_path is None:
        sys.stdout.write(payload.decode())
    else:
        try:
            with open(out_path, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
