"""Per-layer self time and counts, measured from outside the program.

``Tracer.install`` wraps public functions and methods of each ``edgedrop``
module.  Every wrapped call is a span; a span's self time is its duration
minus the time of the spans it encloses, so the ``_s`` figures add up to at
most the traced wall time.  Counts are taken at the same boundaries.  The
program itself is not changed and knows nothing of the tracing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Name, unit and meaning of every per-layer metric, in report order.
METRICS = {
    "network.load_instance_s": "s",
    "network.topological_order_calls": "count",
    "codes.load_code_s": "s",
    "codes.validate_code_s": "s",
    "codes.build_global_table_s": "s",
    "codes.check_feasibility_s": "s",
    "codes.tables_built": "count",
    "codes.tuples_enumerated": "count",
    "removal.partition_s": "s",
    "removal.fiber_checks_s": "s",
    "removal.find_witness_s": "s",
    "removal.restrict_s": "s",
    "removal.reverify_s": "s",
    "removal.reverifications": "count",
    "groups.subgroup_check_s": "s",
    "groups.subgroup_checks": "count",
    "groups.op_calls": "count",
    "groups.table_group_s": "s",
    "cwl.derive_edge_group_s": "s",
    "cwl.check_cwl_s": "s",
    "cwl.search_s": "s",
    "cwl.assignments_tried": "count",
    "cwl.assignment_yield": "ratio",
    "groupcodes.load_characterization_s": "s",
    "groupcodes.realize_map_s": "s",
    "groupcodes.removal_plan_s": "s",
    "groupcodes.zero_error_upgrade_s": "s",
    "cli.dispatch_s": "s",
    "cli.emit_report_s": "s",
    "cli.report_bytes": "bytes",
}

RESTRICTION = "removal.restrict"
REVERIFY = "removal.reverify"


class Tracer:
    def __init__(self):
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, time of enclosed spans]

    # ------------------------------------------------------------ spans

    def _inside(self, *names: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] in names

    def _wrap(self, fn, name: str, after=None):
        """Time ``fn`` as span ``name``; ``after(result)`` counts its output.

        Work of the codes layer nested under a restriction is the
        re-verification of the restricted code, so it is booked there.
        """
        stack = self._stack
        totals = self.self_time
        booked_under_restriction = name.startswith("codes.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if booked_under_restriction and self._inside(RESTRICTION, REVERIFY):
                span = REVERIFY
            frame = [span, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = time.perf_counter() - frame[1]
                totals[span] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(span, result)
            return result

        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------- install

    @staticmethod
    def _replace(module, attr: str, wrapper) -> None:
        """Rebind ``module.attr`` wherever an edgedrop module imported it."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("edgedrop"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def install(self) -> None:
        import edgedrop.cli  # noqa: F401  (loads every layer)
        from edgedrop import cli, codes, cwl, groupcodes, groups, network, removal

        counts = self.counts

        def table_built(span, table):
            counts["codes.tables_built"] += 1
            counts["codes.tuples_enumerated"] += table.num_tuples

        def feasibility_checked(span, report):
            if span == REVERIFY:
                counts["removal.reverifications"] += 1

        def derived(span, result):
            if self._inside("cwl.search"):
                counts["cwl.assignments_tried"] += 1
                counts["cwl.witnesses"] += result is not None

        def subgroup_checked(span, result):
            counts["groups.subgroup_checks"] += 1

        def emitted(span, payload):
            counts["cli.report_bytes"] += len(payload)

        spans = [
            (network, "load_instance", "network.load_instance", None),
            (codes, "load_code", "codes.load_code", None),
            (codes, "validate_code", "codes.validate_code", None),
            (codes, "build_global_table", "codes.build_global_table", table_built),
            (codes, "check_feasibility", "codes.check_feasibility", feasibility_checked),
            (removal, "fiber_edge_values", "removal.fiber_checks", None),
            (removal, "fibers_are_products", "removal.fiber_checks", None),
            (removal, "find_witness", "removal.find_witness", None),
            (removal, "restrict_code", RESTRICTION, None),
            (removal, "_restrict_to_part", RESTRICTION, None),
            (removal, "restrict_to_product", RESTRICTION, None),
            (removal, "remove_by_edge_value", RESTRICTION, None),
            (groups, "is_subgroup", "groups.subgroup_check", subgroup_checked),
            (cwl, "derive_edge_group", "cwl.derive_edge_group", derived),
            (cwl, "check_cwl", "cwl.check_cwl", None),
            (cwl, "cwl_search", "cwl.search", None),
            (groupcodes, "load_characterization", "groupcodes.load_characterization", None),
            (groupcodes, "gc_realize_subgroup", "groupcodes.realize_map", None),
            (groupcodes, "abelian_removal_plan", "groupcodes.removal_plan", None),
            (groupcodes, "zero_error_upgrade", "groupcodes.zero_error_upgrade", None),
            (cli, "dispatch", "cli.dispatch", None),
            (cli, "emit_report", "cli.emit_report", emitted),
        ]
        for module, attr, name, after in spans:
            self._replace(module, attr, self._wrap(getattr(module, attr), name, after))
        # Counted where codes calls it: once per enumerated tuple today.
        codes.topological_order = self._counter(codes.topological_order, "network.topological_order_calls")

        part = removal.SourcePartition
        part.__init__ = self._wrap(part.__init__, "removal.partition")
        for attr in ("singletons", "whole", "from_source_classes", "from_edge_values"):
            method = part.__dict__[attr].__func__
            setattr(part, attr, classmethod(self._wrap(method, "removal.partition")))
        groups.TableGroup.__init__ = self._wrap(groups.TableGroup.__init__, "groups.table_group")
        for cls in (groups.CyclicGroup, groups.ProductGroup, groups.TableGroup):
            cls.op = self._counter(cls.op, "groups.op_calls")
        gc = groupcodes.GroupCharacterization
        gc.realize_map = self._wrap(gc.realize_map, "groupcodes.realize_map")

    # ----------------------------------------------------------- report

    def per_round(self, rounds: int) -> dict:
        """Every per-layer metric, averaged over whole rounds."""
        out = {}
        for name, unit in METRICS.items():
            if name == "cwl.assignment_yield":
                tried = self.counts["cwl.assignments_tried"]
                value = self.counts["cwl.witnesses"] / tried if tried else 0.0
            elif unit == "s":
                value = self.self_time[name[:-2]] / rounds
            else:
                value = self.counts[name] / rounds
            out[name] = {"value": value, "unit": unit}
        return out
