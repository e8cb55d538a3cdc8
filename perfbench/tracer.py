"""Call tracer for the benchmark's traced runs.

The tracer replaces named functions and methods of ``reidemeister`` with
timing wrappers, at every module namespace that binds them, so calls made
inside the package are seen as well as the benchmark's own.  For each name
it keeps the call count, the total time and the self time: the total minus
the part covered by wrapped callees.  Hot names, called up to millions of
times a run, are only aggregated; every other call also keeps a span
(name, start, end, parent span, job) in memory, written out when the run
ends.  A name the package no longer defines is recorded as absent.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


def _closure_elements(counters, args, result):
    counters["kernels.closure_elements"] += len(result[0])


def _action_rows(counters, args, result):
    counters["kernels.action_table_rows"] += len(args[0])


def _twisted_elements(counters, args, result):
    counters["group.twisted_classes_elements"] += args[0].order


def _table_rows(counters, args, result):
    counters["group.action_table_rows"] += len(result)


# (layer name, module, attribute path, hot, counter hook)
TARGETS = [
    ("kernels.closure", "reidemeister.kernels", "closure", False, _closure_elements),
    ("kernels.action_table", "reidemeister.kernels", "action_table", False, _action_rows),
    ("group.generate_group", "reidemeister.group", "generate_group", False, None),
    ("group.twisted_classes", "reidemeister.group", "twisted_classes", False,
     _twisted_elements),
    ("group.action_table", "reidemeister.group", "FiniteGroup.action_table", False,
     _table_rows),
    ("group.lex_order", "reidemeister.group", "FiniteGroup.lex_order", False, None),
    ("group.mul_ids", "reidemeister.group", "FiniteGroup.mul_ids", True, None),
    ("group.inverse_id", "reidemeister.group", "FiniteGroup.inverse_id", True, None),
    ("modring.canonical_key", "reidemeister.modring", "canonical_key", True, None),
    ("modring.mat_inverse", "reidemeister.modring", "mat_inverse", True, None),
    ("automorphisms.sign_flip", "reidemeister.automorphisms", "sign_flip", False, None),
    ("automorphisms.validate", "reidemeister.automorphisms", "_validate_automorphism",
     False, None),
    ("automorphisms.validate", "reidemeister.automorphisms", "Character.validate",
     False, None),
    ("automorphisms.inner", "reidemeister.automorphisms", "inner", False, None),
    ("automorphisms.character_twist", "reidemeister.automorphisms", "character_twist",
     False, None),
    ("generators.standard_generators", "reidemeister.generators", "standard_generators",
     False, None),
    ("cli.main", "reidemeister.cli", "main", False, None),
] + [(f"certify.{name}", "reidemeister.certify", name, False, None)
     for name in ("semidirect_oracle", "shift_bijection_check", "thm33_block_certificate",
                  "quotient_epi_check", "refined_split_check", "growth_scan",
                  "prop32_certificate")]

COUNTERS = ("kernels.closure_elements", "kernels.action_table_rows",
            "group.action_table_rows", "group.twisted_classes_elements",
            "automorphisms.validate_pairs")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = []  # (name, start, end, parent span index, job)
        self.job = None
        # per open call: [time in wrapped callees, own or nearest kept span, parent span]
        self._stack = []

    def _open(self, keep):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        if keep:
            self.spans.append(None)
            frame = [0.0, len(self.spans) - 1, parent]
        else:
            frame = [0.0, parent, parent]
        stack.append(frame)
        return frame

    def _close(self, name, frame, start, end, keep):
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[0]
        if keep:
            self.spans[frame[1]] = (name, start, end, frame[2], self.job)

    @contextlib.contextmanager
    def region(self, name):
        """Times a block of the benchmark's own job loop as a span."""
        frame = self._open(True)
        start = self.clock()
        try:
            yield
        finally:
            self._close(name, frame, start, self.clock(), True)

    def products(self) -> int:
        """Group products computed so far: one per mul_ids call, and one per row
        of every table FiniteGroup.action_table returns, cached or not."""
        return (self.stats.get("group.mul_ids", [0])[0]
                + self.counters["group.action_table_rows"])

    def wrap(self, name, fn, hot=False, count=None):
        clock, open_, close = self.clock, self._open, self._close
        keep = not hot
        counters = self.counters
        # A validation is charged with the products its callees compute.
        validation = name == "automorphisms.validate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = self.products() if validation else 0
            frame = open_(keep)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, frame, start, clock(), keep)
                if validation:
                    counters["automorphisms.validate_pairs"] += self.products() - before
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def patch(self, module_name, path, replacement_for):
        """Replace module_name.path at every binding; returns False if absent.

        replacement_for(original) gives the new object.  A dotted path names
        a method, which is replaced on its class.
        """
        module = sys.modules.get(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return False
        new = replacement_for(original)
        if owner_path:
            setattr(owner, attr, new)
            return True
        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.split(".")[0] == "reidemeister":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, new)
        return True

    def install(self, targets=TARGETS):
        """Wrap every target; returns the layer names not found in the package."""
        found = {}
        for name, module, path, hot, count in targets:
            ok = self.patch(module, path,
                            lambda fn: self.wrap(name, fn, hot=hot, count=count))
            found[name] = found.get(name, False) or ok
        return sorted(name for name, ok in found.items() if not ok)
