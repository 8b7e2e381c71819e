"""Spans around the public functions of each ``semipos`` module.

The tracer patches every name that binds a traced function: the defining
module's attribute, every other module's imported copy (``preserver.build_np``,
``cli.parse_matrix_text``) and, for methods, the class attribute
(``Matrix.__matmul__``).  Patches exist only while ``Tracer.run`` runs an
operation, so untraced operations and output checks call the library
unchanged.

A span is ``(span_id, parent_id, op_id, name, start, end, self_time)``.  Self
time is the span's duration minus the time its direct children cover; the
tracer's own bookkeeping is charged to neither, so each layer's self time
excludes tracing cost.  Counts, the largest bit length of any rational that
crosses a traced boundary, and repeated-input ratios are taken at the same
boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

from semipos import classify, cli, construct, genfuzz, lp, preserver, ratmat

# (owner, attribute, span name); owners are modules or classes of semipos.
TRACED = (
    (ratmat, "parse_matrix_text", "ratmat.parse"),
    (ratmat, "parse_vector_text", "ratmat.parse"),
    (ratmat.Matrix, "det", "ratmat.det"),
    (ratmat.Matrix, "rank", "ratmat.rank"),
    (ratmat.Matrix, "inverse", "ratmat.inverse"),
    (ratmat.Matrix, "kernel_vector", "ratmat.kernel_vector"),
    (ratmat.Matrix, "__matmul__", "ratmat.matmul"),
    (lp, "feasible_nonneg", "lp.feasible_nonneg"),
    (lp, "equality_feasible_nonneg", "lp.equality_feasible_nonneg"),
    (lp, "feasible_nonneg_bruteforce", "lp.feasible_nonneg_bruteforce"),
    (lp, "equality_feasible_nonneg_bruteforce", "lp.equality_feasible_nonneg_bruteforce"),
    (classify, "classify_all", "classify.classify_all"),
    (classify, "is_semipositive", "classify.is_semipositive"),
    (classify, "has_nonneg_left_inverse", "classify.has_nonneg_left_inverse"),
    (classify, "is_minimally_semipositive", "classify.is_minimally_semipositive"),
    (classify, "msp_by_deletion", "classify.msp_by_deletion"),
    (classify, "is_row_positive", "classify.is_row_positive"),
    (classify, "is_monomial", "classify.is_monomial"),
    (classify, "is_inverse_nonnegative", "classify.is_inverse_nonnegative"),
    (construct, "build_np", "construct.build_np"),
    (construct, "build_pos", "construct.build_pos"),
    (construct, "build_rect", "construct.build_rect"),
    # mixed_sign_vector delegates to the _with_path variant, so one span name
    # for the variant counts each construction once on either entry point
    (construct, "mixed_sign_vector", "construct.mixed_sign_vector_entry"),
    (construct, "mixed_sign_vector_with_path", "construct.mixed_sign_vector"),
    (preserver, "into_sp_preserver", "preserver.verdict"),
    (preserver, "onto_sp_preserver", "preserver.verdict"),
    (preserver, "into_msp_preserver", "preserver.verdict"),
    (preserver, "onto_msp_preserver", "preserver.verdict"),
    (preserver, "falsify_into_sp", "preserver.falsify"),
    (preserver, "falsify_into_msp", "preserver.falsify"),
    (preserver, "into_sp_condition", "preserver.condition"),
    (preserver, "into_msp_square_condition", "preserver.condition"),
    (preserver, "apply", "preserver.apply"),
    (preserver.FalsifyCertificate, "verify", "preserver.verify"),
    (preserver.PreserverMap, "inverse_map", "preserver.inverse_map"),
    (genfuzz, "gen_monomial", "genfuzz.gen"),
    (genfuzz, "gen_inverse_nonneg", "genfuzz.gen"),
    (genfuzz, "gen_inverse_nonneg_with_inverse", "genfuzz.gen"),
    (genfuzz, "gen_sp", "genfuzz.gen"),
    (genfuzz, "gen_sp_with_witness", "genfuzz.gen"),
    (genfuzz, "gen_msp", "genfuzz.gen"),
    (genfuzz, "iter_msp_mixture", "genfuzz.msp_mixture"),
    (genfuzz, "msp_basis_search", "genfuzz.msp_basis_search"),
    (cli, "run", "cli.run"),
)

_LP = ("lp.feasible_nonneg", "lp.equality_feasible_nonneg")
_CLASSIFY_DEDUP = (
    "classify.is_semipositive",
    "classify.has_nonneg_left_inverse",
    "classify.is_minimally_semipositive",
    "classify.msp_by_deletion",
    "classify.is_inverse_nonnegative",
    "classify.classify_all",
)


def max_bits(value) -> int:
    """Largest numerator or denominator bit length inside ``value``."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, ratmat.Matrix):
        return max(max_bits(x) for row in value.entries for x in row)
    if isinstance(value, ratmat.Vector):
        return max(max_bits(x) for x in value.entries)
    if isinstance(value, (tuple, list)):
        return max((max_bits(x) for x in value), default=0)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return max(
            (max_bits(getattr(value, f.name)) for f in dataclasses.fields(value)),
            default=0,
        )
    return 0


def _semipos_modules():
    return [m for name, m in sys.modules.items() if name == "semipos" or name.startswith("semipos.")]


class Tracer:
    """Records spans and boundary counts for operations run through ``run``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.max_bits = 0
        self._stack: list[list] = []  # [span_id, time covered by children]
        self._next_id = 0
        self._op_id = -1
        self._seen: set = set()
        self._patches = self._bindings()

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding of a traced function."""
        patches = []
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            patches.append((owner, attr, original, wrapper))
            if isinstance(owner, type):
                continue
            for module in _semipos_modules():
                for alias, value in vars(module).items():
                    if value is original and (module, alias) != (owner, attr):
                        patches.append((module, alias, original, wrapper))
        return patches

    def bound_names(self) -> list[str]:
        return sorted(f"{getattr(o, '__name__', o)}.{a}" for o, a, _, _ in self._patches)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._call(name, next, (it,), {})
                    except StopIteration:
                        return
                    self.counts[name + ".draws"] += 1
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _call(self, name: str, fn, args, kwargs):
        entered = perf_counter()
        try:
            self._observe_args(name, args)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, self._op_id, name, start, end, end - start - frame[1]))
            self.counts[name + ".calls"] += 1
            self.max_bits = max(self.max_bits, max_bits(result))
            if name in _LP and result.feasible:
                self.counts["lp.feasible"] += 1
            return result
        finally:
            # the parent's self time excludes this call and its bookkeeping
            if self._stack:
                self._stack[-1][1] += perf_counter() - entered

    def _observe_args(self, name: str, args) -> None:
        self.max_bits = max(self.max_bits, max_bits(args))
        if name in _LP:
            key = (name, args)
        elif name in _CLASSIFY_DEDUP:
            key = (name, args)
            name = "classify"
        elif name == "preserver.verify":
            key = (name, args[0])
        else:
            return
        if key in self._seen:
            self.counts[name + ".duplicates"] += 1
        self._seen.add(key)

    def run(self, op_id: int, op_name: str, fn, *args) -> tuple[object, float]:
        """Run ``fn(*args)`` as operation ``op_id`` under a root span named
        ``op.<op_name>``, with every binding patched only meanwhile; returns
        the result and the root span's duration."""
        self._op_id = op_id
        self._seen = set()
        self.install()
        try:
            result = self._call("op." + op_name, fn, args, {})
        finally:
            self.uninstall()
        root = self.spans[-1]
        return result, root[5] - root[4]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def self_time(self, prefix: str) -> float:
        """Summed self time of spans whose name is ``prefix`` or starts with ``prefix.``."""
        return sum(s[6] for s in self.spans if s[3] == prefix or s[3].startswith(prefix + "."))

    def write(self, path) -> None:
        with gzip.open(path, "wt") as out:
            for span_id, parent, op_id, name, start, end, _ in self.spans:
                out.write(json.dumps([span_id, parent, op_id, name, start, end]) + "\n")
