"""Span tracer that wraps fertaper's public functions from outside.

Each target is a (layer, function) name plus the dotted attribute that
implements it.  Installing the tracer replaces that attribute, and every
module-global alias of it inside ``fertaper``, with a wrapper that
records a span ``[name, start, end, parent, instance]`` in memory; hot
functions get a counting wrapper instead.  Targets that no longer resolve
are listed in ``missing`` so a renamed function reads as a missing metric
rather than a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

TIERS = ("small", "medium", "large")


def _on_canonicalize(tr, args, result):
    tr.add("pauli.terms_in", len(args[0].terms))
    tr.add("pauli.terms_out", len(result.terms))


def _on_find_symmetries(tr, args, result):
    tr.add("tapering.generators", result.size)


def _on_simulator(tr, args, result):
    tr.add("codeword.frames", len(result))


def _on_materialize(tr, args, result):
    tr.add("codeword.entries", len(result))


def _on_full_table(tr, args, result):
    tr.add("mitm.table_entries", len(result))


def _on_build_tables(tr, args, result):
    tr.add("mitm.table_entries", sum(result.sizes))


def _on_mitm_decode(tr, args, result):
    if not tr.in_decode:  # direct calls only; CodeEncoding.decode counts its own
        tr.add("mitm.decodes", 1)
        tr.add("mitm.hits", result is not None)


def _on_bin_terms(tr, args, result):
    tr.add("firstq.groups", len(result))
    tr.add("firstq.terms", sum(len(terms) for _, terms in result))


# (metric name, module, dotted attribute, observer)
SPAN_TARGETS = (
    ("cli.main", "fertaper.cli", "main", None),
    ("fermion.from_json", "fertaper.fermion", "FermionHamiltonian.from_json", None),
    ("standard_maps.encode_hamiltonian", "fertaper.standard_maps", "encode_hamiltonian", None),
    ("pauli.canonicalize", "fertaper.pauli", "QubitHamiltonian.canonicalize", _on_canonicalize),
    ("pauli.dense", "fertaper.pauli", "QubitHamiltonian.dense", None),
    ("pauli.to_text", "fertaper.pauli", "hamiltonian_to_text", None),
    ("pauli.from_text", "fertaper.pauli", "hamiltonian_from_text", None),
    ("gf2.kernel_basis", "fertaper.gf2", "kernel_basis", None),
    ("gf2.rref", "fertaper.gf2", "rref", None),
    ("tapering.find_symmetries", "fertaper.tapering", "find_symmetries", _on_find_symmetries),
    ("tapering.build_plan", "fertaper.tapering", "build_plan", None),
    ("tapering.clifford_transform", "fertaper.tapering", "clifford_transform", None),
    ("tapering.taper", "fertaper.tapering", "taper", None),
    ("codeword.encoding_init", "fertaper.codeword", "CodeEncoding.__post_init__", None),
    ("codeword.build_simulator_hamiltonian", "fertaper.codeword",
     "build_simulator_hamiltonian", _on_simulator),
    ("codeword.materialize", "fertaper.codeword", "FramedDiagonal.materialize", _on_materialize),
    ("codeword.load_pcm", "fertaper.codeword", "load_pcm", None),
    ("graphs.greedy_high_girth", "fertaper.graphs", "greedy_high_girth", None),
    ("graphs.girth", "fertaper.graphs", "girth", None),
    ("graphs.load_graph", "fertaper.graphs", "load_graph", None),
    ("graphs.save_graph", "fertaper.graphs", "save_graph", None),
    ("mitm.full_decode_table", "fertaper.mitm", "full_decode_table", _on_full_table),
    ("mitm.build_tables", "fertaper.mitm", "build_tables", _on_build_tables),
    ("mitm.mitm_decode", "fertaper.mitm", "mitm_decode", _on_mitm_decode),
    ("firstq.first_quantized_parts", "fertaper.firstq", "first_quantized_parts", None),
    ("firstq.rao_hamming_oa", "fertaper.firstq", "rao_hamming_oa", None),
    ("firstq.bin_terms", "fertaper.firstq", "bin_terms", _on_bin_terms),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory spans and per-tier counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.instance: int | None = None
        self.tier: str | None = None
        self.in_decode = False
        self.active = False  # set by the runner around timed steps only
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counters[(name, self.tier)] += value

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        for name, module, attr, observer in SPAN_TARGETS:
            self._wrap(name, module, attr, self.span(name, observer))
        # called 1e5-1e6 times per instance: counted, never spanned
        self._wrap("codeword.decode_calls", "fertaper.codeword", "CodeEncoding.decode",
                   self._decode_counter)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, module: str, attr: str, make) -> None:
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(name)
            return
        if isinstance(raw, classmethod):
            self._patch(owner, leaf, raw, classmethod(make(raw.__func__)))
            return
        if not callable(raw):
            self.missing.append(name)
            return
        wrapped = make(raw)
        self._patch(owner, leaf, raw, wrapped)
        if path:
            return
        # module-level function: rebind every `from ... import` alias too
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("fertaper") and mod is not owner:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, raw, wrapped)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def span(self, name: str, observer=None):
        """Decorator recording a span per call made while the tracer is active."""
        spans, stack = self.spans, self._stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:  # harness work: set-up, checks
                    return fn(*args, **kwargs)
                record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.instance]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    stack.pop()
                if observer is not None:
                    observer(self, args, result)
                return result

            return wrapper

        return make

    def _decode_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.in_decode = True
            try:
                result = fn(*args, **kwargs)
            finally:
                self.in_decode = False
            self.add("codeword.decode_calls", 1)
            self.add("mitm.decodes", 1)
            self.add("mitm.hits", result is not None)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict[tuple[str, int | None], float]:
        """Sum of span self time per (span name, instance)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[tuple[str, int | None], float] = defaultdict(float)
        for i, (name, start, end, _, inst) in enumerate(self.spans):
            out[(name, inst)] += (end - start) - covered[i]
        return out

    def metrics(self, tier_of: dict[int, str]) -> dict[str, dict]:
        """Per-layer metrics: self seconds and counts per instance of each tier."""
        per_tier = {t: sum(1 for v in tier_of.values() if v == t) for t in TIERS}
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        for (name, inst), secs in self.self_times().items():
            if inst in tier_of:
                self_s[(name, tier_of[inst])] += secs
        out: dict[str, dict] = {}
        for tier in TIERS:
            n = per_tier[tier]
            for name, *_ in SPAN_TARGETS:
                out[f"{name}.{tier}_s"] = {"value": _ratio(self_s[(name, tier)], n),
                                           "unit": "s"}

            def get(key: str, tier=tier) -> float:
                return self.counters.get((key, tier), 0.0)

            counts = (
                ("pauli.merge_ratio", "ratio",
                 _ratio(get("pauli.terms_out"), get("pauli.terms_in"))),
                ("tapering.generators", "count", _ratio(get("tapering.generators"), n)),
                ("codeword.frames", "count", _ratio(get("codeword.frames"), n)),
                ("codeword.decode_calls", "count", _ratio(get("codeword.decode_calls"), n)),
                ("codeword.decode_per_entry", "ratio",
                 _ratio(get("codeword.decode_calls"), get("codeword.entries"))),
                ("mitm.table_entries", "count", _ratio(get("mitm.table_entries"), n)),
                ("mitm.hit_ratio", "ratio", _ratio(get("mitm.hits"), get("mitm.decodes"))),
                ("firstq.terms_per_group", "ratio",
                 _ratio(get("firstq.terms"), get("firstq.groups"))),
            )
            for name, unit, value in counts:
                out[f"{name}.{tier}"] = {"value": value, "unit": unit}
        out["trace.missing_targets"] = {"value": len(self.missing), "unit": "count"}
        return out
