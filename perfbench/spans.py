"""Spans around erasurelab's public functions, installed from outside.

Each traced function is replaced, wherever a caller looks its name up
(every loaded ``erasurelab`` module that binds it, or the class attribute
for constructors and methods), by a wrapper that records one span:
(label, start_ns, end_ns, parent index).  Spans stay in memory until the
run writes them out.  Three counts are computed from argument shapes at the
call boundary, so they repeat exactly between runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

COUNTS = {"verify.kl_flops": "flop", "states.amps_touched": "count", "codes.basis_bytes": "B"}


def _amps_touched(arg) -> tuple[str, int]:
    return "states.amps_touched", int(arg("state").amps.size)


def _basis_bytes(arg) -> tuple[str, int]:
    basis = arg("logical_basis")
    if not isinstance(basis, (list, tuple)):  # never consume an iterator
        return "codes.basis_bytes", 0
    return "codes.basis_bytes", sum(int(s.amps.nbytes) for s in basis)


def _kl_products(code, n_products: int) -> tuple[str, int]:
    # each product is (L x D) @ (D x L) in complex arithmetic: 8 real flops per term
    n_logical = len(code.logical_basis)
    return "verify.kl_flops", 8 * n_products * n_logical * n_logical * 2**code.n_physical


def _kl_general_flops(arg) -> tuple[str, int]:
    return _kl_products(arg("code"), len(arg("errors").operators) ** 2)


def _erasure_kl_flops(arg) -> tuple[str, int]:
    return _kl_products(arg("code"), 4)  # one product per Pauli


# (metric label, module, attribute path, count at the call boundary or None)
TARGETS = (
    ("states.apply_local_operator", "states", "apply_local_operator", _amps_touched),
    ("states.partial_trace", "states", "partial_trace", None),
    ("states.PureState", "states", "PureState.__init__", None),
    ("states.DensityMatrix", "states", "DensityMatrix.__init__", None),
    ("gates.apply_circuit", "gates", "apply_circuit", None),
    ("codes.build", "codes", "six_qubit_logical_basis", None),
    ("codes.build", "codes", "w_code", None),
    ("codes.build", "codes", "hiding_code", None),
    ("codes.build", "codes", "CodeSpec.__init__", _basis_bytes),
    ("codes.encode", "codes", "CodeSpec.encode", None),
    ("noise.channel", "noise", "pauli_error", None),
    ("noise.channel", "noise", "random_decoherence", None),
    ("noise.channel", "noise", "leakage_decoherence", None),
    ("noise.apply_erasure", "noise", "apply_erasure", None),
    ("verify.check_kl_general", "verify", "check_kl_general", _kl_general_flops),
    ("verify.check_erasure_kl", "verify", "check_erasure_kl", _erasure_kl_flops),
    ("verify.check_hiding", "verify", "check_hiding", None),
    ("verify.synthesize_recovery", "verify", "synthesize_recovery", None),
    ("verify.run_recovery_trial", "verify", "run_recovery_trial", None),
    ("cli.build_code", "cli", "build_code", None),
    ("cli.render_json", "cli", "render_json", None),
    ("cli.main", "cli", "main", None),
)

LABELS = tuple(dict.fromkeys(label for label, *_ in TARGETS))


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, label: str, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                def arg(name):
                    i = params.index(name)
                    return args[i] if i < len(args) else kwargs[name]

                key, value = count(arg)
                counts[key] += value
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (label, start, end, parent)

        return traced

    def install(self, package: str = "erasurelab") -> list[str]:
        """Patch every target; returns the targets this version lacks."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        missing = []
        for label, module_name, path, count in TARGETS:
            module = sys.modules.get(f"{package}.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(label, original, count)
            if owner_name:  # constructor or method: callers find it on the class
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)
        return missing

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def write(self, path: str) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def summarize(spans, first: int = 0, last: int | None = None) -> dict[str, tuple[int, float]]:
    """Per label (calls, self ms) over spans[first:last], a window that holds
    whole top-level spans."""
    window = [(label, s, e, p - first if p >= first else -1)
              for label, s, e, p in spans[first:last]]
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for (label, *_), own in zip(window, self_times(window)):
        calls[label] += 1
        self_ns[label] += own
    return {label: (calls[label], self_ns[label] / 1e6) for label in LABELS}
