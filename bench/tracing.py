"""Spans at the aybe module boundaries, recorded from outside the program.

`Tracer.install()` replaces each traced function in every `aybe` module
namespace that holds it: `from aybe.tensor import check_skew` copies the
reference into `aybe.cli` and `aybe.poisson`, so patching the defining
module alone would miss those calls. `Tracer.remove()` puts every original
back. Spans stay in memory as (name, start, end, parent, job) tuples, where
`parent` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, attribute, span name)
FUNCTIONS = [
    ("aybe.cli", "main", "cli"),
    ("aybe.exactlin", "mat_inverse", "exactlin.mat_inverse"),
    ("aybe.exactlin", "mat_mul", "exactlin.mat_mul"),
    ("aybe.frobenius", "build_basis", "frobenius.build_basis"),
    ("aybe.frobenius", "r_from_algebra", "frobenius.r_from_algebra"),
    ("aybe.frobenius", "cocycle_residual", "frobenius.cocycle_residual"),
    ("aybe.closedform", "r_closed", "closedform.r_closed"),
    ("aybe.tensor", "compare_tensors", "tensor.compare_tensors"),
    ("aybe.tensor", "aybe_residual", "tensor.aybe_residual"),
    ("aybe.tensor", "check_skew", "tensor.check_skew"),
    ("aybe.tensor", "gl_transform", "tensor.gl_transform"),
    ("aybe.tensor", "transpose_dual", "tensor.transpose_dual"),
    ("aybe.poisson", "scalar_bracket_from_r", "poisson.scalar_bracket_from_r"),
    ("aybe.poisson", "matrix_bracket_from_r", "poisson.matrix_bracket_from_r"),
    ("aybe.poisson", "jacobi_residual", "poisson.jacobi_residual"),
    ("aybe.poisson", "compare_to_closed_2m", "poisson.compare_to_closed_2m"),
    ("aybe.poisson", "bracket_to_json", "poisson.bracket_to_json"),
]

# (defining module, class, method, span name); patched on the class itself
METHODS = [
    ("aybe.tensor", "Tensor4", "loads", "tensor.loads"),
    ("aybe.tensor", "Tensor4", "dumps", "tensor.dumps"),
]

SPAN_NAMES = [name for *_, name in FUNCTIONS + METHODS]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "aybe" or key.startswith("aybe.")
        ]
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, traced)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(self.wrap(name, raw.__func__))
            else:
                traced = self.wrap(name, raw)
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, traced)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def layer_times(spans, cmd_of: dict, scale_of: dict) -> dict:
    """Sum spans per (command, span name) into [calls, inclusive s, self s],
    each span's times multiplied by its job's factor in `scale_of`.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because a pass runs on one thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, job) in enumerate(spans):
        acc = out.setdefault((cmd_of[job], name), [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) * scale_of[job]
        acc[2] += (end - start - child[i]) * scale_of[job]
    return out
