"""In-memory span tracer that wraps gpcn's public functions from outside.

A span is (name, start, end, parent span, op id, value).  The op id is the
index of the span's root, so every span caused by one ``run_cell`` or one
``run_lab`` call shares it.  ``value`` holds one number a hook reads off the
call's arguments or result (steps run, pack bytes, accepted flag, ...).

Wrappers only read the clock and append to arrays: they draw nothing from
any RNG, so traced and untraced runs produce byte-identical artifacts.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Optional

import numpy as np

Hook = Callable[[tuple, dict, object], float]


class Tracer:
    """Wraps every binding site of the named functions while installed.

    ``targets`` maps ``"module:qualname"`` (for example
    ``"elliptic:phi"`` or ``"proposals:ProposalKernel.pack_at"``) to an
    optional hook.  A target the package no longer defines is listed in
    ``absent`` instead of raising.
    """

    def __init__(self, targets: dict, package: str = "gpcn"):
        self.package = package
        self.targets = dict(targets)
        self.names: list = []
        self.absent: list = []
        self.sites: dict = {}             # span label -> "module.attr" binding sites patched
        self._patches: list = []
        self._stack: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")

    # -- installation -------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(prefix))]

    def install(self) -> "Tracer":
        modules = self._modules()
        for target, hook in self.targets.items():
            mod_name, _, qualname = target.partition(":")
            module = sys.modules.get(f"{self.package}.{mod_name}")
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                owner = getattr(module, cls_name, None) if module is not None else None
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(target)
                continue
            label = f"{mod_name}.{qualname.replace('.__post_init__', '')}"
            wrapped = self._wrap(label, original, hook)
            self.sites[label] = []
            if owner is not module:          # a method: one binding, on its class
                self._patch(label, owner, attr, original, wrapped)
                continue
            for mod in modules:              # a function: every module that binds it
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(label, mod, key, original, wrapped)
        return self

    def _patch(self, label, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))
        where = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
        self.sites[label].append(f"{where}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, label: str, fn, hook: Optional[Hook]):
        nid = len(self.names)
        self.names.append(label)
        stack, clock = self._stack, time.perf_counter
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, value = self.start, self.end, self.value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            if stack:
                parent.append(stack[-1])
                op.append(op[stack[0]])
            else:
                parent.append(-1)
                op.append(idx)
            name_id.append(nid)
            end.append(0.0)
            value.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                value[idx] = hook(args, kwargs, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def _columns(self) -> dict:
        return {"name": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "value": np.frombuffer(self.value, dtype=float)}

    def spans(self) -> dict:
        """Columnar copy of all spans, with duration and self time added."""
        spans = {key: col.copy() for key, col in self._columns().items()}
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        spans.update(duration=dur, self=dur - covered[: dur.size])
        return spans

    def save(self, path) -> None:
        """Write the raw span columns; ``spans()`` shows how duration and self time follow."""
        np.savez(path, names=np.asarray(self.names), absent=np.asarray(self.absent, dtype=str),
                 **self._columns())
