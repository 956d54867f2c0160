"""Span recorder for the benchmark's traced runs.

The tracer wraps public functions and methods of the ``repro`` package
from the outside: nothing under ``src/`` knows it is being traced.  Each
call to a wrapped target records one span ``(id, parent, name, start,
end)`` in memory; spans are written out only when the run ends.

Targets are named by module and qualified name.  A function bound into
other modules by ``from ... import`` is replaced in every ``repro``
module that holds it, and modules imported *after* :meth:`Tracer.install`
are patched as they load (a post-import hook), so a traced CLI child
imports exactly the modules an untraced one does.
"""

from __future__ import annotations

import importlib.machinery
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (module, qualified name, span name, observer or None).  An observer is
#: called as ``observer(tracer, args, result)`` after the call returns;
#: it turns return values into counters (requests replayed, store hits).
Target = Tuple[str, str, str, Optional[Callable[..., None]]]

Span = Tuple[int, int, str, float, float]


class Tracer:
    """In-memory spans plus counters, recorded around wrapped targets."""

    def __init__(self, targets: Sequence[Target] = ()) -> None:
        self.targets = list(targets)
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: Dict[int, Tuple[Any, Callable[..., Any]]] = {}
        self._undo: List[Tuple[Any, str, Any]] = []
        self._finder: Optional[_PostImportFinder] = None

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Id of the innermost open span on this thread, or -1."""
        stack = self._stack()
        return stack[-1] if stack else -1

    def span(self, name: str) -> "_SpanContext":
        """A ``with`` block recorded as one span (the benchmark's own)."""
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def wrap(
        self,
        name: str,
        func: Callable[..., Any],
        observe: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        traced.__name__ = getattr(func, "__name__", name)
        traced.perfbench_span = name  # type: ignore[attr-defined]
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target now loaded and every one that loads later."""
        fresh = [
            module_name
            for module_name, _, _, _ in self.targets
            if module_name in sys.modules
        ]
        self._wrap_targets_in(set(fresh))
        self._finder = _PostImportFinder(self._loaded)
        sys.meta_path.insert(0, self._finder)

    def uninstall(self) -> None:
        """Restore every patched attribute and remove the import hook."""
        if self._finder is not None and self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        self._finder = None
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._originals.clear()

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _loaded(self, module: Any) -> None:
        """Post-import hook: wrap targets defined in ``module``, then
        re-bind wrapped functions that ``module`` imported by name."""
        if any(module.__name__ == target[0] for target in self.targets):
            self._wrap_targets_in({module.__name__})
        self._rebind(module)

    def _wrap_targets_in(self, module_names: set) -> None:
        added = False
        for module_name, qualname, name, observe in self.targets:
            if module_name not in module_names:
                continue
            module = sys.modules[module_name]
            owner_path, _, attr = qualname.rpartition(".")
            owner: Any = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            current = owner.__dict__.get(attr)
            if current is None or hasattr(current, "perfbench_span"):
                continue
            wrapper = self.wrap(name, current, observe)
            self._set(owner, attr, wrapper)
            if owner is module:
                # Plain functions are also re-bound wherever a module
                # imported them by name.
                self._originals[id(current)] = (current, wrapper)
                added = True
        if added:
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro") and module is not None:
                    self._rebind(module)

    def _rebind(self, module: Any) -> None:
        if not self._originals:
            return
        for attr, value in list(vars(module).items()):
            hit = self._originals.get(id(value))
            if hit is not None and hit[0] is value:
                self._set(module, attr, hit[1])

    # -- results -------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return {
            span_id: (end - start) - child_time[span_id]
            for span_id, _, _, start, end in self.spans
        }

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        selfs = self.self_times()
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span_id, _, name, _, _ in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += selfs[span_id]
        return {name: (int(calls), total) for name, (calls, total) in out.items()}

    def adopt(self, spans: Iterable[Sequence[Any]], parent: int) -> None:
        """Merge spans recorded in another process under ``parent``."""
        remap: Dict[int, int] = {}
        rows = sorted(spans, key=lambda row: row[0])
        for span_id, _, _, _, _ in rows:
            remap[span_id] = next(self._ids)
        for span_id, span_parent, name, start, end in rows:
            self.spans.append(
                (
                    remap[span_id],
                    remap.get(span_parent, parent),
                    name,
                    float(start),
                    float(end),
                )
            )

    def dump(self, path: str) -> None:
        """Write spans and counters as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end"],
                    "spans": sorted(self.spans),
                    "counters": dict(sorted(self.counters.items())),
                },
                handle,
            )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = -1

    def __enter__(self) -> "_SpanContext":
        stack = self.tracer._stack()
        self.span_id = next(self.tracer._ids)
        self.parent = stack[-1] if stack else -1
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.span_id, self.parent, self.name, self.start, end)
        )


class _PostImportFinder:
    """Meta-path finder that runs a callback after each ``repro`` module
    finishes executing, so late imports are patched as they appear."""

    def __init__(self, callback: Callable[[Any], None]) -> None:
        self.callback = callback

    def find_spec(self, fullname: str, path: Any = None, target: Any = None) -> Any:
        if not fullname.startswith("repro"):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        callback = self.callback

        def exec_then_patch(module: Any) -> None:
            exec_module(module)
            callback(module)

        spec.loader.exec_module = exec_then_patch  # type: ignore[method-assign]
        return spec
