"""In-memory spans around calls into the program's layers.

The program itself carries no wall-clock spans yet, so the traced run
wraps the public functions of each layer from here: every call records
``[name, start, end, parent, tag]`` into one list, where ``parent`` is the
index of the enclosing span and ``tag`` the query or bucket the call
serves.  A span's self time is its duration minus the durations of its
direct children.  Child processes are not traced.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

#: Span record fields.
NAME, START, END, PARENT, TAG = range(5)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner: Any, attribute: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute`` with ``make(original function)``.

        Static methods stay static; plain methods and module functions are
        replaced by the returned function.  A method a class inherits is
        shadowed on that class and the shadow removed on restore.
        """
        own = isinstance(owner, type) and attribute in owner.__dict__
        raw = owner.__dict__[attribute] if own else getattr(owner, attribute)
        if isinstance(raw, staticmethod):
            setattr(owner, attribute, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attribute, make(raw))
        inherited = isinstance(owner, type) and not own
        self._undo.append((owner, attribute, None if inherited else raw))

    def restore(self) -> None:
        while self._undo:
            owner, attribute, raw = self._undo.pop()
            if raw is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, raw)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


class Tracer(Patches):
    """Records one span per call of every wrapped function."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__()
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._clock = clock

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        tag: Optional[Callable[..., Any]] = None,
        observe: Optional[Callable[..., None]] = None,
    ) -> None:
        """Trace calls of ``owner.attribute`` as spans called *name*.

        *tag(*args)* names what the call serves; *observe(result, *args)*
        runs after the span has closed, to count work without timing it.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        def make(function: Callable) -> Callable:
            def traced(*args, **kwargs):
                record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                          tag(*args) if tag is not None else None]
                stack.append(len(spans))
                spans.append(record)
                record[START] = clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    record[END] = clock()
                    stack.pop()
                if observe is not None:
                    observe(result, *args)
                return result

            return traced

        self.replace(owner, attribute, make)

    def reset(self) -> None:
        """Forget recorded spans; installed wrappers keep recording into the same list."""
        del self.spans[:]
        del self._stack[:]


def self_times(spans: List[list]) -> List[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own
