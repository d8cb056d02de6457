"""Program-object descriptors (the ObjectDesc of paper section 6).

An :class:`ObjectDesc` names a *program object* a session might monitor:

* ``local`` — one static occurrence of an automatic variable (all
  run-time instantiations share the descriptor, paper section 5);
* ``static`` — a function-scope static variable;
* ``global`` — a file-scope variable;
* ``heap`` — one heap allocation (realloc preserves the descriptor,
  footnote 4); its ``context`` records every function on the call stack
  at allocation time, which is what AllHeapInFunc sessions select on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TraceFormatError

LOCAL = "local"
STATIC = "static"
GLOBAL = "global"
HEAP = "heap"

KINDS = (LOCAL, STATIC, GLOBAL, HEAP)


@dataclass
class ObjectDesc:
    """One monitorable program object."""

    id: int
    kind: str
    name: str
    function: Optional[str] = None
    context: Tuple[str, ...] = ()
    size_bytes: int = 4
    is_param: bool = False

    @property
    def qualified_name(self) -> str:
        """Stable display name, e.g. ``f.x`` or ``heap#17``."""
        if self.kind in (LOCAL, STATIC) and self.function:
            return f"{self.function}.{self.name}"
        return self.name


class ObjectRegistry:
    """All objects discovered while tracing one program."""

    def __init__(self) -> None:
        self.objects: List[ObjectDesc] = []
        self._local_keys: Dict[Tuple[str, str], int] = {}
        self._global_keys: Dict[str, int] = {}
        self._heap_count = 0

    def __len__(self) -> int:
        return len(self.objects)

    def get(self, object_id: int) -> ObjectDesc:
        try:
            return self.objects[object_id]
        except IndexError:
            raise TraceFormatError(f"unknown object id {object_id}") from None

    def _add(self, desc: ObjectDesc) -> ObjectDesc:
        self.objects.append(desc)
        return desc

    def local(self, function: str, name: str, size_bytes: int, is_param: bool) -> ObjectDesc:
        """Descriptor for a local auto variable (idempotent per (f, name))."""
        key = (function, name)
        object_id = self._local_keys.get(key)
        if object_id is not None:
            return self.objects[object_id]
        desc = ObjectDesc(
            id=len(self.objects),
            kind=LOCAL,
            name=name,
            function=function,
            size_bytes=size_bytes,
            is_param=is_param,
        )
        self._local_keys[key] = desc.id
        return self._add(desc)

    def static(self, function: str, name: str, size_bytes: int) -> ObjectDesc:
        """Descriptor for a function-scope static."""
        key = (function, name)
        object_id = self._local_keys.get(key)
        if object_id is not None:
            return self.objects[object_id]
        desc = ObjectDesc(
            id=len(self.objects),
            kind=STATIC,
            name=name,
            function=function,
            size_bytes=size_bytes,
        )
        self._local_keys[key] = desc.id
        return self._add(desc)

    def global_(self, name: str, size_bytes: int) -> ObjectDesc:
        """Descriptor for a file-scope global."""
        object_id = self._global_keys.get(name)
        if object_id is not None:
            return self.objects[object_id]
        desc = ObjectDesc(
            id=len(self.objects), kind=GLOBAL, name=name, size_bytes=size_bytes
        )
        self._global_keys[name] = desc.id
        return self._add(desc)

    def heap(self, function: str, context: Tuple[str, ...], size_bytes: int) -> ObjectDesc:
        """Fresh descriptor for one heap allocation."""
        self._heap_count += 1
        desc = ObjectDesc(
            id=len(self.objects),
            kind=HEAP,
            name=f"heap#{self._heap_count}",
            function=function,
            context=context,
            size_bytes=size_bytes,
        )
        return self._add(desc)

    # -- queries -------------------------------------------------------------

    def by_kind(self, kind: str) -> List[ObjectDesc]:
        """All objects of one kind."""
        if kind not in KINDS:
            raise TraceFormatError(f"unknown object kind {kind!r}")
        return [obj for obj in self.objects if obj.kind == kind]
