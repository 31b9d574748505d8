"""Value classes without dataclasses, whose import and class decoration
took about a fifth of the CLI's start-up. A Record compares, hashes and
prints by the fields named in `_fields`, as a dataclass does; results that
need neither a cache nor a custom equality are typing.NamedTuple."""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """A Record whose __init__ sets its fields through __dict__, and which
    refuses any later assignment, so what `cached_property` keeps there
    cannot go stale."""

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{self.__class__.__name__}.{name} is read-only")

    __delattr__ = __setattr__
