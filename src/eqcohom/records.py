"""Value classes without dataclasses, whose import and class decoration
took about a fifth of the CLI's start-up. A Record compares, hashes and
prints by the fields named in `_fields`, as a dataclass does; results that
need neither a cache nor a custom equality are typing.NamedTuple. A value
kept once computed is a `cached` method: cached_property locks before 3.12."""

from __future__ import annotations


class cached:
    """functools.cached_property without its lock: computed on first read
    and kept in the object's __dict__, where later reads find it first."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        obj.__dict__[self.func.__name__] = value = self.func(obj)
        return value


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
    refuses any later assignment, so what `cached` keeps there cannot go stale."""

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{self.__class__.__name__}.{name} is read-only")

    __delattr__ = __setattr__
