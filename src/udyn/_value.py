"""Immutable value classes built without generated code.

``@dataclass(frozen=True)`` writes an ``__init__``, ``__eq__``,
``__hash__``, ``__repr__`` and ``__setattr__`` for each class and compiles
them with ``exec`` at import, about 0.4 to 1 ms a class.  :class:`Value`
gives its subclasses the same behaviour from methods written once here.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Tuple

__all__ = ["Value", "unfrozen"]

#: Stores a field of a value; only a class's own constructors call it.
_set = object.__setattr__


def _getter(fields: Tuple[str, ...]):
    """The class attribute that maps a value to the tuple of its ``fields``.

    An ``attrgetter`` is no descriptor, so the class hands it out as it is,
    faster than it calls a ``staticmethod``."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        one = attrgetter(fields[0])
        return staticmethod(lambda obj: (one(obj),))
    return staticmethod(lambda obj: ())


def _rebuild(cls: type, values: tuple):
    """The value of ``cls`` with field tuple ``values``: what ``copy`` and
    ``pickle`` call, since ``__setattr__`` refuses the fields."""
    out = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        _set(out, name, value)
    return out


class Value:
    """Base of udyn's frozen value classes.

    A subclass names its fields in ``__slots__``, in order, and stores
    them in its own ``__init__`` with ``_set``.  One that keeps
    ``cached_property`` caches adds ``"__dict__"`` to its slots; the caches
    are not fields.  ``_fields`` holds the field names.  Two values are
    equal when they have the same type and equal fields, the hash is the
    hash of the field tuple and the repr is ``Name(field=value, ...)``, as
    for a frozen dataclass.  Assigning or deleting an attribute raises
    ``AttributeError``; ``copy`` and ``pickle`` rebuild a value from its
    fields.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields += tuple(name for name in own if name != "__dict__")
        cls._values = _getter(cls._fields)

    def __init__(self) -> None:  # a fieldless value; _replace reads the signature
        pass

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (type(self), self._values(self))

    def _replace(self, **changes):
        """A copy with ``changes`` applied, built by ``__init__``, so it is
        validated again; a field ``__init__`` does not take is derived
        there."""
        code = type(self).__init__.__code__
        args = {name: getattr(self, name) for name in code.co_varnames[1 : code.co_argcount]}
        args.update(changes)
        return type(self)(**args)


def unfrozen(cls: type) -> type:
    """A twin of the value class ``cls``: the same slots, plain assignment.

    A hot constructor fills ``object.__new__(twin)`` by attribute stores,
    which run about twice as fast as ``_set``, then seals it with
    ``out.__class__ = cls``; the shared layout is what allows the switch.
    It skips ``__init__``, so its caller passes fields already in shape.
    ``__setattr__`` and ``__delattr__`` share one type slot, so both are
    ``object``'s: with either one inherited from :class:`Value`, every store
    goes through a Python-level lookup and the twin is slower than ``_set``.
    """
    namespace = {
        "__slots__": cls.__slots__,
        "__setattr__": object.__setattr__,
        "__delattr__": object.__delattr__,
    }
    return type(cls.__name__, (cls.__base__,), namespace)
