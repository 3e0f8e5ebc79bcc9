"""Immutable value classes on ``__slots__``, without ``dataclasses``.

``Frozen`` gives its subclasses the value semantics of a frozen dataclass:
``==``, ``hash`` and ``repr`` read the fields named in ``_fields``, ``==``
against another class is ``NotImplemented``, and assigning or deleting an
attribute raises ``AttributeError``. A subclass writes its slots once, in
``__init__``, through ``set_field``. The package avoids ``dataclasses``
because importing it pulls in ``inspect``, ``ast`` and ``dis``, which cost
every command about 10 ms of start-up.
"""

from operator import attrgetter

set_field = object.__setattr__    # writes a slot past Frozen.__setattr__


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # ``==`` and ``hash`` read the fields through one C-level getter;
        # for a single field it gives the bare value
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values):
        # a plain record: one positional value per field, no checks
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}")
        for name, value in zip(self._fields, values):
            set_field(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which checks again
        return type(self), tuple(getattr(self, name) for name in self._fields)
