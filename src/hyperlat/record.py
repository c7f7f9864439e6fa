"""Immutable value records, written without generated code.

`Record` gives its subclasses what a frozen dataclass would: attribute
assignment raises, instances of one class compare equal when their fields
are equal, and the hash is taken over the fields.  It generates no
methods, so importing it loads neither `dataclasses` nor `inspect`, which
matters because every CLI run pays for its imports.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the immutable value types.

    A subclass writes its own `__init__`, which stores each field with
    `object.__setattr__`; the parameters of that `__init__` name the
    fields, in order.  Instances keep a `__dict__`, so `cached_property`
    works on them.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def replace(record: Record, **changes) -> Record:
    """A new record of the same class with the named fields changed."""
    fields = {name: getattr(record, name) for name in record._fields}
    fields.update(changes)
    return type(record)(**fields)
