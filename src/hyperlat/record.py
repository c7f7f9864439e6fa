"""Immutable value records and the two caches, written without generated code.

`Record` gives its subclasses what a frozen dataclass would: attribute
assignment raises, instances of one class compare equal when their fields
are equal, and the hash is taken over the fields.  It generates no
methods, so importing it loads neither `dataclasses` nor `inspect`.
`cached_property` and `memo` are this module's own small versions of
`functools.cached_property` and `functools.lru_cache(maxsize=None)`, so
that no hyperlat module imports `functools` (and with it `collections`,
`keyword`, `reprlib` and `operator`).  All of this matters because every
CLI run pays for its imports.
"""

from __future__ import annotations

from _operator import attrgetter


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


class cached_property:
    """A method's value computed on first read and stored in the instance's
    `__dict__` under the method's name.  This is a non-data descriptor, so
    the stored value shadows it on every later read; storing bypasses
    `__setattr__`, so it works on a `Record`."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class CacheInfo:
    """The counters of a `memo` cache, named as `functools.lru_cache` names them."""

    def __init__(self, hits, misses, currsize):
        self.hits, self.misses, self.currsize = hits, misses, currsize


def memo(func):
    """`func` with its results kept for the life of the process, keyed by
    its positional arguments, which must be hashable.  A call that raises
    stores nothing, but counts as a miss.  `cache_info()` and
    `cache_clear()` behave as on `functools.lru_cache(maxsize=None)`."""
    cache = {}
    counts = [0, 0]  # hits, misses

    def wrapper(*args):
        try:
            value = cache[args]
        except KeyError:
            counts[1] += 1
            value = cache[args] = func(*args)
            return value
        counts[0] += 1
        return value

    def cache_clear():
        cache.clear()
        counts[:] = [0, 0]

    wrapper.cache_info = lambda: CacheInfo(counts[0], counts[1], len(cache))
    wrapper.cache_clear = cache_clear
    wrapper.__name__ = func.__name__
    wrapper.__qualname__ = func.__qualname__
    wrapper.__doc__ = func.__doc__
    wrapper.__wrapped__ = func
    return wrapper
