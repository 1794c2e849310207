"""Immutable value records: equality, hashing, repr and frozen fields.

This is the part of the standard library's frozen record decorator that
flashmod uses, without the import cost of inspect, ast and dis.
"""

__all__ = ["Record"]


class Record:
    """A value equal, hashed and shown by the fields named in _fields.

    A subclass validates its arguments in __init__ and stores them with
    _set, field by field in order through object.__setattr__; any other
    assignment or deletion of an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle would restore each slot through the refused __setattr__
        return _rebuild, (type(self), self._values())


def _rebuild(cls, values):
    """The record of class cls holding values, as copy and pickle rebuild it."""
    record = object.__new__(cls)
    record._set(*values)
    return record
