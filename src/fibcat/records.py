"""Result records: plain classes with __slots__ and their own __init__.

Record compares and prints a record as a dataclass would: equal to a
record of the same class whose fields are equal, shown as
Name(field=value, ...).  Fields named in _hidden, caches, are left out
of both.  A class that defines __eq__ gets no __hash__, so a Record is
unhashable unless it is a FrozenRecord.  Nothing is generated at import.
"""


class Record:
    __slots__ = ()
    _hidden = ()

    def _names(self):
        return [name for name in self.__slots__ if name not in self._hidden]

    def _values(self):
        return tuple([getattr(self, name) for name in self._names()])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._names())
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record that cannot be assigned to once built; it hashes by its
    fields.  __init__ sets them through _fill, in __slots__ order."""
    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
