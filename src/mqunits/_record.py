"""Value records: the equality, hashing and immutability of the result classes,
with no code generated at import.

A record class lists its fields in __slots__, in constructor order, and its
__init__ passes every field value, in that order, to Record.__init__.  Two
records are equal when they are of one class and agree on every field
outside _uncompared.  A Record is mutable and unhashable; a FrozenRecord
refuses assignment with AttributeError, hashes by its compared fields, and
is rebuilt through its __init__ when pickled or copied.
"""


class Record:
    __slots__ = ()
    _uncompared = ()
    __hash__ = None

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__ if name not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: restoring the slots would assign
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
