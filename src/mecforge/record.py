"""The base of the package's value types: plain immutable records."""


class Record:
    """Fields named in ``__slots__`` and set once, in ``__init__``; a record
    equals, hashes and prints as the tuple of its fields."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):  # and __delattr__: a field never changes
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # copy and pickle fill a bare record with its slots
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
