"""Frozen record classes, built without the `dataclasses` module.

A subclass of `Record` names its fields as class annotations, in order,
and gives a default as a class attribute.  An instance is built
positionally or by keyword, then `__post_init__` runs: it may normalise a
field with object.__setattr__ or refuse the values.  After that every
assignment raises AttributeError.  `==`, `hash` and `repr` read the fields
in order, as those of a frozen dataclass do; a subclass may define its own.

`import dataclasses` loads `inspect`, `ast` and `tokenize`, and each
dataclass compiles generated code; together that cost every `cfinite`
command 10-15 ms of CPU at start-up.  This module imports nothing.
"""


class Record:
    _fields = ()  # the field names, in order
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        vars(self).update(zip(self._fields, args))
        self.__post_init__()

    def _arguments(self, args, kwargs) -> tuple:
        """The field values in order, for a call that is not one positional
        argument per field; TypeError for an unknown, repeated or missing
        field, or too many arguments."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
        values = {**self._defaults, **values, **kwargs}
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name}() is missing {', '.join(map(repr, missing))}")
        return tuple(values[key] for key in fields)

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


def replace(record, **changes):
    """A copy of `record` with the given fields changed, built anew, so
    its `__post_init__` checks the new values."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})
