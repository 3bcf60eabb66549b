"""Frozen records: the part of frozen dataclasses that hkas uses.

A subclass declares its fields as class annotations, in order, and may
check them in __post_init__, which runs once they are set. A record is
built from its fields, by position or by keyword; it equals a record of
exactly its class whose fields are equal, hashes its fields, reprs as
Name(field=value, ...) and refuses assignment and deletion. The fields
live in the instance __dict__, so a functools.cached_property can still
cache a derived view beside them, outside ==, hash and repr.

Importing dataclasses imports inspect, and with it ast, dis and
tokenize, on every start of the command line; this module imports
nothing.
"""

from __future__ import annotations


class Record:
    """Base of hkas's immutable value classes."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The fields' values in order, from a call's arguments, or the
        TypeError that Python raises for such a call."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[key] for key in fields]

    def __post_init__(self) -> None:
        """Check the fields; a subclass raises here on a bad value."""

    def _values(self) -> tuple:
        return tuple([self.__dict__[key] for key in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={self.__dict__[key]!r}" for key in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
