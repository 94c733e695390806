"""Base class of the package's records.

A record lists its fields once, in `_fields`, and stores them in `__slots__`.
`Record.__init__` takes the field values by position or by keyword, in
`_fields` order, and raises TypeError for a missing, unknown, repeated or
extra value, as a written signature would; `help()` shows it as
`(*args, **kwargs)`, so read `_fields` for the order. A record that checks
its inputs or has a default writes its own `__init__`, ending in
`super().__init__(...)`. `NodeSpec` and `search.PathResult` keep written
constructors because the loader builds one per node entry and the search
one per planner round, and the generic one is slower.

Equality (with records of the same class only), hashing, `repr` and pickling
follow from the field values, and assigning a field afterwards raises
AttributeError. Defining a record generates and compiles no methods, so
importing the package stays cheap.
"""

from __future__ import annotations

# `Record.__setattr__` refuses every assignment, so `__init__` writes the slots through this.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(fields)} fields "
                f"but {len(args)} were given"
            )
        for name, value in zip(fields, args):
            set_field(self, name, value)
        for name in fields[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__qualname__}() missing field {name!r}")
            set_field(self, name, kwargs.pop(name))
        for name in kwargs:
            problem = "got multiple values for field" if name in fields else "got an unknown field"
            raise TypeError(f"{type(self).__qualname__}() {problem} {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")

    def __reduce__(self):
        return type(self), self._values()
