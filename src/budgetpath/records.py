"""Base class of the package's records.

A record lists its fields in `_fields`, in constructor order, stores them in
`__slots__` and sets each one once in `__init__` through `set_field`.
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
