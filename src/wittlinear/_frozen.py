"""Frozen records: the base of the package's immutable value classes.

A record class names its fields in _fields, in declaration order with
the base class's fields first, and writes its own __init__: it checks
the arguments and stores each field, and any value derived from them,
with set_field.  From _fields the base gives what
dataclasses.dataclass(frozen=True) would generate:

- equality: same class and equal fields, otherwise NotImplemented;
- a hash of the fields, so equal records hash equal;
- the repr "Name(field=value, ...)";
- assignment and deletion that raise AttributeError.

replace() copies a record with some fields changed through its class's
__init__, so the copy is checked like any new record.  Copying and
pickling store the instance dict, derived values included.

The package does not use dataclasses because decorating its records
exec-compiles their methods on every import, and importing dataclasses
pulls in inspect, ast and dis; both fall on every start of the command
line.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Frozen", "replace", "set_field"]

# stores a field on a record under construction, past the frozen
# __setattr__
set_field = object.__setattr__


class Frozen:
    """Base class of the frozen records; see the module docstring."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # the fields' values, one value for a one-field record and a tuple
        # otherwise; every record has at least one field
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)


def replace(record: Frozen, **changes) -> Frozen:
    """A copy of record with the named fields changed, built and checked
    by its class's __init__ (the counterpart of dataclasses.replace)."""
    fields = {name: getattr(record, name) for name in record._fields}
    fields.update(changes)
    return record.__class__(**fields)
