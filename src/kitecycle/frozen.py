"""Immutable checked value classes that generate no code at import."""

from __future__ import annotations

__all__ = ["Frozen", "replace"]


class Frozen:
    """Base of the checked parameter classes.

    A subclass lists its fields in ``_fields`` and ``__slots__``; its
    ``__init__`` hands their values to ``Frozen.__init__`` in that order,
    then checks them.  Instances refuse assignment, compare and hash by
    class and fields, and show their fields in ``repr``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__; their default restores
        # slots by setattr, which is refused.
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


def replace(obj, **changes):
    """A new instance of ``obj``'s class with its fields, as changed by
    ``changes``, built by its constructor, which checks them again.

    Raises:
        TypeError: if a key of ``changes`` is not a field.
        ValidationError: if a changed value fails the class's checks.
    """
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})
