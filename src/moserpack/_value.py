"""The base of the package's value types, with no import beyond the builtins.

A value type is a plain class that annotates its fields in order; a field
whose annotation line assigns a value takes it as its default.  The field
names, in order, are the class's ``__match_args__``.  :class:`Value` gives
it an ``__init__`` that takes the fields by position or by name, equality
on the field tuple (other types compare unequal), the repr ``Name(field=...,
...)`` and no hash; :class:`Frozen` adds the hash of the field tuple and
refuses to assign or delete an attribute once the object exists.  A type
that checks its arguments keeps its own ``__init__`` and ends it with
``super().__init__(...)``.  This is the part of ``dataclasses`` the package
uses, without its import (which loads ``inspect``) or its per-class code
generation.
"""

class Value:
    """Equality on the fields, the repr and :func:`as_dict`; mutable and unhashable."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # a subclass keeps its base's fields and appends the ones it annotates
        cls.__match_args__ += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        names = self.__match_args__
        if not kwargs and len(args) == len(names):
            self.__dict__.update(zip(names, args))
            return
        cls = self.__class__
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__} takes {len(names)} fields "
                            f"({', '.join(names)}), got {len(args)} positional arguments")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__qualname__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__qualname__} got field {name!r} twice")
            values[name] = value
        for name in names:
            if name not in values:
                try:  # the default its annotation line assigns
                    values[name] = getattr(cls, name)
                except AttributeError:
                    raise TypeError(f"{cls.__qualname__} is missing field {name!r}") from None
        self.__dict__.update(values)

    def _key(self) -> tuple:
        """The values equality and hashing compare: every field, in order."""
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Value):
    """A :class:`Value` whose fields are fixed once ``__init__`` has set them."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def as_dict(obj):
    """The dict form of a value, field by field in order, recursing into
    values, lists, tuples and dicts (a list stays a list, a tuple a tuple);
    any other object is returned as it is."""
    if isinstance(obj, Value):
        return {name: as_dict(getattr(obj, name)) for name in obj.__match_args__}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(as_dict, obj))
    if isinstance(obj, dict):
        return {key: as_dict(item) for key, item in obj.items()}
    return obj
