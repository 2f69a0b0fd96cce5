"""Immutable records with value equality.

`Record` writes each record class's `__init__`, `__eq__` and `__hash__`
itself.  Having the standard library generate them would import its
generator and `inspect` on every command-line call, and the generation
itself costs as much again at start-up.
"""

__all__ = ["Record"]


class Record:
    """Base of an immutable record.  A subclass's annotated names are its
    fields, in order; a class attribute of the same name is the field's
    default.  `__init__` (ending with the class's `__post_init__`, if any),
    `__eq__` and `__hash__` are written for each subclass as plain code over
    its fields, since a `GroupSpec` is built and hashed on every cached
    lookup.  Assigning or deleting an attribute raises AttributeError."""

    _fields = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(cls.__annotations__)
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in vars(cls) else f for f in fields)
        mine = "".join(f"self.{f}, " for f in fields)
        theirs = "".join(f"other.{f}, " for f in fields)
        source = (
            f"def __init__(self, {params}):\n"
            + "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
            + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
            + "def __eq__(self, other):\n"
            + "    if other.__class__ is not self.__class__:\n        return NotImplemented\n"
            + f"    return ({mine}) == ({theirs})\n"
            + f"def __hash__(self):\n    return hash(({mine}))\n"
        )
        methods: dict = {}
        exec(source, {"_defaults": dict(vars(cls)), "_set": object.__setattr__}, methods)
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        cls._fields = fields

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
