"""Record classes built from closures, not ``exec``-ed source as in ``dataclasses``:
importing fearover compiles none and loads neither ``dataclasses`` nor ``inspect``.
``_fields`` names a record's fields, as on a named tuple."""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


class field:
    """A field whose default is ``default_factory()``, built per instance."""

    def __init__(self, *, default_factory) -> None:
        self.default_factory = default_factory


def record(cls=None, *, frozen: bool = False):
    """Make ``cls`` a record of its annotated fields: ``__init__`` (by ``object.__setattr__``,
    as a write through ``__dict__`` slows every later read, then ``__post_init__``), strict
    equality, a ``Name(field=value, ...)`` repr and, if frozen, a hash and no assignment."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    name_of, names, body = cls.__qualname__, tuple(cls.__annotations__), cls.__dict__
    n = len(names)
    defaults = {k: body[k].default_factory if isinstance(body[k], field) else (lambda v=body[k]: v)
                for k in names if k in body}
    get = attrgetter(*names) if n > 1 else lambda self: (getattr(self, names[0]),)
    setter, post_init = object.__setattr__, body.get("__post_init__", lambda self: None)
    indexed = tuple(enumerate(names))

    def bind(args, kwargs):
        values = dict(zip(names, args))
        odd = [k for k in kwargs if k in values or k not in names]
        if len(args) > n or odd:
            raise TypeError(f"{name_of}() got unexpected or repeated arguments {odd or args[n:]}")
        values.update(kwargs)
        missing = [k for k in names if k not in values and k not in defaults]
        if missing:
            raise TypeError(f"{name_of}() is missing arguments {missing}")
        return [values[k] if k in values else defaults[k]() for k in names]

    def __init__(self, *args, **kwargs):
        values = bind(args, kwargs) if kwargs or len(args) != n else args
        for i, name in indexed:  # faster than a loop over ``zip``
            setter(self, name, values[i])
        post_init(self)

    def refuse(self, name, *_):
        raise FrozenInstanceError(f"cannot assign to or delete {name!r} of a frozen {name_of}")

    for k in [k for k in defaults if isinstance(body[k], field)]:
        delattr(cls, k)
    cls.__init__, cls._fields = __init__, names
    cls.__eq__ = lambda self, other: (
        get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented)
    cls.__repr__ = lambda self: (
        f"{name_of}({', '.join(f'{k}={v!r}' for k, v in zip(names, get(self)))})")
    cls.__hash__ = (lambda self: hash(get(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = refuse
    return cls


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes``, checked again by ``__post_init__``."""
    return type(obj)(**{**{k: getattr(obj, k) for k in obj._fields}, **changes})
