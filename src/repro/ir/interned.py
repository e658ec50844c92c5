"""Interned IR values: one object per distinct value, so equal means
identical and every cache keyed on IR values hashes an address.  This is
value identity, not a result cache: ``REPRO_NO_CACHE`` leaves it on."""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
from typing import Any, Callable


class IdentityEnum(enum.Enum):
    """An enum hashed by address (``Enum.__hash__`` is a Python call)."""

    __hash__ = object.__hash__


_VALUES: dict[tuple, Any] = {}
_KEYS: dict[type, Callable[..., tuple]] = {}


def _reduce(self: Any) -> tuple:
    # copy, deepcopy and pickle rebuild through the constructor.
    fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
    return functools.partial(type(self), **fields), ()


def _key_function(cls: type) -> Callable[..., tuple]:
    """``cls``'s parameters in; the class, each field value and its type,
    and a ``tuple`` field's item types out (``1``, ``1.0``, ``True`` stay
    apart).  Generated so that Python binds the arguments, as in a
    dataclass ``__init__``: a hit builds nothing."""
    params = inspect.signature(cls).parameters.values()
    namespace = {"_cls": cls, "_type": type, "_tuple": tuple, "_map": map}
    args: list[str] = []
    for index, param in enumerate(params):
        if param.kind is param.KEYWORD_ONLY and "*" not in args:
            args.append("*")
        namespace[f"_d{index}"] = param.default
        default = "" if param.default is param.empty else f"=_d{index}"
        args.append(param.name + default)
    names = [param.name for param in params]
    parts = ["_cls", *names, *(f"_type({name})" for name in names)]
    for f in dataclasses.fields(cls):
        if f.type is tuple or str(f.type).startswith("tuple"):
            parts.append(f"_tuple(_map(_type, {f.name}))")
    exec(f"def key({', '.join(args)}): return ({', '.join(parts)})", namespace)
    return namespace["key"]


class Interned(type):
    """Metaclass of the IR's frozen dataclasses: a construction returns
    the one object holding those field values; ``==`` and ``hash`` are
    ``object``'s, and ``inspect.signature`` reports ``__init__``'s.  Only a
    miss constructs, so ``__post_init__`` validates before a value enters
    the table; ``replace``, ``copy``, ``deepcopy`` and ``pickle`` construct.
    """

    def __new__(mcls, name: str, bases: tuple, namespace: dict[str, Any]):
        # dataclass() keeps the methods a class defines itself.
        namespace.update(
            __eq__=object.__eq__, __hash__=object.__hash__, __reduce__=_reduce
        )
        return super().__new__(mcls, name, bases, namespace)

    @property
    def __signature__(cls) -> inspect.Signature:
        init = inspect.signature(cls.__init__)
        return init.replace(parameters=list(init.parameters.values())[1:])

    def __call__(cls, *args: Any, **kwargs: Any) -> Any:
        key_of = _KEYS.get(cls) or _KEYS.setdefault(cls, _key_function(cls))
        try:
            key = key_of(*args, **kwargs)
        except TypeError:  # __init__ cannot bind them: let it say why
            return super().__call__(*args, **kwargs)
        value = _VALUES.get(key)
        if value is None:
            value = _VALUES[key] = super().__call__(*args, **kwargs)
        return value
