"""Frozen evidence records at slot speed.

Every proxied request the simulation makes builds frozen records
(:class:`~repro.luminati.superproxy.ProxyResult`,
:class:`~repro.luminati.headers.TimelineDebug`,
:class:`~repro.web.http.HttpRequest`, ...), so record construction sits
on the protocol hot path.  The ``__init__`` that ``dataclasses`` generates
for a frozen class writes each field through ``object.__setattr__(self,
"name", value)``, which looks the attribute up by name on every call.  A
slotted class already holds each field's member descriptor, and calling
the descriptor's ``__set__`` directly skips that lookup: on CPython 3.11 a
five-field record then constructs in about 0.5 µs instead of 0.84 µs.

:func:`slot_init` swaps in such an ``__init__`` and touches nothing else::

    @slot_init
    @dataclass(frozen=True, slots=True)
    class ProxyResult:
        ...

The standard decorator stays underneath, so SIM001 and mypy's dataclass
plugin see an ordinary frozen dataclass, and eq, hash, repr,
``__match_args__``, pickling and :func:`dataclasses.replace` are the
ones ``dataclasses`` made.
"""

from __future__ import annotations

import dataclasses
import sys
import types
from typing import Any, TypeVar, cast

_T = TypeVar("_T")

#: ``co_filename`` of every generated ``__init__``: tracebacks name it, and
#: :func:`has_slot_init` recognises it.
_FILENAME = "<slot_init>"


def _slot_setter(cls: type, name: str) -> Any:
    """The ``__set__`` of the member descriptor that stores ``name``."""
    for klass in cls.__mro__:
        if name in klass.__dict__:
            descriptor = klass.__dict__[name]
            if isinstance(descriptor, types.MemberDescriptorType):
                return descriptor.__set__
            break
    raise TypeError(f"slot_init: {cls.__qualname__}.{name} is not stored in a slot")


def slot_init(cls: type[_T]) -> type[_T]:
    """Give a frozen slotted dataclass an ``__init__`` that writes its slots.

    The new ``__init__`` takes the generated one's parameters, defaults and
    annotations; it stores each argument through its slot's member
    descriptor (which, like ``object.__setattr__``, is not guarded by the
    frozen ``__setattr__``), calls a field's ``default_factory`` whenever
    its argument is omitted, and ends with ``__post_init__()`` when the
    class has one.  Anything else raises :class:`TypeError` here, at class
    creation: a class that is not a frozen, slotted dataclass with a
    generated ``__init__``, an ``InitVar``, an ``init=False`` field or a
    keyword-only field.
    """
    name = cls.__qualname__
    params = cls.__dict__.get("__dataclass_params__")
    if params is None:
        raise TypeError(f"slot_init: {name} is not a dataclass (stack it above @dataclass)")
    if not params.frozen or "__slots__" not in cls.__dict__:
        raise TypeError(f"slot_init: {name} must be a dataclass(frozen=True, slots=True)")
    if not params.init:
        raise TypeError(f"slot_init: {name} has no generated __init__ to replace")
    fields = dataclasses.fields(cast(Any, cls))
    for f in fields:
        if not f.init:
            raise TypeError(f"slot_init: {name}.{f.name}: init=False fields are not supported")
        if f.kw_only:
            raise TypeError(f"slot_init: {name}.{f.name}: kw_only fields are not supported")
    generated = cls.__dict__["__init__"]
    code = generated.__code__
    names = tuple(f.name for f in fields)
    if code.co_kwonlyargcount or code.co_varnames[1 : code.co_argcount] != names:
        raise TypeError(f"slot_init: {name}.__init__ takes a parameter that is no field (InitVar)")

    # The generated function's defaults are the fields' plain defaults, plus
    # one shared sentinel standing in for each default_factory.
    defaults = generated.__defaults__ or ()
    first_default = len(names) - len(defaults)
    self_name = "__dataclass_self__" if "self" in names else "self"
    closure: dict[str, Any] = {}
    body = []
    for index, f in enumerate(fields):
        closure[f"__set_{index}"] = _slot_setter(cls, f.name)
        value = f.name
        if f.default_factory is not dataclasses.MISSING:
            closure[f"__factory_{index}"] = f.default_factory
            closure[f"__omitted_{index}"] = defaults[index - first_default]
            value = f"__factory_{index}() if {f.name} is __omitted_{index} else {f.name}"
        body.append(f"__set_{index}({self_name}, {value})")
    if hasattr(cls, "__post_init__"):
        body.append(f"{self_name}.__post_init__()")
    source = "\n".join(
        [
            f"def __create_init__({', '.join(closure)}):",
            f" def __init__({', '.join((self_name, *names))}):",
            *(f"  {statement}" for statement in body or ["pass"]),
            " return __init__\n",
        ]
    )
    module = sys.modules.get(cls.__module__)
    namespace: dict[str, Any] = {}
    exec(compile(source, _FILENAME, "exec"), vars(module) if module else {}, namespace)
    init = namespace["__create_init__"](**closure)
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = dict(generated.__annotations__)
    init.__qualname__ = generated.__qualname__
    setattr(cls, "__init__", init)  # noqa: B010 - mypy forbids assigning to a method
    return cls


def has_slot_init(cls: type) -> bool:
    """Whether :func:`slot_init` generated ``cls.__init__``."""
    code = getattr(cls.__dict__.get("__init__"), "__code__", None)
    return code is not None and code.co_filename == _FILENAME
