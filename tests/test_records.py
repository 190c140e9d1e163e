"""The slot-descriptor ``__init__`` of frozen records (:mod:`repro.records`).

Every frozen slotted dataclass under ``repro`` carries :func:`slot_init`, and
each must behave as if the standard decorator alone had built it.  The
reference is a *stock twin*: the same fields run through
``dataclass(frozen=True, slots=True)`` with nothing stacked above it.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from dataclasses import KW_ONLY, FrozenInstanceError, InitVar, dataclass, field

import pytest

import repro
from repro.dnssim.message import RCode
from repro.records import has_slot_init, slot_init


def _is_frozen_slotted_dataclass(cls) -> bool:
    params = cls.__dict__.get("__dataclass_params__")
    return params is not None and params.frozen and "__slots__" in cls.__dict__


def frozen_slotted_classes() -> list[type]:
    """Every frozen slotted dataclass a ``repro`` module defines, by name."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rpartition(".")[2] == "__main__":
            continue  # running it is its only behaviour
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and _is_frozen_slotted_dataclass(cls)
            ):
                found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return [found[name] for name in sorted(found)]


RECORDS = frozen_slotted_classes()


def _name(cls) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def stock_twin(cls):
    """``cls``'s fields rebuilt by the standard decorator alone."""
    annotations = {}
    namespace = {
        "__annotations__": annotations,
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
    }
    for f in dataclasses.fields(cls):
        annotations[f.name] = f.type
        namespace[f.name] = field(
            default=f.default, default_factory=f.default_factory,
            repr=f.repr, hash=f.hash, compare=f.compare, metadata=f.metadata,
        )
    for name, value in vars(cls).items():
        if name == "__post_init__" or not name.startswith("__") and name not in annotations:
            namespace[name] = value  # what __post_init__ may call
    params = cls.__dataclass_params__
    return dataclass(
        frozen=True, slots=True, repr=params.repr, eq=params.eq,
        order=params.order, unsafe_hash=params.unsafe_hash,
    )(type(cls.__name__, (), namespace))


#: Arguments that pass each record's ``__post_init__`` validation; every
#: other record takes one placeholder string a field.
VALID_ARGS = {
    "repro.dnssim.message.DnsQuery": ("Example.COM.", 167772161, 2.5),
    "repro.dnssim.message.DnsResponse": (RCode.NXDOMAIN, ()),
    "repro.engine.retry.RetryPolicy": (2, 1.5, 3.0),
    "repro.luminati.headers.AttemptRecord": ("z0001", "ok"),
    "repro.middlebox.monitor.DelaySpec": ("loguniform", 1.0, 60.0, "pool"),
    "repro.net.ip.Prefix": (167772160, 8),
    "repro.resilience.breaker.BreakerPolicy": (2, 60.0),
    "repro.resilience.retry.StudyRetryPolicy": (4, 10.0, 2.0, 0.5),
    "repro.serve.queue.TenantPolicy": (3, 2.0),
    "repro.serve.schedule.Recurrence": (86400.0, 3, 10.0, 0.25),
    "repro.tlssim.certs.CertificateChain": (("leaf",),),
    "repro.web.http.HttpRequest": (
        "WWW.Example.com.", "/index.html", 167772161, 1.5, "GET", "ua", (("Accept", "*/*"),)
    ),
    "repro.web.jpeg.SyntheticJpeg": (75, b"\x00\x01"),
    "repro.worldbuilder.bindings.Binding": ("selector", 2, 0.5, "key"),
}


def sample_args(cls) -> tuple:
    name = _name(cls)
    if name in VALID_ARGS:
        return VALID_ARGS[name]
    assert not hasattr(cls, "__post_init__"), f"add arguments that pass {name}.__post_init__"
    return tuple(f"<{cls.__name__}.{f.name}>" for f in dataclasses.fields(cls))


def field_values(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


# -- the walk ----------------------------------------------------------------


def test_every_frozen_slotted_record_carries_slot_init():
    missing = [_name(cls) for cls in RECORDS if not has_slot_init(cls)]
    assert not missing, f"stack @slot_init above @dataclass(frozen=True, slots=True): {missing}"
    # The walk sees the hot-path records, so it is not vacuous.
    names = {_name(cls) for cls in RECORDS}
    assert {
        "repro.dnssim.message.QueryLogEntry",
        "repro.luminati.headers.TimelineDebug",
        "repro.luminati.superproxy.ProxyResult",
        "repro.web.http.AccessLogEntry",
        "repro.lint.config.LintConfig",
    } <= names


def test_the_walk_notices_a_missing_decorator():
    @dataclass(frozen=True, slots=True)
    class Undecorated:
        value: int

    assert _is_frozen_slotted_dataclass(Undecorated)
    assert not has_slot_init(Undecorated)


# -- every repro record against its stock twin --------------------------------


@pytest.mark.parametrize("cls", RECORDS, ids=_name)
class TestEveryRecord:
    def test_signature_matches_the_generated_init(self, cls):
        assert inspect.signature(cls.__init__) == inspect.signature(stock_twin(cls).__init__)

    def test_positional_and_keyword_construction(self, cls):
        args = sample_args(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        positional = cls(*args)
        keyword = cls(**dict(zip(names, args)))
        reference = stock_twin(cls)(*args)
        assert field_values(positional) == field_values(keyword) == field_values(reference)
        assert positional == keyword
        assert hash(positional) == hash(keyword) == hash(reference)
        assert repr(positional) == repr(reference)
        assert cls.__match_args__ == type(reference).__match_args__

    def test_frozen_pickle_and_replace(self, cls):
        record = cls(*sample_args(cls))
        first = dataclasses.fields(cls)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(record, first, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, first)
        again = pickle.loads(pickle.dumps(record))
        assert type(again) is cls and again == record
        assert field_values(again) == field_values(record)
        copied = dataclasses.replace(record)
        assert type(copied) is cls and field_values(copied) == field_values(record)


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if hasattr(cls, "__post_init__")], ids=_name
)
def test_post_init_runs_once_after_every_field_is_set(cls):
    seen = []

    def probe(self):
        seen.append(field_values(self))

    probe_cls = type(cls.__name__, (cls,), {"__slots__": (), "__post_init__": probe})
    args = tuple(object() for _ in dataclasses.fields(cls))
    probe_cls(*args)
    assert seen == [args]


def _first_defaulted(cls) -> int:
    for index, f in enumerate(dataclasses.fields(cls)):
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING:
            return index
    return -1


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if _first_defaulted(cls) >= 0], ids=_name
)
def test_omitted_arguments_take_defaults_and_fresh_factory_values(cls):
    required = _first_defaulted(cls)
    args = sample_args(cls)[:required]
    one, two = cls(*args), cls(*args)
    reference = stock_twin(cls)(*args)
    for f in dataclasses.fields(cls)[required:]:
        if f.default_factory is dataclasses.MISSING:
            assert getattr(one, f.name) == f.default == getattr(reference, f.name)
            continue
        product = f.default_factory()
        assert type(getattr(one, f.name)) is type(product)
        if f.default_factory() is not product:  # a fresh value per call
            assert getattr(one, f.name) is not getattr(two, f.name)


def test_http_request_host_is_normalised():
    from repro.web.http import HttpRequest

    request = HttpRequest("WWW.Example.COM.", "/a", 1, 0.0)
    assert request.host == "www.example.com"
    assert dataclasses.replace(request, host="B.example.").host == "b.example"
    with pytest.raises(ValueError, match="must start with '/'"):
        HttpRequest("example.com", "a", 1, 0.0)


def test_attempt_record_is_validated():
    from repro.luminati.headers import AttemptRecord, TimelineDebug

    with pytest.raises(ValueError, match="requires a zid"):
        AttemptRecord("", "ok")
    with pytest.raises(ValueError, match="single token"):
        AttemptRecord("z1", "two words")
    attempts = (AttemptRecord("z0", "timeout"), AttemptRecord("z1", "ok"))
    header = TimelineDebug("z1", "1.2.3.4", attempts)
    assert TimelineDebug.parse(header.serialize()) == header
    assert TimelineDebug("z1", "1.2.3.4").attempts == ()


# -- the decorator on purpose-built classes ----------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class Probe:
    host: str
    port: int = 80
    tags: list = field(default_factory=list)
    note: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "host", self.host.lower())
        if self.port <= 0:
            raise ValueError(f"bad port {self.port}")


@dataclass(frozen=True, slots=True)
class StockProbe:
    host: str
    port: int = 80
    tags: list = field(default_factory=list)
    note: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "host", self.host.lower())
        if self.port <= 0:
            raise ValueError(f"bad port {self.port}")


@slot_init
@dataclass(frozen=True, slots=True)
class Base:
    a: int
    b: str = "b"


@slot_init
@dataclass(frozen=True, slots=True)
class Child(Base):
    c: tuple = ()


@slot_init
@dataclass(frozen=True, slots=True)
class SelfNamed:
    self: int
    other: int = 2


@slot_init
@dataclass(frozen=True, slots=True)
class Empty:
    pass


class TestPurposeBuilt:
    def test_signature_matches_stock(self):
        assert inspect.signature(Probe.__init__) == inspect.signature(StockProbe.__init__)
        parameters = inspect.signature(Probe.__init__).parameters
        assert list(parameters) == ["self", "host", "port", "tags", "note"]
        assert [parameters[name].default for name in ("port", "note")] == [80, ""]

    def test_construction_post_init_and_validation(self):
        for cls in (Probe, StockProbe):
            record = cls("Example.COM", 8080, ["x"], "n")
            assert (record.host, record.port, record.tags, record.note) == (
                "example.com", 8080, ["x"], "n"
            )
            assert cls(host="A", port=1) == cls("a", 1)
            with pytest.raises(ValueError, match="bad port"):
                cls("a", 0)
            with pytest.raises(TypeError):
                cls()
            with pytest.raises(TypeError):
                cls("a", 1, [], "", "extra")
            with pytest.raises(TypeError):
                cls("a", host="b")

    def test_factory_runs_per_construction(self):
        one, two = Probe("a"), Probe("a")
        assert one.tags == [] and one.tags is not two.tags
        given = ["kept"]
        assert Probe("a", tags=given).tags is given

    def test_eq_hash_repr_follow_stock(self):
        record, stock = Probe("a", 1, (), "x"), StockProbe("a", 1, (), "x")
        assert repr(record) == repr(stock).replace("StockProbe", "Probe")
        assert hash(record) == hash(stock)
        assert record == Probe("a", 1, (), "other note")  # compare=False
        assert record != Probe("a", 2, (), "x")
        assert Probe.__match_args__ == StockProbe.__match_args__

    def test_frozen_on_assignment_and_deletion(self):
        record = Probe("a")
        with pytest.raises(FrozenInstanceError):
            record.port = 1
        with pytest.raises(FrozenInstanceError):
            del record.port

    def test_pickle_and_replace(self):
        record = Probe("a", 5, ("t",), "n")
        assert pickle.loads(pickle.dumps(record)) == record
        changed = dataclasses.replace(record, host="B")
        assert (changed.host, changed.port, changed.tags) == ("b", 5, ("t",))
        with pytest.raises(ValueError):
            dataclasses.replace(record, port=-1)

    def test_inherited_slots(self):
        assert "a" not in Child.__slots__  # stored by Base's descriptor
        record = Child(1, "x", (2,))
        assert (record.a, record.b, record.c) == (1, "x", (2,))
        assert Child(1) == Child(a=1, b="b", c=())
        assert repr(Child(1)) == "Child(a=1, b='b', c=())"
        assert pickle.loads(pickle.dumps(record)) == record
        assert has_slot_init(Child) and has_slot_init(Base)

    def test_a_field_named_self(self):
        record = SelfNamed(1)
        assert (record.self, record.other) == (1, 2)
        assert SelfNamed(self=3, other=4) == SelfNamed(3, 4)

    def test_no_fields(self):
        assert Empty() == Empty() and repr(Empty()) == "Empty()"


class TestRejected:
    def test_not_a_dataclass(self):
        with pytest.raises(TypeError, match="not a dataclass"):
            @slot_init
            class Plain:
                __slots__ = ("a",)

    def test_decorator_order(self):
        with pytest.raises(TypeError, match="not a dataclass"):
            @dataclass(frozen=True, slots=True)
            @slot_init
            class Reversed:
                a: int

    def test_not_frozen(self):
        with pytest.raises(TypeError, match="frozen=True, slots=True"):
            @slot_init
            @dataclass(slots=True)
            class Mutable:
                a: int

    def test_not_slotted(self):
        with pytest.raises(TypeError, match="frozen=True, slots=True"):
            @slot_init
            @dataclass(frozen=True)
            class Unslotted:
                a: int

    def test_no_generated_init(self):
        with pytest.raises(TypeError, match="no generated __init__"):
            @slot_init
            @dataclass(frozen=True, slots=True, init=False)
            class NoInit:
                a: int = 0

    def test_init_false_field(self):
        with pytest.raises(TypeError, match="init=False"):
            @slot_init
            @dataclass(frozen=True, slots=True)
            class Hidden:
                a: int
                b: int = field(default=0, init=False)

    def test_kw_only_field(self):
        with pytest.raises(TypeError, match="kw_only"):
            @slot_init
            @dataclass(frozen=True, slots=True)
            class KeywordField:
                a: int
                b: int = field(default=0, kw_only=True)

    def test_kw_only_marker(self):
        with pytest.raises(TypeError, match="kw_only"):
            @slot_init
            @dataclass(frozen=True, slots=True)
            class KeywordMarker:
                a: int
                _: KW_ONLY
                b: int = 0

    def test_kw_only_class(self):
        with pytest.raises(TypeError, match="kw_only"):
            @slot_init
            @dataclass(frozen=True, slots=True, kw_only=True)
            class KeywordClass:
                a: int

    def test_init_var(self):
        with pytest.raises(TypeError, match="InitVar"):
            @slot_init
            @dataclass(frozen=True, slots=True)
            class WithInitVar:
                a: int
                scale: InitVar[int] = 1

                def __post_init__(self, scale: int) -> None:
                    object.__setattr__(self, "a", self.a * scale)
