"""Tests for the module programming model, location service, and runtime."""

import pytest

from repro import EmptyModule, ModuleSpec, Runtime, procedure, transaction_program
from repro.core.cache import ClientCache
from repro.core.view import View
from repro.core.viewstamp import ViewId
from repro.location.service import GroupNotFound, LocationService
from repro.net.messages import estimate_size


# -- ModuleSpec ------------------------------------------------------------


class Sample(ModuleSpec):
    def initial_objects(self):
        return {"x": 1}

    @procedure
    def get_x(self, ctx):
        value = yield ctx.read("x")
        return value

    def not_a_procedure(self):
        return None


def test_procedures_discovered():
    spec = Sample()
    assert set(spec.procedures()) == {"get_x"}


def test_procedure_named_rejects_non_procedures():
    spec = Sample()
    with pytest.raises(KeyError):
        spec.procedure_named("not_a_procedure")
    with pytest.raises(KeyError):
        spec.procedure_named("missing")


def test_register_program_and_lookup():
    spec = EmptyModule()

    @transaction_program
    def prog(txn):
        return "ok"
        yield

    spec.register_program("prog", prog)
    assert spec.transaction_program("prog") is prog
    with pytest.raises(KeyError):
        spec.transaction_program("nope")


def test_transaction_program_decorator_subactions_flag():
    @transaction_program(subactions=True)
    def nested(txn):
        yield

    @transaction_program
    def flat(txn):
        yield

    assert nested._vr_subactions is True
    assert flat._vr_subactions is False


def test_method_programs_found():
    class WithProgram(ModuleSpec):
        @transaction_program
        def do_it(self, txn):
            yield

    spec = WithProgram()
    assert spec.transaction_program("do_it")


# -- location service ------------------------------------------------------------


def test_location_register_lookup():
    location = LocationService()
    location.register("g", ((0, "g/0"), (1, "g/1")))
    assert location.lookup("g") == ((0, "g/0"), (1, "g/1"))
    assert "g" in location
    assert location.groups() == ("g",)


def test_location_duplicate_rejected():
    location = LocationService()
    location.register("g", ((0, "g/0"),))
    with pytest.raises(ValueError):
        location.register("g", ((0, "g/0"),))


def test_location_empty_configuration_rejected():
    location = LocationService()
    with pytest.raises(ValueError):
        location.register("g", ())


def test_location_unknown_raises():
    location = LocationService()
    with pytest.raises(GroupNotFound) as excinfo:
        location.lookup("missing")
    assert excinfo.value.groupid == "missing"
    # GroupNotFound subclasses KeyError, so legacy handlers still catch it.
    with pytest.raises(KeyError):
        location.lookup("missing")


def test_location_try_lookup_is_tolerant():
    location = LocationService()
    location.register("g", ((0, "g/0"),))
    assert location.try_lookup("g") == ((0, "g/0"),)
    assert location.try_lookup("missing") is None


def test_location_lookup_many_skips_unknown_groups():
    location = LocationService()
    location.register("a", ((0, "a/0"),))
    location.register("b", ((0, "b/0"), (1, "b/1")))
    found = location.lookup_many(["a", "missing", "b"])
    assert found == {"a": ((0, "a/0"),), "b": ((0, "b/0"), (1, "b/1"))}
    # Order of the result follows the request order, not insertion order.
    assert list(location.lookup_many(["b", "a"])) == ["b", "a"]


def test_location_lookup_many_strict_raises_on_first_miss():
    location = LocationService()
    location.register("a", ((0, "a/0"),))
    assert location.lookup_many(["a"], strict=True) == {"a": ((0, "a/0"),)}
    with pytest.raises(GroupNotFound) as excinfo:
        location.lookup_many(["a", "missing", "also-missing"], strict=True)
    assert excinfo.value.groupid == "missing"


def test_location_lookup_shapes_agree():
    """All lookup paths return the identical per-group configuration shape."""
    location = LocationService()
    configuration = ((0, "g/0"), (1, "g/1"))
    location.register("g", configuration)
    assert location.lookup("g") == configuration
    assert location.try_lookup("g") == configuration
    assert location.lookup_many(["g"])["g"] == configuration


def test_location_primary_address_tolerates_unknown():
    """A primary's address resolves through the location service; an
    unknown group or a missing view resolves to nothing, not an error."""
    location = LocationService()
    location.register("g", ((0, "g/0"), (1, "g/1")))
    cache = ClientCache(location)
    view = View(primary=1, backups=(0,))
    assert cache.learn("g", ViewId(1, 1), view)
    assert cache.primary("g") == "g/1"
    assert not cache.learn("missing", ViewId(1, 1), view)
    assert cache.primary("missing") is None
    assert not cache.learn("g", ViewId(2, 0), None)
    assert cache.primary("g") == "g/1"


# -- runtime ------------------------------------------------------------------------


def test_runtime_duplicate_node_rejected():
    rt = Runtime(seed=0)
    rt.create_node("n1")
    with pytest.raises(ValueError):
        rt.create_node("n1")


def test_runtime_group_registers_location():
    rt = Runtime(seed=0)
    rt.create_group("g", EmptyModule(), n_cohorts=3)
    assert len(rt.location.lookup("g")) == 3


def test_runtime_empty_group_rejected():
    rt = Runtime(seed=0)
    with pytest.raises(ValueError):
        rt.create_group("g", EmptyModule(), n_cohorts=1, nodes=[])


def test_runtime_run_for_advances_clock():
    rt = Runtime(seed=0)
    rt.run_for(100.0)
    assert rt.sim.now == 100.0
    rt.run_for(50.0)
    assert rt.sim.now == 150.0


# -- size estimation -----------------------------------------------------------------


def test_estimate_size_primitives():
    assert estimate_size(None) == 1
    assert estimate_size(True) == 1
    assert estimate_size(7) == 8
    assert estimate_size(1.5) == 8
    assert estimate_size("abcd") == 4
    assert estimate_size(b"abc") == 3


def test_estimate_size_containers():
    assert estimate_size([1, 2]) == 4 + 16
    assert estimate_size({"a": 1}) == 4 + 1 + 8


def test_estimate_size_dataclass():
    import dataclasses

    @dataclasses.dataclass
    class Point:
        x: int
        y: int

    assert estimate_size(Point(1, 2)) == 16


def test_message_byte_size_includes_header():
    import dataclasses

    from repro.net.messages import Message

    @dataclasses.dataclass
    class Tiny(Message):
        n: int = 0

    assert Tiny().byte_size() == 32 + 8
    assert Tiny().msg_type == "Tiny"
