"""Unit tests for stream schemas."""

import pytest

from repro.errors import SchemaError
from repro.spe.schema import Field, Schema
from repro.spe.tuples import StreamTuple


def test_schema_of_builds_typed_fields():
    schema = Schema.of(seq="int", value="float", name="str")
    assert schema.names == ("seq", "value", "name")
    assert len(schema) == 3
    assert "seq" in schema


def test_field_rejects_unknown_type():
    with pytest.raises(SchemaError):
        Field("x", "complex128")


def test_field_rejects_empty_name():
    with pytest.raises(SchemaError):
        Field("", "int")


def test_validate_values_accepts_matching_tuple():
    schema = Schema.of(seq="int", value="float")
    schema.validate_values({"seq": 1, "value": 2.5})
    schema.validate_values({"seq": 1, "value": 2})  # int is acceptable for float


def test_validate_values_rejects_missing_and_extra():
    schema = Schema.of(seq="int")
    with pytest.raises(SchemaError):
        schema.validate_values({})
    with pytest.raises(SchemaError):
        schema.validate_values({"seq": 1, "other": 2})


def test_validate_values_rejects_bool_for_int():
    schema = Schema.of(seq="int")
    with pytest.raises(SchemaError):
        schema.validate_values({"seq": True})


def test_validate_tuple_ignores_non_data():
    schema = Schema.of(seq="int")
    schema.validate_tuple(StreamTuple.boundary(0, 1.0))  # must not raise


def test_project_and_merge():
    schema = Schema.of(a="int", b="float", c="str")
    projected = schema.project(["a", "c"])
    assert projected.names == ("a", "c")
    with pytest.raises(SchemaError):
        schema.project(["missing"])
    merged = Schema.of(x="int").merge(Schema.of(x="int"), prefix_self="l_", prefix_other="r_")
    assert merged.names == ("l_x", "r_x")
    with pytest.raises(SchemaError):
        Schema.of(x="int").merge(Schema.of(x="int"))


def test_field_lookup():
    schema = Schema.of(a="int")
    assert schema.field("a").type_name == "int"
    with pytest.raises(SchemaError):
        schema.field("zzz")
