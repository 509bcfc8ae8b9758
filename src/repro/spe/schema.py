"""Stream schemas.

Borealis streams are typed: every data tuple on a stream carries the same set
of attributes.  Schemas are used by the query-diagram validator to catch
mis-wired operators early and by operators (Map, Aggregate, Join) to describe
the shape of their output streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..errors import SchemaError
from .tuples import StreamTuple

#: Attribute types understood by the schema validator.
_PYTHON_TYPES = {
    "int": int,
    "float": (int, float),
    "str": str,
    "bool": bool,
    "any": object,
}


@dataclass(frozen=True)
class Field:
    """A single named, typed attribute of a stream schema."""

    name: str
    type_name: str = "any"

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("field name cannot be empty")
        if self.type_name not in _PYTHON_TYPES:
            raise SchemaError(
                f"unknown field type {self.type_name!r}; expected one of {sorted(_PYTHON_TYPES)}"
            )

    def accepts(self, value: Any) -> bool:
        """True when ``value`` is a legal value for this field."""
        expected = _PYTHON_TYPES[self.type_name]
        if expected is object:
            return True
        if isinstance(value, bool) and self.type_name in ("int", "float"):
            # bool is a subclass of int but almost never what a schema means.
            return False
        return isinstance(value, expected)


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Field` objects."""

    fields: tuple[Field, ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, **field_types: str) -> "Schema":
        """Build a schema from keyword arguments, e.g. ``Schema.of(value="int")``."""
        return cls(tuple(Field(name, type_name) for name, type_name in field_types.items()))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.fields)

    def field(self, name: str) -> Field:
        """Return the field named ``name`` or raise :class:`SchemaError`."""
        for f in self.fields:
            if f.name == name:
                return f
        raise SchemaError(f"schema has no field {name!r}; available: {list(self.names)}")

    def validate_values(self, values: Mapping[str, Any]) -> None:
        """Raise :class:`SchemaError` unless ``values`` matches this schema."""
        missing = [f.name for f in self.fields if f.name not in values]
        if missing:
            raise SchemaError(f"missing attributes {missing}")
        extra = [name for name in values if name not in self]
        if extra:
            raise SchemaError(f"unexpected attributes {extra}; schema is {list(self.names)}")
        for f in self.fields:
            if not f.accepts(values[f.name]):
                raise SchemaError(
                    f"attribute {f.name!r}={values[f.name]!r} does not match type {f.type_name}"
                )

    def validate_tuple(self, item: StreamTuple) -> None:
        """Validate a data tuple; non-data tuples always pass."""
        if item.is_data:
            self.validate_values(item.values)

    def project(self, names: Iterable[str]) -> "Schema":
        """Return a schema with only the given field names, preserving order."""
        wanted = list(names)
        unknown = [n for n in wanted if n not in self]
        if unknown:
            raise SchemaError(f"cannot project unknown fields {unknown}")
        return Schema(tuple(f for f in self.fields if f.name in wanted))

    def merge(self, other: "Schema", prefix_self: str = "", prefix_other: str = "") -> "Schema":
        """Combine two schemas (used by Join); clashes must be prefixed away."""
        fields: list[Field] = []
        for f in self.fields:
            fields.append(Field(prefix_self + f.name, f.type_name))
        for f in other.fields:
            fields.append(Field(prefix_other + f.name, f.type_name))
        names = [f.name for f in fields]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SchemaError(f"merged schema has duplicate fields {sorted(duplicates)}")
        return Schema(tuple(fields))


#: Schema used when a stream's shape is unknown or irrelevant (accepts anything).
ANY_SCHEMA = Schema()
