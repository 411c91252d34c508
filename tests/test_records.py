"""Every record of the package behaves as a namedtuple of the same fields."""

import copy
import pickle
from collections import namedtuple

import pytest

from aztecbridge.matchgraph import HalfClasses, WeightClasses, WeightScheme
from aztecbridge.paths import PathFamily, PathTables, SchroederPath
from aztecbridge.regions import BoundaryMarkers, Cell, Grid, Lattice, Tri

#: Each record class and its field names, in order.
RECORDS = [
    (Cell, "x y"),
    (Tri, "x y up"),
    (BoundaryMarkers, "u v"),
    (Grid, "stride origin at pos north east"),
    (Lattice, "cells adjacent signs faces white black colour pairs grid"),
    (WeightScheme, "a b c d q"),
    (WeightClasses, "levels of marked"),
    (HalfClasses, "vertices edges pendant_edges marked"),
    (SchroederPath, "points steps"),
    (PathFamily, "paths quarter_area"),
    (PathTables, "starts steps u v_at points decorated"),
]

records = pytest.mark.parametrize(
    "cls, names",
    [pytest.param(cls, tuple(fields.split()), id=cls.__name__) for cls, fields in RECORDS],
)


def _twin(cls, names):
    """The namedtuple a record stands in for."""
    return namedtuple(cls.__name__, names)


def _values(names):
    return tuple(range(10, 10 + len(names)))


def _raised(make):
    with pytest.raises(TypeError) as info:
        make()
    return str(info.value)


@records
def test_the_fields_match_args_and_repr_are_namedtuples(cls, names):
    twin, values = _twin(cls, names), _values(names)
    assert cls._fields == twin._fields == names
    assert cls.__match_args__ == twin.__match_args__ == names
    assert repr(cls(*values)) == repr(twin(*values))
    nested = ("a'b", Cell(1, -2), [None]) + values[3:]
    assert repr(cls(*nested[: len(names)])) == repr(twin(*nested[: len(names)]))


@records
def test_construction_by_position_and_by_name(cls, names):
    values = _values(names)
    record = cls(*values)
    assert type(record) is cls
    assert record == cls(**dict(zip(names, values))) == values
    assert [getattr(record, name) for name in names] == list(values)
    if len(names) > 1:  # positions first, the rest by name
        assert cls(values[0], **dict(zip(names[1:], values[1:]))) == values


@records
def test_a_wrong_arity_or_an_unknown_keyword_raises_namedtuples_type_error(cls, names):
    twin, values = _twin(cls, names), _values(names)
    for args, kwargs in [
        (values[:-1], {}),
        ((*values, 0), {}),
        (values, {"unknown": 0}),
        (values, {names[0]: 0}),
        ((), {}),
    ]:
        assert _raised(lambda: cls(*args, **kwargs)) == _raised(lambda: twin(*args, **kwargs))


@records
def test_it_compares_hashes_and_slices_as_a_plain_tuple(cls, names):
    values = _values(names)
    record = cls(*values)
    assert record == values and not record != values and hash(record) == hash(values)
    assert record == _twin(cls, names)(*values)
    assert record < (*values, 0) and record > values[:-1] and record <= values >= record
    assert sorted([cls(*values[::-1]), record]) == sorted([values[::-1], values])
    for part in (record[1:], record[:1], record[::-1], record[:]):
        assert type(part) is tuple
    assert record[1:] == values[1:] and record[-1] == values[-1] and len(record) == len(names)
    assert tuple(record) == values and type(record + ()) is tuple


@records
def test_the_fields_are_read_only_and_there_is_no_instance_dict(cls, names):
    record = cls(*_values(names))
    for name in (*names, "anything"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")
    assert record == _values(names)


@records
def test_copy_deepcopy_and_pickle_round_trip(cls, names):
    values = ([1, [2]],) + _values(names)[1:]
    record = cls(*values)
    assert record.__getnewargs__() == values and type(record.__getnewargs__()) is tuple
    shallow, deep = copy.copy(record), copy.deepcopy(record)
    assert type(shallow) is type(deep) is cls
    assert shallow == deep == record
    assert shallow[0] is record[0] and deep[0] is not record[0] and deep[0][1] is not record[0][1]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record, protocol


@records
def test_a_match_statement_destructures_it_by_field(cls, names):
    """``case Cell(x, y)``, written out for the record's number of fields."""
    values = _values(names)
    bound = ", ".join(f"v{i}" for i in range(len(names)))
    scope = {"record": cls(*values), "cls": cls}
    exec(f"match record:\n    case cls({bound}):\n        got = ({bound},)", scope)
    assert scope["got"] == values

