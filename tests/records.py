"""Checks on frozen records: copies and setters, and likeness to a record built by __init__.

The library builds some records with errors._record, which fills a new
instance's __dict__ instead of running the generated __init__;
assert_as_constructed compares such a record with one built by __init__.
assert_frozen_record checks what any frozen record must do. This module
needs only the standard library, so it runs on interpreters without pytest
or numpy as well.
"""

import copy
import dataclasses
import pickle


def _raises(error, call, *args) -> bool:
    try:
        call(*args)
    except error:
        return True
    return False


def assert_frozen_record(record) -> None:
    """record pickles, copies and replaces to a record like it, and refuses every setter.

    A copy has the record's class and repr, and equals the record when the
    class compares by value; a class declared with eq=False is equal to
    itself only.
    """
    cls = type(record)
    by_value = cls.__dataclass_params__.eq
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)}
    thawed = pickle.loads(pickle.dumps(record))
    for copied in (thawed, copy.copy(record), copy.deepcopy(record), dataclasses.replace(record)):
        assert type(copied) is cls and repr(copied) == repr(record)
        assert (copied == record) is (by_value or copied is record)
    for name in (*values, "no_field"):
        assert _raises(dataclasses.FrozenInstanceError, setattr, record, name, 1.0)
    for name in values:
        assert _raises(dataclasses.FrozenInstanceError, delattr, record, name)
    assert vars(record) == values


def assert_as_constructed(record) -> None:
    """record behaves in every way as its class's __init__ called on its field values.

    Equality and hashing are checked to go as they go between two records
    built by __init__: by value, by identity for a class declared with
    eq=False, and a TypeError from hash when a field holds a dict.
    """
    cls = type(record)
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)}
    built, other = cls(**values), cls(**values)
    by_value = other == built
    assert vars(record) == vars(built) and list(vars(record)) == list(vars(built))
    assert record == record
    assert (record == built) is (built == record) is by_value
    assert (record != built) is not by_value
    if _raises(TypeError, hash, built):  # a field holds a dict or an array
        assert _raises(TypeError, hash, record)
    else:
        assert (hash(record) == hash(built)) is (hash(other) == hash(built))
    assert repr(record) == repr(built)
    assert pickle.dumps(record) == pickle.dumps(built)
    assert repr(dataclasses.asdict(record)) == repr(dataclasses.asdict(built))
    assert repr(dataclasses.astuple(record)) == repr(dataclasses.astuple(built))
    assert_frozen_record(record)
