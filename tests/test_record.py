"""The package's immutable records: construction, equality, hashing, repr,
immutability, pickling and copying, as a frozen dataclass would give them."""

import copy
import pickle

import pytest

from adamsops.eigen import Eigenbasis, Eigenvector, SpectrumReport, eigenbasis
from adamsops.ktheory import (
    FAMILY_TABLE,
    AdamsMatrix,
    BasisElement,
    GroupSpec,
    adams_matrix,
)
from adamsops.suites import CheckResult

U3 = GroupSpec("U", 3)

# one record of each kind, built from its fields
RECORDS = [
    U3,
    BasisElement("wedge", 1, "d(L^1 s_3)"),
    AdamsMatrix(U3, 2, ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
    Eigenvector(2, 1, (2, -1), 2),
    Eigenbasis(GroupSpec("U", 1), (1,), ((1,),)),
    SpectrumReport(U3, 2, True, (2, 4, 8), (1, -14, 56, -64), (1, -14, 56, -64)),
    CheckResult("count: a check", True, "n<=3"),
]


def _fields(record):
    return {name: getattr(record, name) for name in type(record).__annotations__}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_fields_make_equal_records_with_equal_hashes(record):
    twin = type(record)(**_fields(record))
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert twin is not record


def test_records_differ_when_a_field_or_the_class_differs():
    assert GroupSpec("U", 3) != GroupSpec("U", 4)
    assert GroupSpec("U", 3) != GroupSpec("SU", 3)
    assert GroupSpec("U", 3) != ("U", 3)
    assert ("U", 3) != GroupSpec("U", 3)
    assert BasisElement("wedge", 1, "x") != ("wedge", 1, "x")
    assert AdamsMatrix(U3, 2, ((1,),)) != AdamsMatrix(U3, 3, ((1,),))
    assert len({GroupSpec("U", 3), GroupSpec("U", 3), GroupSpec("SU", 3)}) == 2


def test_defaults_and_keywords():
    assert GroupSpec("G2") == GroupSpec("G2", 2) == GroupSpec(family="G2", n=2)
    assert GroupSpec(n=3, family="U") == U3
    assert FAMILY_TABLE["U"].extra == () and FAMILY_TABLE["U"].fixed_rank is None
    assert FAMILY_TABLE["U"].extra_eigenvectors(3) == []
    with pytest.raises(TypeError):
        GroupSpec()
    with pytest.raises(TypeError):
        BasisElement("wedge", 1)
    with pytest.raises(TypeError):
        GroupSpec("U", 3, 4)


def test_repr_names_each_field():
    assert repr(U3) == "GroupSpec(family='U', n=3)"
    assert repr(BasisElement("spin", 0, "d(S)")) == "BasisElement(kind='spin', index=0, label='d(S)')"
    assert repr(adams_matrix(GroupSpec("U", 1), 5)) == (
        "AdamsMatrix(group=GroupSpec(family='U', n=1), l=5, entries=((5,),))"
    )
    assert repr(CheckResult("a", False, "n=1")) == "CheckResult(name='a', ok=False, detail='n=1')"
    assert repr(Eigenvector(1, 0, (1,), 1)) == "Eigenvector(n=1, k=0, nums=(1,), den=1)"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    name = next(iter(type(record).__annotations__))
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) is before


def test_group_spec_checks_and_normalises_its_fields():
    assert GroupSpec("G2", 7).n == 2 and GroupSpec("G2", 7) == GroupSpec("G2")
    assert hash(GroupSpec("G2", 7)) == hash(GroupSpec("G2"))
    assert repr(GroupSpec("G2", 5)) == "GroupSpec(family='G2', n=2)"
    for bad in (True, False, 3.0, "3", None):
        with pytest.raises(ValueError, match="rank must be an int"):
            GroupSpec("U", bad)
    with pytest.raises(ValueError, match="unknown family"):
        GroupSpec("SO", 3)


@pytest.mark.parametrize(
    "record",
    [r for r in RECORDS if not isinstance(r, Eigenbasis)] + [eigenbasis(GroupSpec("SpinEven", 4))],
    ids=lambda r: type(r).__name__,
)
def test_pickle_and_copy_round_trips(record):
    for back in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(back) is type(record)
        assert back == record and hash(back) == hash(record)
        assert _fields(back) == _fields(record)


def test_eigenbasis_heights_are_computed_once():
    # a cached_property on a Record: computed on first use, then the same
    # object on every read, and carried by a copy
    cached = eigenbasis(GroupSpec("Sp", 3))
    vb = Eigenbasis(cached.group, cached.eigenvalue_exponents, cached.columns)
    assert vb == cached
    assert "heights" not in vars(vb)
    heights = vb.heights
    assert heights == tuple(max(map(abs, col)) for col in vb.columns)
    assert vb.heights is heights
    assert copy.copy(vb).heights is heights
    # the l-independent certificate conditions, likewise
    assert "well_formed" not in vars(vb)
    assert vb.well_formed is True
    assert vars(vb)["well_formed"] is True
    assert "well_formed" in vars(copy.copy(vb))
    # the cached values are no fields: they change neither equality nor hash
    assert vb == cached and hash(vb) == hash(cached)
