import pickle

import pytest

import klbounds
from klbounds.bounds import (BoundReport, CoefficientwiseReport,
                             EqualityResult, MonotonicityReport)
from klbounds.cartan import CartanDatum, standard_cartan_matrix
from klbounds.errors import InvalidCartanError
from klbounds.verify import SuiteResult, Unit, Verdict


def test_star_import_resolves_every_export():
    names = klbounds.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from klbounds import *", namespace)
    assert all(name in namespace for name in names)


# -- record classes: immutable named tuples

RECORD_FIELDS = [
    (CartanDatum, ("family", "rank", "matrix")),
    (BoundReport, ("x", "w", "subgroup", "maximal_set", "lhs", "rhs",
                   "holds", "per_term", "comparable")),
    (CoefficientwiseReport, ("x", "w", "subgroup", "y", "degrees", "holds",
                             "empty")),
    (MonotonicityReport, ("w", "subgroup", "lhs", "mid", "rhs", "holds",
                          "coset_min", "phi_w")),
    (EqualityResult, ("lhs", "rhs", "holds")),
    (Verdict, ("theorem", "family", "rank", "subgroup", "x", "w", "lhs",
               "rhs", "holds", "detail")),
    (SuiteResult, ("suite", "family", "rank", "records", "elapsed")),
    (Unit, ("suite", "family", "rank", "kind", "arg")),
]


def _sample(cls, fields):
    if cls is CartanDatum:
        return CartanDatum("A", 2, standard_cartan_matrix("A", 2))
    return cls(*(f"{name}-value" for name in fields))


@pytest.mark.parametrize("cls,fields", RECORD_FIELDS,
                         ids=[cls.__name__ for cls, _ in RECORD_FIELDS])
def test_record_fields_equality_and_immutability(cls, fields):
    assert cls._fields == fields
    rec = _sample(cls, fields)
    twin = _sample(cls, fields)
    assert rec == twin and hash(rec) == hash(twin)
    assert rec != rec._replace(**{fields[-1]: "other"})
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], "changed")
    assert getattr(rec, fields[0]) == twin[0]


def test_verdict_detail_defaults_to_empty():
    rec = Verdict("MAIN", "A", 2, "full", "12", "21", "1", "1", True)
    assert rec.detail == ()
    assert rec.text_line() == "MAIN A 2 full 12 21 1 1 HOLDS"
    assert rec.json_dict()["detail"] == {}


@pytest.mark.parametrize("rec", [
    Unit("main-theorem", "B", 3, "subgroup", "standard:s1,s3"),
    Verdict("MAIN", "A", 2, "full", "12", "21", "1", "1", True,
            (("comparable", True),)),
], ids=["Unit", "Verdict"])
def test_records_survive_pickling(rec):
    # units go to worker processes, verdicts come back from them
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is type(rec)


def test_cartan_datum_refuses_a_foreign_matrix():
    with pytest.raises(InvalidCartanError,
                       match="^Cartan matrix does not match the standard "
                             "table for B3$"):
        CartanDatum("B", 3, standard_cartan_matrix("C", 3))
    datum = CartanDatum.standard("B", 3)
    assert pickle.loads(pickle.dumps(datum)) == datum
