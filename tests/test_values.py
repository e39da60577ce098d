"""Value semantics of the nine result classes.

Md, MGamma, FiniteGen, Sum, MembershipResult, VSpaceBasis, SumOrderReport,
ChainDecomposition and BoundReport are immutable values. This pins what a
caller can observe of them: the repr, equality within and across classes,
hashing, that fields cannot be assigned or deleted, positional and keyword
construction, and which copy, deepcopy and pickle round trips give back an
equal value.
"""

import copy
import pickle

import pytest

from polymod import (
    BiPoly,
    BoundReport,
    ChainDecomposition,
    FiniteGen,
    GammaTable,
    LogNum,
    MGamma,
    Md,
    MembershipResult,
    Sum,
    SumOrderReport,
    UniPoly,
    VSpaceBasis,
    dilated_shift_table,
    nilpotent_chains,
    order_of_sum_report,
    sup_bound,
)

G = GammaTable(1, {(1, 1): 1})
F = BiPoly([UniPoly([0, 0, 1])])
# LogNum compares by identity, so the small BoundReports share one
L0 = LogNum(0, 0)


def _small():
    """One value of each class with short field values, keyed by class name."""
    return {
        "Md": Md(2),
        "MGamma": MGamma(G),
        "FiniteGen": FiniteGen([F]),
        "Sum": Sum(Md(1), MGamma(G)),
        "MembershipResult": MembershipResult(True, {"reason": "x"}),
        "VSpaceBasis": VSpaceBasis(1, 2, ((UniPoly([1]),),)),
        "SumOrderReport": SumOrderReport(2, 2, 1, ()),
        "ChainDecomposition": ChainDecomposition(0, (), ()),
        "BoundReport": BoundReport(6, L0, L0, L0, 6, True, True, ({"holds": True},)),
    }


def _computed():
    """The small values, with the three reports as the library computes them."""
    return _small() | {
        "SumOrderReport": order_of_sum_report(G, dilated_shift_table(2), 2),
        "ChainDecomposition": nilpotent_chains([[0, 1], [0, 0]]),
        "BoundReport": sup_bound(6),
    }


REPRS = {
    "Md": "Md(d=2)",
    "MGamma": "MGamma(gamma=GammaTable(s=1, {a[1,1]=1}))",
    "FiniteGen": "FiniteGen(gens=(BiPoly([\"UniPoly(['0', '0', '1'])\"]),), basis=(BiPoly([\"UniPoly(['0', '0', '1'])\"]),"
    " BiPoly([\"UniPoly(['0', '1'])\"]), BiPoly([\"UniPoly(['1'])\"])))",
    "Sum": "Sum(parts=(Md(d=1), MGamma(gamma=GammaTable(s=1, {a[1,1]=1}))))",
    "MembershipResult": "MembershipResult(contains=True, certificate={'reason': 'x'})",
    "VSpaceBasis": "VSpaceBasis(s=1, deg_bound=2, tuples=((UniPoly(['1']),),))",
    "SumOrderReport": "SumOrderReport(order=2, deg_bound=2, kernel_dim=1, refuted=())",
    "ChainDecomposition": "ChainDecomposition(dim=0, chains=(), basis_vectors=())",
    "BoundReport": "BoundReport(n=6, log_linear_term=LogNum(0), log_tail_term=LogNum(0), log_total=LogNum(0),"
    " box_radius_log=6, below_one=True, certified=True,"
    " conditions=({'holds': True},))",
}

FIELDS = {
    "Md": ["d"],
    "MGamma": ["gamma"],
    "FiniteGen": ["gens", "basis"],
    "Sum": ["parts"],
    "MembershipResult": ["contains", "certificate"],
    "VSpaceBasis": ["s", "deg_bound", "tuples"],
    "SumOrderReport": ["order", "deg_bound", "kernel_dim", "refuted"],
    "ChainDecomposition": ["dim", "chains", "basis_vectors"],
    "BoundReport": ["n", "log_linear_term", "log_tail_term", "log_total", "box_radius_log", "below_one",
                    "certified", "conditions"],
}

# the field values hold dicts
UNHASHABLE = {"MembershipResult", "BoundReport"}


def test_reprs():
    assert {name: repr(v) for name, v in _small().items()} == REPRS


def test_equality_is_per_class_and_by_value():
    a, b = _small(), _small()
    for name in a:
        assert a[name] == b[name] and not a[name] != b[name], name
        for other in a:
            if other != name:
                assert a[name] != a[other] and not a[name] == a[other], (name, other)
                assert a[name].__eq__(a[other]) is NotImplemented
        assert a[name].__eq__(object()) is NotImplemented
        assert a[name] != tuple(getattr(a[name], f) for f in FIELDS[name])
    assert Md(2) != Md(3)
    assert MGamma(G) != MGamma(dilated_shift_table(2))
    assert Sum(Md(1), MGamma(G)) != Sum(MGamma(G), Md(1))
    assert MembershipResult(True, {}) != MembershipResult(True, {"reason": "x"})
    assert MembershipResult(True, {}) != MembershipResult(False, {})
    assert VSpaceBasis(1, 2, ()) != VSpaceBasis(1, 3, ())
    assert SumOrderReport(2, 2, 1, ()) != SumOrderReport(2, 2, 0, ())
    assert ChainDecomposition(0, (), ()) != ChainDecomposition(1, (), ())
    assert FiniteGen([F]) != FiniteGen([F.d_dx()])


def test_hash_follows_equality_or_raises():
    a, b = _small(), _small()
    for name in a:
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a[name])
        else:
            assert hash(a[name]) == hash(b[name]), name
    assert len({Md(2), Md(2), Md(3)}) == 2
    with pytest.raises(TypeError):
        hash(sup_bound(6))


def test_finitegen_equality_ignores_the_basis():
    fg = FiniteGen([F])
    other = copy.copy(fg)
    object.__setattr__(other, "basis", ())
    assert other.basis == () and fg.basis != ()
    assert other == fg and hash(other) == hash(fg)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    value = _small()[name]
    before = repr(value)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


def test_positional_and_keyword_construction():
    cert = {"reason": "x"}
    assert Md(2) == Md(d=2)
    assert MGamma(G) == MGamma(gamma=G)
    assert FiniteGen([F]) == FiniteGen(gens=[F])
    assert MembershipResult(True, cert) == MembershipResult(contains=True, certificate=cert)
    assert MembershipResult(True, cert) == MembershipResult(True, certificate=cert)
    assert MembershipResult(True, cert) == MembershipResult(certificate=cert, contains=True)
    assert VSpaceBasis(1, 2, ()) == VSpaceBasis(tuples=(), s=1, deg_bound=2)
    assert SumOrderReport(2, 2, 1, ()) == SumOrderReport(order=2, deg_bound=2, kernel_dim=1, refuted=())
    assert ChainDecomposition(0, (), ()) == ChainDecomposition(dim=0, chains=(), basis_vectors=())
    small = _small()["BoundReport"]
    assert small == BoundReport(**{f: getattr(small, f) for f in FIELDS["BoundReport"]})
    assert (small.n, small.box_radius_log, small.conditions) == (6, 6, ({"holds": True},))
    assert FiniteGen([F]).gens == (F,)
    assert Sum(Sum(Md(1), Md(2)), Md(3)).parts == (Md(1), Md(2), Md(3))


def test_construction_errors():
    for bad in (-1, 1.0, True, "2"):
        with pytest.raises(ValueError):
            Md(bad)
    with pytest.raises(ValueError):
        Md(d=-1)
    with pytest.raises(ValueError):
        Sum(Md(1))
    for args, kwargs in (((), {}), ((True,), {}), ((True, {}, 1), {}), ((True,), {"contains": True}),
                         ((True,), {"certificate": {}, "extra": 1})):
        with pytest.raises(TypeError):
            MembershipResult(*args, **kwargs)
    with pytest.raises(TypeError):
        VSpaceBasis(s=1, deg_bound=2)


def _pickled(value, protocol):
    return pickle.loads(pickle.dumps(value, protocol=protocol))


# protocols 0 and 1 cannot pickle a field value of a __slots__ class such as
# GammaTable, UniPoly, CoeffQ or LogNum
LOW_PROTOCOLS = {"Md", "MembershipResult"}


def test_copy_deepcopy_and_pickle_round_trips():
    for name, value in _computed().items():
        copies = {"copy": copy.copy(value), "deepcopy": copy.deepcopy(value)}
        copies |= {f"pickle{p}": _pickled(value, p) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)}
        for how, c in copies.items():
            assert type(c) is type(value) and repr(c) == repr(value), (name, how)
            # a BoundReport equals only its shallow copy, which shares its LogNums
            assert (c == value) is (name != "BoundReport" or how == "copy"), (name, how)
            with pytest.raises(AttributeError):
                setattr(c, FIELDS[name][0], None)
        for p in (0, 1):
            if name in LOW_PROTOCOLS:
                assert _pickled(value, p) == value
            else:
                with pytest.raises(TypeError):
                    pickle.dumps(value, protocol=p)
