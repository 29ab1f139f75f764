"""The frozen records keep the semantics of frozen dataclasses.

One row per record class: a factory for a sample instance, its repr
text, a field change for replace() and a factory for the expected
result.  Each sample is built twice, so equality is checked between
distinct but equal objects.
"""
from __future__ import annotations

import copy
import pickle

import pytest

from wittlinear import (
    AbelianGroupPresentation,
    Affine,
    CellularComplexSlice,
    ClosedGlue,
    ClosureOrder,
    DiagonalForm,
    Empty,
    FieldCapability,
    FinitePosetRealization,
    GWClass,
    IdealLevel,
    InvalidFormError,
    OpenGlue,
    Product,
    ProjTimesTorus,
    RangeVerdict,
    RccmCase,
    RccmEntry,
    RccmVerdict,
    RuleApplication,
    SchemeError,
    SchemeExpr,
    SheafRangeVerdict,
    ShiftedIdealSum,
    StepKind,
    StepVerdict,
    Stratified,
    TorusCell,
    TwistLabel,
    VennReport,
    VennStratum,
    WittClass,
    cellular_complex_proj_times_torus,
)
from wittlinear._frozen import Frozen, replace
from wittlinear.schemes import NodeKind


def _node_kind(name="x"):
    # builtins as the callables, so the repr holds no addresses
    return NodeKind(Affine, name, (), label=len, j_rule=("r", max), range_rule=("r", min))


def _realization(closure_sets=(frozenset({0}), frozenset({0, 1}))):
    return FinitePosetRealization(frozenset({1, 2}), (frozenset({1}), frozenset({2})),
                                  closure_sets)


_CHAIN = ("frozenset({(0, 1), (1, 1), (0, 0)})")
_A0, _A1 = "Affine(smooth_flag=None, n=0)", "Affine(smooth_flag=None, n=1)"

# (sample, its repr, replace() changes, expected result of replace)
RECORDS = [
    (lambda: SchemeExpr(), "SchemeExpr(smooth_flag=None)",
     {"smooth_flag": True}, lambda: SchemeExpr(smooth_flag=True)),
    (lambda: Empty(), "Empty(smooth_flag=None)",
     {"smooth_flag": False}, lambda: Empty(smooth_flag=False)),
    (lambda: Affine(1), _A1, {"n": 2}, lambda: Affine(2)),
    (lambda: TorusCell(1, 2), "TorusCell(smooth_flag=None, n=1, d=2)",
     {"d": 0}, lambda: TorusCell(1, 0)),
    (lambda: ProjTimesTorus(1, 2, TwistLabel.o(2)),
     "ProjTimesTorus(smooth_flag=None, c=1, e=2, twist=TwistLabel(name='O(2)'))",
     {"twist": TwistLabel.trivial()}, lambda: ProjTimesTorus(1, 2)),
    (lambda: OpenGlue(Affine(1), Affine(0)),
     "OpenGlue(smooth_flag=None, ambient=%s, closed=%s)" % (_A1, _A0),
     {"closed": Empty()}, lambda: OpenGlue(Affine(1), Empty())),
    (lambda: ClosedGlue(Affine(0), Affine(1)),
     "ClosedGlue(smooth_flag=None, closed=%s, open_part=%s)" % (_A0, _A1),
     {"open_part": Affine(2)}, lambda: ClosedGlue(Affine(0), Affine(2))),
    (lambda: Product(Affine(1), TorusCell(0, 1)),
     "Product(smooth_flag=None, left=%s, right=TorusCell(smooth_flag=None, n=0, d=1))" % _A1,
     {"right": Affine(2)}, lambda: Product(Affine(1), Affine(2))),
    (lambda: ClosureOrder.chain(2), "ClosureOrder(size=2, relation=%s)" % _CHAIN,
     {"relation": frozenset({(0, 0), (1, 1)})}, lambda: ClosureOrder.discrete(2)),
    (lambda: Stratified((Affine(0), Affine(1)), ClosureOrder.chain(2)),
     "Stratified(smooth_flag=None, strata=(%s, %s), closure_order=ClosureOrder(size=2, "
     "relation=%s))" % (_A0, _A1, _CHAIN),
     {"closure_order": ClosureOrder.discrete(2)},
     lambda: Stratified((Affine(0), Affine(1)), ClosureOrder.discrete(2))),
    (lambda: RuleApplication("A^1", "leaf-affine", (), 0),
     "RuleApplication(node='A^1', rule='leaf-affine', inputs=(), level=0)",
     {"level": 1}, lambda: RuleApplication("A^1", "leaf-affine", (), 1)),
    (_node_kind,
     "NodeKind(cls=<class 'wittlinear.schemes.Affine'>, name='x', fields=(), "
     "label=<built-in function len>, j_rule=('r', <built-in function max>), "
     "range_rule=('r', <built-in function min>), text=<built-in function len>)",
     {"name": "y"}, lambda: _node_kind("y")),
    (_realization,
     "FinitePosetRealization(ground=frozenset({1, 2}), pieces=(frozenset({1}), "
     "frozenset({2})), closure_sets=(frozenset({0}), frozenset({0, 1})))",
     {"closure_sets": (frozenset({0}), frozenset({1}))},
     lambda: _realization((frozenset({0}), frozenset({1})))),
    (lambda: VennStratum(frozenset({0}), frozenset({1, 2})),
     "VennStratum(members=frozenset({0}), points=frozenset({1, 2}))",
     {"points": frozenset()}, lambda: VennStratum(frozenset({0}), frozenset())),
    (lambda: VennReport((VennStratum(frozenset({0}), frozenset({1})),), True, True),
     "VennReport(strata=(VennStratum(members=frozenset({0}), points=frozenset({1})),), "
     "partition_ok=True, boundary_ok=True)",
     {"boundary_ok": False},
     lambda: VennReport((VennStratum(frozenset({0}), frozenset({1})),), True, False)),
    (lambda: DiagonalForm.of(1, -1),
     "DiagonalForm(entries=(Fraction(1, 1), Fraction(-1, 1)))",
     {"entries": (2,)}, lambda: DiagonalForm.of(2)),
    (lambda: GWClass(3, 1), "GWClass(rank=3, signature=1)",
     {"signature": -1}, lambda: GWClass(3, -1)),
    (lambda: WittClass(3), "WittClass(signature=3)",
     {"signature": 0}, lambda: WittClass(0)),
    (lambda: IdealLevel(2), "IdealLevel(q=2)", {"q": 0}, lambda: IdealLevel(0)),
    (lambda: TwistLabel.o(2), "TwistLabel(name='O(2)')",
     {"name": "trivial"}, TwistLabel.trivial),
    (lambda: FieldCapability("R", True), "FieldCapability(name='R', graded_step_iso=True)",
     {"graded_step_iso": False}, lambda: FieldCapability("R", False)),
    (lambda: cellular_complex_proj_times_torus(1, 1, TwistLabel.o(2)),
     "CellularComplexSlice(degree=1, twist=TwistLabel(name='O(2)'), "
     "incoming=ShiftedIdealSum(summands=((0, 1), (1, 1))), "
     "current=ShiftedIdealSum(summands=((1, 1), (2, 1))), differential='ZERO')",
     {"differential": "NONZERO"},
     lambda: CellularComplexSlice(1, TwistLabel.o(2), ShiftedIdealSum(((0, 1), (1, 1))),
                                  ShiftedIdealSum(((1, 1), (2, 1))), "NONZERO")),
    (lambda: AbelianGroupPresentation(0, (2, 4)),
     "AbelianGroupPresentation(free_rank=0, torsion_orders=(2, 4))",
     {"free_rank": 1}, lambda: AbelianGroupPresentation(1, (2, 4))),
    (lambda: StepVerdict(StepKind.ISO, AbelianGroupPresentation.trivial()),
     "StepVerdict(kind=<StepKind.ISO: 'ISO'>, "
     "cokernel=AbelianGroupPresentation(free_rank=0, torsion_orders=()))",
     {"kind": StepKind.INJECTIVE_NOT_SURJECTIVE},
     lambda: StepVerdict(StepKind.INJECTIVE_NOT_SURJECTIVE,
                         AbelianGroupPresentation.trivial())),
    # replace() runs the constructor again, which merges the summands
    (lambda: ShiftedIdealSum.from_pairs([(1, 2), (0, 1)]),
     "ShiftedIdealSum(summands=((0, 1), (1, 2)))",
     {"summands": ((1, 1), (1, 1))}, lambda: ShiftedIdealSum.from_pairs([(1, 2)])),
    (lambda: RangeVerdict(1, 0, ()), "RangeVerdict(iso_diag=1, inj_diag=0, provenance=())",
     {"inj_diag": 1}, lambda: RangeVerdict(1, 1, ())),
    (lambda: SheafRangeVerdict(1, 1, "graded", frozenset({(0, 0)}), ()),
     "SheafRangeVerdict(level=1, dim=1, sheaf='graded', not_surjective=frozenset({(0, 0)}), "
     "provenance=())",
     {"sheaf": "twisted-ideal"},
     lambda: SheafRangeVerdict(1, 1, "twisted-ideal", frozenset({(0, 0)}), ())),
    (lambda: RccmEntry(RccmCase.ISO),
     "RccmEntry(case=<RccmCase.ISO: 'ISO'>, image_contains_power=None, "
     "image_equals_power=None)",
     {"image_contains_power": 1}, lambda: RccmEntry(RccmCase.ISO, 1)),
    (lambda: RccmVerdict(0, 1, 1, ()), "RccmVerdict(i=0, level=1, dim=1, provenance=())",
     {"i": 1}, lambda: RccmVerdict(1, 1, 1, ())),
]

IDS = [text.split("(", 1)[0] for _, text, _, _ in RECORDS]


def _record_classes(cls=Frozen):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("wittlinear."):
            yield sub
        yield from _record_classes(sub)


def test_one_row_per_record_class():
    classes = [type(make()) for make, _, _, _ in RECORDS]
    assert len(classes) == len(set(classes)) == 29
    assert set(classes) == set(_record_classes())


@pytest.mark.parametrize("make,text,changes,expected", RECORDS, ids=IDS)
class TestRecord:
    def test_repr(self, make, text, changes, expected):
        assert repr(make()) == text

    def test_equal_records_compare_and_hash_equal(self, make, text, changes, expected):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != expected()

    def test_another_class_with_the_same_fields_is_unequal(self, make, text, changes,
                                                           expected):
        a = make()
        twin = object.__new__(type("Twin", (type(a),), {}))
        vars(twin).update(vars(a))
        assert twin._key(twin) == a._key(a)
        assert a != twin and twin != a
        assert a.__eq__(twin) is NotImplemented

    def test_fields_cannot_be_set_or_deleted(self, make, text, changes, expected):
        a = make()
        for name in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.new_attribute = 1
        assert repr(a) == text

    def test_replace_changes_a_copy(self, make, text, changes, expected):
        a = make()
        changed = replace(a, **changes)
        assert changed == expected()
        assert repr(a) == text
        assert replace(a) == a

    def test_copy_and_pickle_give_an_equal_record(self, make, text, changes, expected):
        a = make()
        for other in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(other) is type(a)
            assert other == a and hash(other) == hash(a)
            assert vars(other) == vars(a)


@pytest.mark.parametrize("a,b", [
    (WittClass(3), IdealLevel(3)),
    (OpenGlue(Affine(1), Affine(0)), ClosedGlue(Affine(1), Affine(0))),
    (TwistLabel("R"), FieldCapability("R", True)),
], ids=["one-int-field", "two-children", "str-field"])
def test_unrelated_classes_are_unequal(a, b):
    assert a != b and b != a


def test_replace_runs_the_checks_again():
    with pytest.raises(SchemeError, match="smaller dimension"):
        replace(OpenGlue(Affine(1), Affine(0)), closed=Affine(2))
    with pytest.raises(InvalidFormError):
        replace(GWClass(3, 1), signature=0)
    with pytest.raises(InvalidFormError):
        replace(DiagonalForm.of(1), entries=(0,))
    with pytest.raises(TypeError):
        replace(Affine(1), m=2)


def test_replace_keeps_the_derived_values():
    tree = replace(OpenGlue(Affine(2), Affine(0)), ambient=Product(Affine(1), TorusCell(0, 2)))
    assert (tree.dim, tree.is_empty, tree.smooth) == (3, False, True)
    assert replace(tree, smooth_flag=False).smooth is False
    assert replace(ClosureOrder.chain(3), relation=ClosureOrder.discrete(3).relation).down \
        == (1, 2, 4)
