"""The Hopf structure maps have one home, `terms.HopfAlgebra`: the
coordinate and momentum algebras state their generators, generator images
and antipodes and their label hooks, and define none of the antipode,
counit, star, monomial text or tensor-square maps in their own class body.
A term map that is not a Hopf algebra has no coproduct."""

import ast
from pathlib import Path

from kmink.action import HeisenbergElement
from kmink.scalars import ScalarValue
from kmink.terms import HopfAlgebra, IndexedMap, TermMap

SRC = Path(__file__).resolve().parent.parent / "src" / "kmink"

ALGEBRA_MAPS = ("antipode", "counit", "star", "monomial", "_factors")
TENSOR_MAPS = ("left_counit", "coproduct_left", "coproduct_right")
GUARDED = {
    "minkowski.py": {"PositionElement": ALGEBRA_MAPS, "PositionTensor": TENSOR_MAPS},
    "momentum.py": {"MomentumElement": ALGEBRA_MAPS, "MomentumTensor": TENSOR_MAPS},
}


def own_names(source, cls):
    """Names that the body of the module-level class `cls` in `source`
    defines: its methods and the targets of its assignments."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_the_checker_sees_own_definitions():
    source = ("class A(HopfAlgebra):\n"
              "    LETTER = 'x'\n"
              "    star = HopfAlgebra.star\n"
              "    def counit(self):\n        return 0\n\n\n"
              "class B:\n    def antipode(self):\n        pass\n")
    assert own_names(source, "A") == {"LETTER", "star", "counit"}
    assert own_names(source, "B") == {"antipode"}
    assert own_names(source, "C") == set()


def test_the_algebras_define_no_structure_map_of_their_own():
    offenders = {}
    for module, classes in GUARDED.items():
        source = (SRC / module).read_text(encoding="utf-8")
        for cls, forbidden in classes.items():
            if own := own_names(source, cls) & set(forbidden):
                offenders[f"{module}:{cls}"] = sorted(own)
    assert not offenders, offenders


def test_only_hopf_algebras_have_a_coproduct():
    assert not hasattr(TermMap, "coproduct")
    for cls in (ScalarValue, IndexedMap, HeisenbergElement):
        assert not hasattr(cls, "coproduct"), cls.__name__
    for name in ("coproduct", *ALGEBRA_MAPS):
        assert name in vars(HopfAlgebra), name
