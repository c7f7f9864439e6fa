"""Value records: immutability, value equality, typed checks, replace, and
an import of the CLI that loads no code generators."""

import os
import subprocess
import sys

import pytest

import hyperlat
from hyperlat import build_lattice, group, make_isometry, pick_cone
from hyperlat.cones import PolyhedralCone
from hyperlat.criteria import (CriterionReport, EntropyFinding, EntropyReport,
                               FibrationVerdict, LatticeVerdict)
from hyperlat.errors import InvalidParameter, NotIsotropic, NotPrimitive, WrongSignature
from hyperlat.forms import IsotropyVerdict, SearchVerdict
from hyperlat.groups import FGGroup, WalkResult
from hyperlat.isometry import Classification, Isometry
from hyperlat.lattice import GramLattice
from hyperlat.model import BoundaryRay, ConeOrientation, Horoball, HyperboloidPoint
from hyperlat.record import Record, memo, replace


def _u():
    return build_lattice([[0, 1], [1, 0]])


def _orientation():
    return ConeOrientation(lattice=_u(), base=(1, 1))


def _search():
    return SearchVerdict("witness", -2, 3, (0, 0, 1), notes=("n",))


def _fibration():
    return FibrationVerdict("Unresolved", IsotropyVerdict(True, "hilbert", certificate={"p": [2]}))


# Each factory builds a fresh record from fresh but equal field values;
# records holding a dict are unhashable, as they were as frozen dataclasses.
FACTORIES = {
    GramLattice: lambda: GramLattice(gram=((0, 1), (1, 0)), rank=2),
    ConeOrientation: _orientation,
    HyperboloidPoint: lambda: HyperboloidPoint(_orientation(), (1, 1)),
    BoundaryRay: lambda: BoundaryRay(_orientation(), (1, 0)),
    Horoball: lambda: Horoball(BoundaryRay(_orientation(), (1, 0))),
    PolyhedralCone: lambda: PolyhedralCone(_u(), ((1, 0), (0, 1)), truncated_at=2),
    IsotropyVerdict: lambda: IsotropyVerdict(True, "hilbert", (1, 0)),
    SearchVerdict: _search,
    Classification: lambda: Classification("elliptic", order=2),
    Isometry: lambda: Isometry(_orientation(), ((0, 1), (1, 0))),
    FGGroup: lambda: group(make_isometry(_orientation(), [[0, 1], [1, 0]])),
    WalkResult: lambda: WalkResult((1, 1), ((0, 1),), True),
    LatticeVerdict: lambda: LatticeVerdict("NotLattice", _search()),
    FibrationVerdict: _fibration,
    EntropyFinding: lambda: EntropyFinding("g1", "loxodromic", 1.5),
    EntropyReport: lambda: EntropyReport((EntropyFinding("g1", "elliptic", 0.0),), "none"),
    CriterionReport: lambda: CriterionReport(LatticeVerdict("NotLattice", _search()),
                                             _fibration(), "note", None),
}
UNHASHABLE = {FibrationVerdict, CriterionReport}


def test_every_record_class_is_covered():
    assert set(Record.__subclasses__()) == set(FACTORIES)


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert type(a) is cls and a is not b
    name = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert replace(a) == a
    assert a != object() and a != tuple(getattr(a, f) for f in a._fields)
    assert repr(a)


def test_records_of_different_classes_differ():
    # equal field values, different classes: a point's fields may hold a lattice
    point, cone = HyperboloidPoint(_u(), (1, 1)), ConeOrientation(_u(), (1, 1))
    assert point._key(point) == cone._key(cone)
    assert point != cone and cone != point
    assert Classification("elliptic", order=2) != Classification("elliptic", order=3)


def test_cached_properties_survive_freezing():
    lat = _u()
    assert lat.determinant == -1 and lat.signature == (1, 1)
    assert lat.determinant == -1  # read back from the instance cache
    o = _orientation()
    assert o.projection and o.frame


def test_typed_errors_on_bad_input():
    u = _u()
    with pytest.raises(WrongSignature):
        ConeOrientation(lattice=build_lattice([[1, 0], [0, 1]]), base=(1, 0))
    with pytest.raises(InvalidParameter):
        ConeOrientation(lattice=u, base=(1, -1))
    o = _orientation()
    with pytest.raises(NotIsotropic):
        Horoball(BoundaryRay(o, (1, 0), rational=False))
    with pytest.raises(NotPrimitive):
        Horoball(BoundaryRay(o, (2, 0)))
    with pytest.raises(InvalidParameter, match="at least one generator"):
        FGGroup(generators=())
    other = pick_cone(build_lattice([[0, 2], [2, 0]]), (1, 1))
    swap = [[0, 1], [1, 0]]
    with pytest.raises(InvalidParameter, match="share one lattice"):
        FGGroup((make_isometry(o, swap), make_isometry(other, swap)))


def test_replace_changes_only_named_fields():
    cone = FACTORIES[PolyhedralCone]()
    o = _orientation()
    new = replace(cone, orientation=o, rays=((1, 0),))
    assert type(new) is PolyhedralCone
    assert new.orientation is o and new.rays == ((1, 0),)
    for name in ("lattice", "halfspaces", "truncated_at"):
        assert getattr(new, name) is getattr(cone, name)
    assert cone.orientation is None and cone.rays is None
    with pytest.raises(TypeError):
        replace(cone, no_such_field=1)


def test_cli_import_loads_no_code_generators():
    src = os.path.dirname(os.path.dirname(hyperlat.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hyperlat.cli; "
            "print(hyperlat.cli.__file__); "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    where, loaded = proc.stdout.split("\n")[:2]
    assert where.startswith(src)
    assert loaded == ""


def test_memo_counts_like_lru_cache_and_keeps_no_raise():
    calls = []

    @memo
    def half(n):
        """n / 2 for even n."""
        calls.append(n)
        if n % 2:
            raise ValueError(n)
        return n // 2

    assert half.__name__ == "half" and half.__doc__ == "n / 2 for even n."
    assert [half(4), half(4), half(6), half(4)] == [2, 2, 3, 2]
    for _ in range(2):
        with pytest.raises(ValueError):
            half(3)
    info = half.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 4, 2)
    assert calls == [4, 6, 3, 3]
    half.cache_clear()
    info = half.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert half(4) == 2 and calls[-1] == 4


def test_cached_property_is_computed_once_per_instance():
    o, other = _orientation(), _orientation()
    assert ConeOrientation.frame.__doc__.startswith("Rational orthogonal frame")
    assert "frame" not in vars(o)
    frame = o.frame
    assert vars(o)["frame"] is frame and o.frame is frame
    assert "frame" not in vars(other)
