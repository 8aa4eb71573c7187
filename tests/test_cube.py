import pytest

from sstt.core import free_vars
from sstt.cube import (
    INTERVAL,
    UNIT_CUBE,
    CONE,
    CSTAR,
    CZERO,
    CFst,
    CPair,
    CSnd,
    CVar,
    ProdCube,
    cube_type_of,
    normalize_cube,
    subst_cube_sim,
)
from sstt.tope import TLe

SQUARE = ProdCube(INTERVAL, INTERVAL)


def test_type_of_endpoints():
    assert cube_type_of({}, CZERO) == INTERVAL
    assert cube_type_of({}, CONE) == INTERVAL
    assert cube_type_of({}, CSTAR) == UNIT_CUBE


def test_type_of_pairs_and_projections():
    ctx = {"p": SQUARE}
    assert cube_type_of(ctx, CFst(CVar("p"))) == INTERVAL
    assert cube_type_of(ctx, CPair(CZERO, CVar("p"))) == ProdCube(INTERVAL, SQUARE)


def test_type_errors():
    with pytest.raises(Exception):
        cube_type_of({}, CVar("nope"))
    with pytest.raises(Exception):
        cube_type_of({"t": INTERVAL}, CFst(CVar("t")))


def test_normalize_beta():
    ctx = {"t": INTERVAL, "s": INTERVAL}
    assert normalize_cube(ctx, CFst(CPair(CVar("t"), CVar("s")))) == CVar("t")
    assert normalize_cube(ctx, CSnd(CPair(CVar("t"), CVar("s")))) == CVar("s")


def test_normalize_eta_expands_products():
    ctx = {"p": SQUARE}
    n = normalize_cube(ctx, CVar("p"))
    assert n == CPair(CFst(CVar("p")), CSnd(CVar("p")))


def test_normalize_unit_collapses():
    assert normalize_cube({"u": UNIT_CUBE}, CVar("u")) == CSTAR


def test_normalize_nested_projection():
    ctx = {"q": ProdCube(SQUARE, INTERVAL)}
    n = normalize_cube(ctx, CFst(CFst(CVar("q"))))
    assert n == CFst(CFst(CVar("q")))


def test_normal_points_come_back_as_themselves():
    t, p = CVar("t"), CVar("p")
    ctx = {"t": INTERVAL, "p": SQUARE, "q": ProdCube(SQUARE, INTERVAL)}
    for e in (CZERO, CONE, CSTAR, t, CFst(p), CSnd(CFst(CVar("q"))),
              CPair(t, CPair(CFst(p), CSTAR))):
        assert normalize_cube(ctx, e) is e
    # a pair with a part to normalize is rebuilt around its normal part
    out = normalize_cube(ctx, CPair(t, CFst(CPair(CONE, t))))
    assert out == CPair(t, CONE) and out.fst is t


def test_interval_atoms():
    # the leaves of a point's tuple normal form are its interval atoms
    ctx = {"p": SQUARE}
    assert normalize_cube(ctx, CVar("p")) == CPair(CFst(CVar("p")), CSnd(CVar("p")))


def test_subst():
    e = CPair(CVar("t"), CFst(CVar("p")))
    out = subst_cube_sim(e, {"t": CONE})
    assert out == CPair(CONE, CFst(CVar("p")))
    assert free_vars(out) == {"p"}


def test_subst_keeps_constants_and_rejects_a_non_point():
    for c in (CZERO, CONE, CSTAR):
        assert subst_cube_sim(c, {"t": CONE}) is c
    with pytest.raises(TypeError, match="not a cube point: 't'"):
        subst_cube_sim("t", {"t": CONE})
    # a tope is not a point, even where it holds one
    with pytest.raises(TypeError, match="not a cube point"):
        subst_cube_sim(CFst(TLe(CVar("t"), CONE)), {"t": CONE})
