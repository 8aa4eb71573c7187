import pytest

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
    cube_free_vars,
    cube_type_of,
    normalize_cube,
    subst_cube_sim,
)

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


def test_interval_atoms():
    # the leaves of a point's tuple normal form are its interval atoms
    ctx = {"p": SQUARE}
    assert normalize_cube(ctx, CVar("p")) == CPair(CFst(CVar("p")), CSnd(CVar("p")))


def test_subst():
    e = CPair(CVar("t"), CFst(CVar("p")))
    out = subst_cube_sim(e, {"t": CONE})
    assert out == CPair(CONE, CFst(CVar("p")))
    assert cube_free_vars(out) == {"p"}
