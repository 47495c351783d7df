"""Groupoid axioms, isotropy, transversals."""

import pytest

from zsalg.categories import TableCategory
from zsalg.errors import MalformedTableError, UnknownUnitError
from zsalg.fixtures import (
    broken_pair_groupoid,
    pair_groupoid_2,
    two_orbit_groupoid,
    z2_groupoid,
)
from zsalg.groupoid import (
    FiniteGroupoid,
    GroupoidPresentation,
    check_transversal,
    validate_groupoid,
)


def test_pair_groupoid_validates():
    gpd = pair_groupoid_2()
    assert sorted(gpd.names) == ["m_uw", "m_wu", "u", "w"]


def test_z2_validates():
    gpd = z2_groupoid()
    assert gpd.compose("g", "g") == "v"


def test_broken_inverse_witness():
    gpd, rep = validate_groupoid(broken_pair_groupoid())
    assert not rep.passed
    assert rep.witness[0] == "inverse_endpoints"


def test_isotropy():
    gpd = pair_groupoid_2()
    iso = gpd.isotropy("u")
    assert iso.names == ("u",)
    z2 = z2_groupoid()
    assert sorted(z2.isotropy("v").names) == ["g", "v"]
    both = two_orbit_groupoid()
    assert sorted(both.isotropy("z").names) == ["g", "z"]
    assert both.isotropy("u").names == ("u",)
    with pytest.raises(UnknownUnitError):
        gpd.isotropy("nope")


def test_isotropy_closed_under_ops():
    gpd = two_orbit_groupoid()
    for x in gpd.units:
        iso = gpd.isotropy(x)
        for g in iso.names:
            assert gpd.inverse(g) in iso.names
            for h in iso.names:
                assert gpd.compose(g, h) in iso.names


def test_transversal_pair_groupoid():
    gpd = pair_groupoid_2()
    X, orbit_of, connector = gpd.transversal()
    assert X == ("u",)
    assert connector["w"] == "m_wu"  # r = w, s = u
    assert check_transversal(gpd)


def test_transversal_units_only():
    pres = GroupoidPresentation(units=["x", "y", "z"], morphisms=["x", "y", "z"])
    gpd, rep = validate_groupoid(pres)
    assert rep.passed
    assert gpd.transversal()[0] == ("x", "y", "z")
    assert check_transversal(gpd)


def test_transversal_two_orbits():
    gpd = two_orbit_groupoid()
    X, orbit_of, _ = gpd.transversal()
    assert X == ("u", "z")
    for orbit in gpd.orbits():
        assert sum(1 for u in orbit if u in X) == 1
    assert check_transversal(gpd)


def _one_unit(compose, inv):
    """A table on the one unit v: every endpoint law holds."""
    names = sorted({"v", *inv})
    return GroupoidPresentation(
        units=["v"],
        morphisms=names,
        rng={g: "v" for g in names},
        src={g: "v" for g in names},
        inv=inv,
        compose=compose,
    )


#: arrows a: w -> u and b: u -> w, with inverses y and x; a.b is defined but
#: named a, so it runs w -> w where it should run u -> u
_TWO_UNITS_BAD_COMPOSITE = GroupoidPresentation(
    units=["u", "w"],
    morphisms=["a", "b", "u", "w", "x", "y"],
    rng={"a": "u", "b": "w", "x": "u", "y": "w"},
    src={"a": "w", "b": "u", "x": "w", "y": "u"},
    inv={"a": "y", "y": "a", "b": "x", "x": "b"},
    compose={("a", "y"): "u", ("y", "a"): "w", ("b", "x"): "w", ("x", "b"): "u", ("a", "b"): "a"},
)


@pytest.mark.parametrize(
    "pres, witness",
    [
        # g.h = v, but h.g = g
        (_one_unit({("g", "h"): "v", ("h", "g"): "g"}, {"g": "h", "h": "g"}),
         ("ginv_g_not_source", "g")),
        (_TWO_UNITS_BAD_COMPOSITE, ("compose_endpoints", "a", "b")),
        # a and b are mutually inverse, but a.a = a: (a.a).b = v, a.(a.b) = a
        (_one_unit({("a", "b"): "v", ("b", "a"): "v", ("a", "a"): "a", ("b", "b"): "b"},
                   {"a": "b", "b": "a"}),
         ("associativity", "a", "a", "b")),
    ],
    ids=["ginv-g-not-source", "compose-endpoints", "associativity"],
)
def test_axiom_failure_names_the_law_and_the_elements(pres, witness):
    """Each presentation passes every law checked before the one it breaks,
    so the witness names that law and its first failing elements."""
    _, rep = validate_groupoid(pres)
    assert not rep.passed
    assert rep.name == "groupoid_axioms"
    assert rep.witness == witness


def test_a_groupoid_and_its_table_category_agree():
    """pair_groupoid_2's tables, read as a TableCategory, give the same
    objects, window, endpoints and composites as the groupoid: table
    morphisms are their names, and a unit off the objects is refused alike."""
    gpd = pair_groupoid_2()
    names = gpd.names
    table = TableCategory(
        objects=gpd.units,
        morphisms=names,
        r_map={g: gpd.r(g) for g in names},
        s_map={g: gpd.s(g) for g in names},
        compose_table={
            (g, h): gpd.compose(g, h) for g in names for h in names if gpd.s(g) == gpd.r(h)
        },
    )
    assert table.objects() == gpd.objects() == ("u", "w")
    assert table.morphisms(1) == gpd.morphisms() == list(names)
    assert table.morphisms(0) == ["u", "w"]
    for g in names:
        assert (table.r(g), table.s(g)) == (gpd.r(g), gpd.s(g))
        assert table.is_identity(g) == gpd.is_identity(g)
        for h in names:
            assert table.compose(g, h) == gpd.compose(g, h)
    for v in gpd.units:
        assert table.identity(v) == gpd.identity(v) == v
    for cat in (table, gpd):
        with pytest.raises(UnknownUnitError):
            cat.identity("z")


def test_a_composable_pair_missing_from_a_groupoid_table_raises():
    """The groupoid's table is total on composable pairs: a missing one
    raises on compose and names the pair.  The same table as a
    TableCategory is partial there, and answers None."""
    pres = GroupoidPresentation(
        units=["u", "w"],
        morphisms=["u", "w", "m_uw", "m_wu"],
        rng={"m_uw": "u", "m_wu": "w"},
        src={"m_uw": "w", "m_wu": "u"},
        inv={"m_uw": "m_wu", "m_wu": "m_uw"},
        compose={("m_uw", "m_wu"): "u"},
    )
    gpd = FiniteGroupoid(pres)
    assert gpd.compose("m_uw", "m_wu") == "u"
    with pytest.raises(MalformedTableError, match=r"composable pair \(m_wu, m_uw\) missing from table"):
        gpd.compose("m_wu", "m_uw")
    table = TableCategory(pres.units, pres.morphisms, pres.rng, pres.src, pres.compose)
    assert table.compose("m_uw", "m_wu") == "u"
    assert table.compose("m_wu", "m_uw") is None
