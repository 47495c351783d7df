"""Groupoid axioms, isotropy, transversals."""

import pytest

from zsalg.errors import UnknownUnitError
from zsalg.fixtures import (
    broken_pair_groupoid,
    pair_groupoid_2,
    two_orbit_groupoid,
    z2_groupoid,
)
from zsalg.groupoid import (
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
