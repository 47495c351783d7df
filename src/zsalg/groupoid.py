"""Finite discrete groupoids from composition tables.

A groupoid is presented by its unit set, morphism list with range/source,
an inverse involution and a composition table (total on composable pairs).
A finite groupoid is a categories.TableCategory with inverses: the table
category keeps the objects, endpoint maps and table lookup, and the
groupoid adds the inverse map, size 0 on every morphism and a compose that
refuses a composable pair missing from its table.
Validation checks every axiom exhaustively; the toolkit then exposes
isotropy groups, orbits, and an orbit transversal with connecting morphisms,
which is what the corner decomposition of the groupoid-only algebra consumes.

Amenability of isotropy groups is deliberately not decided here; callers may
assert it in their own configuration if they care.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .categories import TableCategory
from .errors import MalformedTableError, UnknownUnitError
from .report import Report, failing, passing


@dataclass
class GroupoidPresentation:
    units: list
    morphisms: list                    # names; units must be included
    rng: dict = field(default_factory=dict)    # name -> unit
    src: dict = field(default_factory=dict)
    inv: dict = field(default_factory=dict)    # name -> name
    compose: dict = field(default_factory=dict)  # (name, name) -> name, composable pairs


class FiniteGroupoid(TableCategory):
    """Validated finite groupoid: a TableCategory with inverses, whose
    objects are its units.  Morphisms are their names (strings)."""

    additive_sizes = True

    def __init__(self, pres: GroupoidPresentation):
        super().__init__(pres.units, pres.morphisms, pres.rng, pres.src, pres.compose, inverse=pres.inv)
        self.units = self._objects
        self._inv = self._maps["inverse"]

    def size(self, g):
        return 0

    def morphisms(self, bound=None):
        return list(self.names)

    def compose(self, g, h):
        out = super().compose(g, h)
        if out is None and self._s[g] == self._r[h]:
            raise MalformedTableError(f"composable pair ({g}, {h}) missing from table")
        return out

    def inverse(self, g):
        return self._inv[g]

    # -- structure maps

    def isotropy(self, x):
        """The group x G x as a sub-groupoid presentation on one unit."""
        if x not in self.units:
            raise UnknownUnitError(f"{x!r} is not a unit")
        elems = [g for g in self.names if self._r[g] == x and self._s[g] == x]
        pres = GroupoidPresentation(
            units=[x],
            morphisms=elems,
            rng={g: x for g in elems},
            src={g: x for g in elems},
            inv={g: self._inv[g] for g in elems},
            compose={
                (g, h): self._table[(g, h)]
                for g in elems
                for h in elems
                if (g, h) in self._table
            },
        )
        return FiniteGroupoid(pres)

    def orbits(self):
        """Partition of the units into G-orbits (sorted tuples)."""
        parent = {u: u for u in self.units}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for g in self.names:
            a, b = find(self._r[g]), find(self._s[g])
            if a != b:
                parent[max(a, b)] = min(a, b)
        groups = {}
        for u in self.units:
            groups.setdefault(find(u), []).append(u)
        return [tuple(sorted(v)) for _, v in sorted(groups.items())]

    def transversal(self):
        """Lexicographically least unit of each orbit, plus connectors.

        Returns (X, orbit_of, connector): ``orbit_of[u]`` is the chosen
        representative, and for u not in X, ``connector[u]`` is a morphism g
        with r(g) = u and s(g) in X.
        """
        orbit_of, connector = {}, {}
        reps = []
        for orbit in self.orbits():
            rep = orbit[0]
            reps.append(rep)
            for u in orbit:
                orbit_of[u] = rep
                if u != rep:
                    g = next(
                        g for g in self.names if self._r[g] == u and self._s[g] == rep
                    )
                    connector[u] = g
        return tuple(reps), orbit_of, connector


def validate_groupoid(pres: GroupoidPresentation):
    """Exhaustive axiom check; returns (FiniteGroupoid, Report)."""
    gpd = FiniteGroupoid(pres)
    for g in gpd.names:
        gi = gpd.inverse(g)
        if gpd.r(gi) != gpd.s(g) or gpd.s(gi) != gpd.r(g):
            return gpd, failing("groupoid_axioms", witness=("inverse_endpoints", g))
        if gpd.compose(g, gi) != gpd.r(g):
            return gpd, failing("groupoid_axioms", witness=("g_ginv_not_range", g))
        if gpd.compose(gi, g) != gpd.s(g):
            return gpd, failing("groupoid_axioms", witness=("ginv_g_not_source", g))
    for g in gpd.names:
        for h in gpd.names:
            if gpd.s(g) != gpd.r(h):
                continue
            gh = gpd.compose(g, h)
            if gpd.r(gh) != gpd.r(g) or gpd.s(gh) != gpd.s(h):
                return gpd, failing("groupoid_axioms", witness=("compose_endpoints", g, h))
            for k in gpd.names:
                if gpd.s(h) != gpd.r(k):
                    continue
                if gpd.compose(gh, k) != gpd.compose(g, gpd.compose(h, k)):
                    return gpd, failing("groupoid_axioms", witness=("associativity", g, h, k))
    return gpd, passing("groupoid_axioms", morphisms=len(gpd.names))


def check_transversal(gpd: FiniteGroupoid) -> Report:
    """|X intersect orbit| = 1 for every orbit, and connectors verified."""
    X, orbit_of, connector = gpd.transversal()
    for orbit in gpd.orbits():
        hits = [u for u in orbit if u in X]
        if len(hits) != 1:
            return failing("transversal", witness=(orbit, hits))
    for u in gpd.units:
        if u in X:
            continue
        g = connector[u]
        if gpd.r(g) != u or gpd.s(g) not in X:
            return failing("transversal", witness=("bad_connector", u, g))
    return passing("transversal", X=X)
