"""Built-in fixtures used by the test suite, the CLI and the docs.

Everything here is a small, fully checked object: one-vertex graphs with one
or two edges per color, the flip action of Z/2 on the free monoid, the pair
groupoid, and the monoid product of N with the free monoid on two letters
whose inclusion famously fails concordance.  The random k-graph generator at
the bottom produces validated presentations for the oracle-agreement sweeps.
"""

from __future__ import annotations

import random

from .errors import MalformedSquaresError, MalformedTableError, ZsalgError
from .groupoid import FiniteGroupoid, GroupoidPresentation, validate_groupoid
from .kgraph import Edge, KGraph, KGraphPresentation, validate_kgraph
from .selfsim import (
    ActionTable,
    FreeMonoidCategory,
    MatchedPair,
    ZSCategory,
)


# ---------------------------------------------------------------------------
# workspace documents: the fixtures the command line names with --fixture,
# in the workspace JSON schema of zsalg.cli.  The Python fixtures below of
# the same names are parsed from these documents, so each is defined once.
# The documents are shared: parse them, never mutate them.

_E2_KGRAPH = {
    "k": 1,
    "vertices": ["v"],
    "edges": [
        {"id": "a", "color": 1, "src": "v", "dst": "v"},
        {"id": "b", "color": 1, "src": "v", "dst": "v"},
    ],
    "squares": [],
}
_Z2_GROUPOID = {
    "units": ["v"],
    "morphisms": [
        {"id": "v", "src": "v", "dst": "v", "inv": "v"},
        {"id": "g", "src": "v", "dst": "v", "inv": "g"},
    ],
    "compose": [["g", "g", "v"]],
}

FIXTURE_DOCS = {
    # one-vertex 2-graph; edges e (color 1), f (color 2); square ef = fe
    "k1": {
        "kgraph": {
            "k": 2,
            "vertices": ["v"],
            "edges": [
                {"id": "e", "color": 1, "src": "v", "dst": "v"},
                {"id": "f", "color": 2, "src": "v", "dst": "v"},
            ],
            "squares": [{"ef": ["e", "f"], "fe": ["f", "e"]}],
        },
        "homotopy": {"generator": {"rotation": [[0, 0], ["1/4", 0]]}, "grid": 11},
        "bounds": {"degree": [2, 2]},
    },
    # one-vertex 1-graph on edges a, b: paths are the free monoid on {a, b}
    "e2": {"kgraph": _E2_KGRAPH, "bounds": {"degree": [3]}},
    # Z/2 flipping the two edges of e2, restricting to g
    "swap": {
        "kgraph": _E2_KGRAPH,
        "groupoid": _Z2_GROUPOID,
        "action": {
            "left": [
                {"g": "g", "edge": "a", "out": "b"},
                {"g": "g", "edge": "b", "out": "a"},
            ],
            "right": [
                {"g": "g", "edge": "a", "out": "g"},
                {"g": "g", "edge": "b", "out": "g"},
            ],
        },
        "bounds": {"degree": [3]},
    },
    # the flip on a one-vertex 2-graph: colors {a, b | z}, squares az = za,
    # bz = zb, with g fixing z and restricting to g everywhere
    "swap2": {
        "kgraph": {
            "k": 2,
            "vertices": ["v"],
            "edges": [
                {"id": "a", "color": 1, "src": "v", "dst": "v"},
                {"id": "b", "color": 1, "src": "v", "dst": "v"},
                {"id": "z", "color": 2, "src": "v", "dst": "v"},
            ],
            "squares": [
                {"ef": ["a", "z"], "fe": ["z", "a"]},
                {"ef": ["b", "z"], "fe": ["z", "b"]},
            ],
        },
        "groupoid": _Z2_GROUPOID,
        "action": {
            "left": [
                {"g": "g", "edge": "a", "out": "b"},
                {"g": "g", "edge": "b", "out": "a"},
                {"g": "g", "edge": "z", "out": "z"},
            ],
            "right": [
                {"g": "g", "edge": "a", "out": "g"},
                {"g": "g", "edge": "b", "out": "g"},
                {"g": "g", "edge": "z", "out": "g"},
            ],
        },
        "bounds": {"degree": [2, 2]},
    },
}


def json_int(x, field):
    """A workspace integer field, taken as given: a float is not truncated,
    and a bool is not an integer."""
    if type(x) is not int:
        raise ZsalgError(f"malformed workspace section: {field} must be an integer, not {x!r}")
    return x


def _array(x, where):
    """A workspace array: a string is not read as its characters."""
    if type(x) is not list:
        raise MalformedSquaresError(f"{where}: not a JSON array: {x!r}")
    return x


def _name(x, where):
    """A vertex or edge name, which is a JSON string."""
    if type(x) is not str:
        raise MalformedSquaresError(f"{where}: a name is a JSON string, not {x!r}")
    return x


def parse_kgraph(section) -> KGraphPresentation:
    """A workspace "kgraph" section; edges run from src to dst (the range).
    An array, name or square side of the wrong shape raises
    MalformedSquaresError naming the entry."""
    edges = []
    for n, e in enumerate(_array(section.get("edges", []), "kgraph.edges")):
        where = f"kgraph.edges[{n}]"
        name, color = _name(e["id"], f"{where}.id"), json_int(e["color"], "color")
        edges.append(Edge(name, color, _name(e["dst"], f"{where}.dst"), _name(e["src"], f"{where}.src")))
    squares = []
    for n, sq in enumerate(_array(section.get("squares", []), "kgraph.squares")):
        sides = []
        for side in ("ef", "fe"):
            where = f"kgraph.squares[{n}].{side}"
            if type(sq[side]) is not list or len(sq[side]) != 2:
                raise MalformedSquaresError(f"{where}: a square side is two edges, not {sq[side]!r}")
            sides.append(tuple(_name(x, f"{where}[{i}]") for i, x in enumerate(sq[side])))
        squares.append(tuple(sides))
    k = json_int(section["k"], "k")
    vertices = _array(section["vertices"], "kgraph.vertices")
    vertices = [_name(v, f"kgraph.vertices[{n}]") for n, v in enumerate(vertices)]
    return KGraphPresentation(k, vertices, edges, squares)


def parse_groupoid(section) -> GroupoidPresentation:
    """A workspace "groupoid" section."""
    return GroupoidPresentation(
        units=list(section["units"]),
        morphisms=[m["id"] for m in section["morphisms"]],
        rng={m["id"]: m["dst"] for m in section["morphisms"]},
        src={m["id"]: m["src"] for m in section["morphisms"]},
        inv={m["id"]: m["inv"] for m in section["morphisms"]},
        compose={(a, b): c for a, b, c in section.get("compose", [])},
    )


def parse_action(section, groupoid: FiniteGroupoid, graph: KGraph) -> ActionTable:
    """A workspace "action" section: generator tables on (g, edge) keys.
    Each entry's g and right out name groupoid elements, and its edge and
    left out name graph edges; an entry that does not raises
    MalformedTableError naming the side, the entry's index and the name."""
    known = {"groupoid element": set(groupoid.names), "edge": graph.edge}

    def entries(side, out_kind):
        for n, e in enumerate(section.get(side, [])):
            names = ("groupoid element", e["g"]), ("edge", e["edge"]), (out_kind, e["out"])
            for kind, name in names:
                if name not in known[kind]:
                    raise MalformedTableError(f"action.{side}[{n}]: no {kind} {name!r}")
            yield (e["g"], e["edge"]), e["out"]

    left = {key: graph.nf((out,)) for key, out in entries("left", "edge")}
    return ActionTable(left, dict(entries("right", "groupoid element")))


def _checked(obj, report):
    """obj, when its validation report passed.  A builtin fixture that fails
    its own validation is an internal bug, not malformed input."""
    if not report.passed:
        raise RuntimeError(f"builtin fixture fails validation: {report}")
    return obj


def _doc_kgraph(name, bound):
    return _checked(*validate_kgraph(parse_kgraph(FIXTURE_DOCS[name]["kgraph"]), bound))


def _doc_groupoid(name):
    return _checked(*validate_groupoid(parse_groupoid(FIXTURE_DOCS[name]["groupoid"])))


def _doc_pair(name, bound):
    graph, groupoid = _doc_kgraph(name, bound), _doc_groupoid(name)
    table = parse_action(FIXTURE_DOCS[name]["action"], groupoid, graph)
    return MatchedPair(groupoid, graph, table)


def kgraph_k1(bound=(3, 3)):
    """One-vertex 2-graph; edges e (color 1), f (color 2); square ef = fe."""
    return _doc_kgraph("k1", bound)


def kgraph_e2(bound=(4,)):
    """One-vertex 1-graph on edges a, b: paths are the free monoid on {a, b}."""
    return _doc_kgraph("e2", bound)


def kgraph_single_loop():
    """One vertex, one loop: the path category is N, validated up to 6."""
    pres = KGraphPresentation(1, ["*"], [Edge("1", 1, "*", "*")], [])
    return _checked(*validate_kgraph(pres, (6,)))


def kgraph_source_1graph(bound=(3,)):
    """1-graph v <- w with nothing out of w: a source in color 1."""
    pres = KGraphPresentation(1, ["v", "w"], [Edge("e", 1, "v", "w")], [])
    return _checked(*validate_kgraph(pres, bound))


def kgraph_convex_with_source(bound=(2, 2)):
    """Locally convex 2-graph with a source: product of (v <- w) and a loop."""
    verts = ["v", "w"]
    edges = [
        Edge("e", 1, "v", "w"),
        Edge("fv", 2, "v", "v"),
        Edge("fw", 2, "w", "w"),
    ]
    squares = [(("e", "fw"), ("fv", "e"))]
    return _checked(*validate_kgraph(KGraphPresentation(2, verts, edges, squares), bound))


def kgraph_not_locally_convex(bound=(1, 1)):
    """Valid 2-graph that is not locally convex: color-2 at r(e) but not s(e)."""
    pres = KGraphPresentation(
        2,
        ["p", "q", "x"],
        [Edge("e", 1, "p", "q"), Edge("f", 2, "p", "x")],
        [],
    )
    return _checked(*validate_kgraph(pres, bound))


def z2_groupoid():
    """Z/2 = {v, g} as a one-object groupoid (the swap fixtures' groupoid)."""
    return _doc_groupoid("swap")


def trivial_groupoid(units):
    pres = GroupoidPresentation(units=list(units), morphisms=list(units))
    return _checked(*validate_groupoid(pres))


def pair_groupoid_2():
    """Pair groupoid on units {u, w}: morphisms u, w, (u,w), (w,u)."""
    uw, wu = "m_uw", "m_wu"
    pres = GroupoidPresentation(
        units=["u", "w"],
        morphisms=["u", "w", uw, wu],
        rng={uw: "u", wu: "w"},
        src={uw: "w", wu: "u"},
        inv={uw: wu, wu: uw},
        compose={(uw, wu): "u", (wu, uw): "w"},
    )
    return _checked(*validate_groupoid(pres))


def broken_pair_groupoid():
    """Pair groupoid with the inverse of (u,w) deliberately set to itself."""
    uw, wu = "m_uw", "m_wu"
    return GroupoidPresentation(
        units=["u", "w"],
        morphisms=["u", "w", uw, wu],
        rng={uw: "u", wu: "w"},
        src={uw: "w", wu: "u"},
        inv={uw: uw, wu: wu},
        compose={(uw, wu): "u", (wu, uw): "w"},
    )


def two_orbit_groupoid():
    """Disjoint union of the pair groupoid on {u, w} and Z/2 at unit z."""
    uw, wu = "m_uw", "m_wu"
    pres = GroupoidPresentation(
        units=["u", "w", "z"],
        morphisms=["u", "w", "z", uw, wu, "g"],
        rng={uw: "u", wu: "w", "g": "z"},
        src={uw: "w", wu: "u", "g": "z"},
        inv={uw: wu, wu: uw, "g": "g"},
        compose={(uw, wu): "u", (wu, uw): "w", ("g", "g"): "z"},
    )
    return _checked(*validate_groupoid(pres))


def swap_pair():
    """Z/2 flipping the two edges of the one-vertex 1-graph; restriction g."""
    return _doc_pair("swap", (4,))


def badswap_pair():
    """Same flip but the restriction tables break the interchange identity."""
    pair = swap_pair()
    pair.table.right[("g", "a")] = "v"
    return pair


def swap2_pair():
    """Flip action on a one-vertex 2-graph: colors {a,b | z}, squares az = za,
    bz = zb, with g fixing z and restricting to g everywhere."""
    return _doc_pair("swap2", (3, 3))


def trivial_pair(graph: KGraph):
    """The trivial (vertex groupoid) action on a validated k-graph."""
    gpd = trivial_groupoid(graph.vertices)
    return MatchedPair(gpd, graph, ActionTable())


def klein_four_groupoid(unit="v"):
    """Z/2 x Z/2 at one object: elements p, q, pq."""
    pres = GroupoidPresentation(
        units=[unit],
        morphisms=[unit, "p", "q", "pq"],
        rng={"p": unit, "q": unit, "pq": unit},
        src={"p": unit, "q": unit, "pq": unit},
        inv={"p": "p", "q": "q", "pq": "pq"},
        compose={
            ("p", "p"): unit,
            ("q", "q"): unit,
            ("pq", "pq"): unit,
            ("p", "q"): "pq",
            ("q", "p"): "pq",
            ("p", "pq"): "q",
            ("pq", "p"): "q",
            ("q", "pq"): "p",
            ("pq", "q"): "p",
        },
    )
    return _checked(*validate_groupoid(pres))


def klein_unfaithful_pair():
    """Klein four-group on the two-edge loop graph with p and q acting and
    restricting identically: a valid self-similar action whose isotropy is
    never separated by any path (two colliding pairs at every length)."""
    graph = kgraph_e2((3,))
    gpd = klein_four_groupoid("v")
    a, b = graph.nf(("a",)), graph.nf(("b",))
    table = ActionTable(
        left={
            ("p", "a"): b, ("p", "b"): a,
            ("q", "a"): b, ("q", "b"): a,
            ("pq", "a"): a, ("pq", "b"): b,
        },
        right={
            ("p", "a"): "p", ("p", "b"): "p",
            ("q", "a"): "p", ("q", "b"): "p",
            ("pq", "a"): "v", ("pq", "b"): "v",
        },
    )
    return MatchedPair(gpd, graph, table)


def x_monoid():
    """The monoid product of N with the free monoid on {a, b}.

    The free monoid acts trivially on N; a positive number collapses any
    word w to a^{|w|} on restriction (and 0 fixes it).  Realized through the
    generator tables (w <| 1 = a for both letters); the closed form
    w <| n = a^{|w|} for n >= 1 is the independent oracle in the tests.
    Its acting factor is not a groupoid, so its gauge is the total size.
    """
    loops = kgraph_single_loop()
    free = FreeMonoidCategory(["a", "b"])
    one = loops.nf(("1",))
    table = ActionTable(
        left={("a", "1"): one, ("b", "1"): one},
        right={("a", "1"): "a", ("b", "1"): "a"},
    )
    pair = MatchedPair(free, loops, table)
    return ZSCategory(pair)


def x_elem(cat: ZSCategory, n: int, w: str):
    """The product element n.w of the counterexample monoid."""
    path = cat.D.nf(("1",) * n, rng="*") if n else cat.D.identity("*")
    return cat.intern(path, w)


# ---------------------------------------------------------------------------
# random validated k-graphs


def random_kgraph(seed):
    """A random validated k-graph presentation.

    Rank 1 to 3, 1 to 4 vertices and 1 to 3 edges per color, validated up to
    degree 3 per color.  Squares are sampled as random endpoint-respecting
    bijections; for k >= 3 the sample is retried until the color-descending
    triples resolve confluently, falling back to product-style (identity
    pairing) squares when the retry budget runs out, so that the generator
    always returns a validated graph.
    """
    rng = random.Random(seed)
    for attempt in range(60):
        k = rng.randint(1, 3)
        flip_fallback = k >= 3 and attempt >= 30
        nv = 1 if flip_fallback else rng.randint(1, 4)
        verts = [f"v{i}" for i in range(nv)]
        edges = []
        for color in range(1, k + 1):
            ne = rng.randint(1, 3)
            for j in range(ne):
                r_v, s_v = rng.choice(verts), rng.choice(verts)
                edges.append(Edge(f"c{color}x{j}", color, r_v, s_v))
        pres = _with_random_squares(rng, k, verts, edges, flip=flip_fallback)
        if pres is None:
            continue
        try:
            graph, rep = validate_kgraph(pres, (3,) * k)
        except MalformedSquaresError:
            continue
        if rep.passed:
            return graph
    raise RuntimeError(f"random_kgraph(seed={seed}) exhausted retries")


def _with_random_squares(rng, k, verts, edges, flip=False):
    by_color = {}
    for e in edges:
        by_color.setdefault(e.color, []).append(e)
    squares = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            # group composable pairs by (range, source); a bijection must
            # match these fibers, else there is no valid square table.
            asc, desc = {}, {}
            for e in by_color.get(i, ()):
                for f in by_color.get(j, ()):
                    if e.src == f.rng:
                        asc.setdefault((e.rng, f.src), []).append((e.name, f.name))
            for f in by_color.get(j, ()):
                for e in by_color.get(i, ()):
                    if f.src == e.rng:
                        desc.setdefault((f.rng, e.src), []).append((f.name, e.name))
            if set(asc) != set(desc):
                return None
            for key in sorted(asc):
                a, d = sorted(asc[key]), sorted(desc[key])
                if len(a) != len(d):
                    return None
                if flip:
                    # one-vertex product pairing ef = fe: always confluent
                    d = [(f, e) for e, f in a]
                else:
                    rng.shuffle(d)
                squares.extend(zip(a, d))
    return KGraphPresentation(k, verts, edges, squares)
