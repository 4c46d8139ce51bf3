"""Digests of dualflow's diameter answers and cap errors, for comparing two
versions of the package record by record.

    python tools/answer_digests.py [--records FILE]

It imports the package from the ``src`` directory and the instance makers
from the ``tests`` directory next to it, so a copy of this file placed in
another checkout measures that checkout.  It builds three corpora, the same
on every run, and prints, for each corpus and for each kind of query in it,
the number of records, their SHA-256 and the count of each outcome (an
answer or an error type).  ``--records`` also writes every record, one a
line, as ``corpus, instance, query, caps`` and the outcome, separated by
tabs, so that two versions' records can be diffed.

* **C**: gk(1)-gk(10) diameters in both modes; on gk(1)-gk(4) the circuit
  cap sweeps below; gk(2) edge diameters at tree caps 0, 13, 14, 50, 51,
  2600 and 2601, its edge distance between the near and far vertices at
  tree caps 13, 14, 50 and 51, and its vertex set at tree caps 195, 196,
  2600 and 2601.  Each pair of caps is the last that raises and the first
  that answers, under the rule that counts spanning trees (51 per block,
  2601 in all) and under the one that counts vertices (14 per block, 196
  in all).
* **D**: the cut-vertex instances of ``tests/test_oracle.py``; 40 glues,
  from ``random.Random(25)``, of one random part three times around
  another, so that blocks share a record; and a negative 3-cycle glued to
  the example and to a random part.  Each has both diameters and the
  circuit cap sweeps; the 40 glues also have both diameters at tree caps
  1-16.
* **E**: bipartite m x n, 4 <= m <= n <= 7, cost seed 7: edge diameters
  with the tree cap lifted to the graph's spanning tree count; and the
  circuit diameters of 4 x 4 at cost seeds 7, 11 and 12.

A circuit cap sweep runs the circuit diameter at every depth cap from 0 to
its value + 1 (the state cap at its default); at every state cap from 0 to
the first that answers and two more (the depth cap at its default); and at
the four pairs of a depth cap in {value - 1, value} and a state cap in
{first - 1, first}.  An instance whose circuit diameter raises an error
at the default caps gets no sweep.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import dualflow as df  # noqa: E402
from conftest import random_sub_tournament  # noqa: E402
from test_oracle import cut_vertex_instances  # noqa: E402

NEGATIVE_CYCLE = (df.Digraph(3, ((0, 1), (1, 2), (2, 0))), df.cost_vector([1, 1, -3]))


def attempt(query) -> str:
    """The text of ``query()``, or its error's type and message."""
    try:
        return query()
    except df.DualflowError as error:
        return f"{type(error).__name__}: {error}"


def outcome(graph, costs, mode, **caps) -> str:
    """One diameter's value and pair, or its error's type and message."""

    def query():
        result = df.diameter(graph, costs, mode, **caps)
        return f"{result.value} " + " ".join(map(str, result.pair or [None]))

    return attempt(query)


def vertex_outcome(graph, costs, tree_cap) -> str:
    """The vertex count and a digest of the vertices with their witnesses."""

    def query():
        found = df.enumerate_vertices(graph, costs, tree_cap=tree_cap)
        return f"{len(found.vertices)} vertices " + digest(
            f"{vertex} {sorted(map(sorted, trees))}"
            for vertex, trees in zip(found.vertices, found.tree_witnesses)
        )

    return attempt(query)


def distance_outcome(graph, costs, source, target, tree_cap) -> str:
    """The edge distance and its walk's points."""

    def query():
        result = df.combinatorial_distance(graph, costs, source, target, tree_cap=tree_cap)
        return f"{result.length} " + " ".join(map(str, result.walk.points))

    return attempt(query)


def first_answering_state_cap(graph, costs) -> int:
    state_cap = 0
    while outcome(graph, costs, "circuit", state_cap=state_cap).startswith("FrontierTooLarge"):
        state_cap += 1
    return state_cap


def cap_sweeps(graph, costs, uncapped):
    """(kind, caps, outcome) of one instance's circuit cap sweeps, whose
    circuit diameter at the default caps is ``uncapped``."""
    for depth_cap in range(uncapped + 2):
        yield "depth", f"depth_cap={depth_cap}", outcome(
            graph, costs, "circuit", depth_cap=depth_cap
        )
    first = first_answering_state_cap(graph, costs)
    for state_cap in range(first + 3):
        yield "state", f"state_cap={state_cap}", outcome(
            graph, costs, "circuit", state_cap=state_cap
        )
    for depth_cap in (uncapped - 1, uncapped):
        for state_cap in (first - 1, first):
            if depth_cap >= 0 and state_cap >= 0:
                caps = dict(depth_cap=depth_cap, state_cap=state_cap)
                yield "corner", f"depth_cap={depth_cap} state_cap={state_cap}", outcome(
                    graph, costs, "circuit", **caps
                )


def answer_records(name, graph, costs):
    """(kind, instance, query, outcome) of both diameters at the default caps."""
    for mode in ("edge", "circuit"):
        yield "answer", name, f"{mode} default caps", outcome(graph, costs, mode)


def diameter_records(name, graph, costs, tree_caps=()):
    """(kind, instance, query, outcome) of one instance's diameters."""
    answers = list(answer_records(name, graph, costs))
    yield from answers
    circuit = answers[-1][-1]
    if circuit[0].isdigit():
        for kind, caps, result in cap_sweeps(graph, costs, int(circuit.split()[0])):
            yield kind, name, f"circuit {caps}", result
    for tree_cap in tree_caps:
        for mode in ("edge", "circuit"):
            yield "tree", name, f"{mode} tree_cap={tree_cap}", outcome(
                graph, costs, mode, tree_cap=tree_cap
            )


def corpus_c():
    for k in range(1, 11):
        graph, costs = df.family_gk(k)
        records = diameter_records if k <= 4 else answer_records
        yield from records(f"gk{k}", graph, costs)
    graph, costs = df.family_gk(2)
    for tree_cap in (0, 13, 14, 50, 51, 2600, 2601):
        yield "tree", "gk2", f"edge tree_cap={tree_cap}", outcome(
            graph, costs, "edge", tree_cap=tree_cap
        )
    near, far = (df.Point.of(0, *coords * 2) for coords in ((0, 0, 0), ("2/3", "4/3", 2)))
    for tree_cap in (13, 14, 50, 51):
        yield "tree", "gk2", f"edge distance tree_cap={tree_cap}", distance_outcome(
            graph, costs, near, far, tree_cap
        )
    for tree_cap in (195, 196, 2600, 2601):
        yield "tree", "gk2", f"vertices tree_cap={tree_cap}", vertex_outcome(
            graph, costs, tree_cap
        )


def repeated_glues():
    """40 glues of one random part three times around another: the three
    copies are identical blocks, which share one record."""
    rng = random.Random(25)
    made = []
    while len(made) < 40:
        integer = len(made) % 4 == 0
        repeated, other = (
            random_sub_tournament(rng, rng.randint(3, 4), skip=0.0, integer_costs=integer)
            for _ in range(2)
        )
        at, other_at = rng.randrange(repeated[0].node_count), rng.randrange(other[0].node_count)
        graph, costs, _ = df.glue(
            [(*repeated, at), (*other, other_at), (*repeated, at), (*repeated, at)]
        )
        if df.feasibility_status(graph, costs).feasible:
            made.append((graph, costs))
    return made


def corpus_d():
    for index, (graph, costs) in enumerate(cut_vertex_instances()):
        yield from diameter_records(f"cut{index}", graph, costs)
    for index, (graph, costs) in enumerate(repeated_glues()):
        yield from diameter_records(f"glue{index}", graph, costs, range(1, 17))
    part = random_sub_tournament(random.Random(26), 4, skip=0.0)
    for name, (graph, costs) in (("example", df.example_graph()), ("part", part)):
        glued, glued_costs, _ = df.glue([(graph, costs, 0), (*NEGATIVE_CYCLE, 0)])
        yield from diameter_records(f"negative-cycle-{name}", glued, glued_costs)


def corpus_e():
    for m in range(4, 8):
        for n in range(m, 8):
            graph, costs = df.complete_bipartite(m, n, df.random_bipartite_costs(m, n, 7))
            tree_cap = df.count_spanning_trees(graph)
            yield "edge", f"bipartite{m}x{n}", f"edge tree_cap={tree_cap}", outcome(
                graph, costs, "edge", tree_cap=tree_cap
            )
    for seed in (7, 11, 12):
        graph, costs = df.complete_bipartite(4, 4, df.random_bipartite_costs(4, 4, seed))
        yield "circuit", f"bipartite4x4-seed{seed}", "circuit default caps", outcome(
            graph, costs, "circuit"
        )


def digest(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=Path, help="also write every record to this file")
    args = parser.parse_args(argv)
    everything = []
    for corpus, records in (("C", corpus_c()), ("D", corpus_d()), ("E", corpus_e())):
        by_kind: dict = {}
        for kind, name, query, result in records:
            by_kind.setdefault(kind, []).append((f"{corpus}\t{name}\t{query}\t{result}", result))
        lines = [line for kind in by_kind.values() for line, _ in kind]
        everything += lines
        print(f"corpus {corpus}: {len(lines)} records, sha256 {digest(lines)}")
        for kind, entries in by_kind.items():
            outcomes = Counter(
                result.split(":")[0] if ":" in result else "answer" for _, result in entries
            )
            counts = ", ".join(f"{n} {name}" for name, n in sorted(outcomes.items()))
            print(f"  {kind}: {len(entries)} records, sha256 {digest(line for line, _ in entries)}"
                  f" ({counts})")
    if args.records:
        args.records.write_text("".join(line + "\n" for line in everything))


if __name__ == "__main__":
    main()
