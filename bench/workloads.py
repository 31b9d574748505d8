"""Seeded request generators and independent answer checks.

Each workload turns a seed into an endless, deterministic stream of
requests. A request is the argv of one `eqcohom` CLI call, the input files
it reads, the answer the generator built the input to have, and the size
tags of the latency sweep. Nothing here imports eqcohom: expected answers
come from the construction, not from the library under test.

Sizes follow a Kronecker (golden-ratio) sequence instead of independent
draws, so every prefix of the stream covers the size range evenly. The
sequence is the same for every seed; the seed draws the content (shifts,
random graphs, voltages, coefficients, verify seeds). A time-bounded run
therefore sees the same size mix whatever its length or seed, which keeps
throughput and the tail latency steady across seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN = (math.sqrt(5) - 1) / 2
VERIFY_COUNT = 10
WORKLOADS = ("verify", "graph", "periodic")
# A run's pool of distinct requests has a fixed size, not one derived from
# the measured speed, so a faster eqcohom does not make the benchmark hold
# more requests (which peak_rss_mb would count). On a shared 2-core x86-64
# host with Python 3.11.7, 35-second runs completed verify 180-283, graph
# 89-173 and periodic 142-157 requests. Each pool is about twice the most, so
# the loop cycles through it only once eqcohom is much faster. The stdout
# digest covers a pool prefix below the fewest; the loop always runs at
# least that many requests, however long they take.
POOL_SIZE = {"verify": 512, "graph": 320, "periodic": 384}
DIGEST_REQUESTS = {"verify": 160, "graph": 80, "periodic": 112}
TINY_POOL_SIZE = 8  # pool and digest prefix of the self-tests' tiny runs
GRAPH_FAMILIES = ("cycle-ordered", "cycle", "prism", "double")


@dataclass
class Request:
    index: int
    argv: list[str]
    expected: dict
    tags: dict = field(default_factory=dict)
    # name -> JSON payload; None names an output path the CLI may write
    files: dict[str, object] = field(default_factory=dict)


def _spread(lo: int, hi: int):
    """Endless low-discrepancy sequence of integers in [lo, hi]."""
    j = 0
    while True:
        yield lo + int(((j * GOLDEN) % 1.0) * (hi - lo + 1))
        j += 1


def generate(workload: str, seed: int, tiny: bool = False):
    """Endless request stream of one workload; the same seed gives the same
    stream. `tiny` shrinks every size for the benchmark's self-tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    return {"verify": _verify, "graph": _graph, "periodic": _periodic}[workload](
        random.Random(f"{workload}:{seed}"), tiny
    )


def materialize(req: Request, workdir: Path) -> Request:
    """Write the request's input files, substitute their paths in argv and
    drop the payloads, so memory does not grow with the number of requests."""
    paths = {}
    for name, payload in req.files.items():
        path = workdir / f"r{req.index}-{name}"
        if payload is not None:
            path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        paths[name] = str(path)
    req.argv = [paths.get(a, a) for a in req.argv]
    req.files = {}
    return req


# ---------------------------------------------------------------- verify


def _verify(rng: random.Random, tiny: bool):
    count = 2 if tiny else VERIFY_COUNT
    index = 0
    while True:
        s = rng.randrange(10**9)
        yield Request(
            index,
            ["verify", "--seed", str(s), "--count", str(count),
             "--reproducer", "reproducer.json"],
            {"count": count},
            {"count": count},
            {"reproducer.json": None},
        )
        index += 1


# ----------------------------------------------------------------- graph


def _components(n: int, edges) -> int:
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for _, o, t in edges:
        parent[find(o)] = find(t)
    return len({find(v) for v in range(n)})


def _graph_json(n: int, edges) -> dict:
    return {"vertices": n, "edges": [{"id": i, "o": o, "t": t} for i, o, t in edges]}


def _cycle(rng: random.Random, n: int, ordered: bool):
    edges = [(i, i, (i + 1) % n) for i in range(n)]
    # A shift coprime to n generates all n rotations, so the cost of the
    # request depends on n alone.
    shift = rng.choice([s for s in range(1, n) if math.gcd(n, s) == 1])
    action = {"generators": [[(v + shift) % n for v in range(n)]]}
    if ordered:
        action["orders"] = {"0": n}
    return n, edges, action, n


def _prism(rng: random.Random, n: int):
    """C_n x K_2: outer cycle 0..n-1, inner cycle n..2n-1, spokes; rotation
    and layer swap generate Z_n x Z_2."""
    edges = []
    for i in range(n):
        edges.append((len(edges), i, (i + 1) % n))
        edges.append((len(edges), n + i, n + (i + 1) % n))
        edges.append((len(edges), i, n + i))
    rot = [(v + 1) % n if v < n else n + (v - n + 1) % n for v in range(2 * n)]
    swap = [v + n if v < n else v - n for v in range(2 * n)]
    if rng.random() < 0.5:
        rot, swap = swap, rot
    return 2 * n, edges, {"generators": [rot, swap]}, 2 * n


def _double(rng: random.Random, n: int):
    """Two disjoint copies of one random simple graph, swapped."""
    target = min(n * (n - 1) // 2, 3 * n // 2)
    pairs = set()
    while len(pairs) < target:
        o, t = rng.sample(range(n), 2)
        if (t, o) not in pairs:
            pairs.add((o, t))
    base = sorted(pairs)
    edges = [(i, o, t) for i, (o, t) in enumerate(base)]
    edges += [(len(base) + i, o + n, t + n) for i, (o, t) in enumerate(base)]
    swap = [v + n if v < n else v - n for v in range(2 * n)]
    return 2 * n, edges, {"generators": [swap], "orders": {"0": 2}}, 2


def _graph(rng: random.Random, tiny: bool):
    ranges = {
        "cycle-ordered": (8, 20),
        "cycle": (8, 24),
        "prism": (4, 10),
        "double": (4, 10),
    }
    sizes = {
        f: _spread(lo, lo + 2 if tiny else hi) for f, (lo, hi) in ranges.items()
    }
    index = 0
    while True:
        family = GRAPH_FAMILIES[index % len(GRAPH_FAMILIES)]
        n = next(sizes[family])
        if family == "prism":
            nv, edges, action, order = _prism(rng, n)
        elif family == "double":
            nv, edges, action, order = _double(rng, n)
        else:
            nv, edges, action, order = _cycle(rng, n, family == "cycle-ordered")
        yield Request(
            index,
            ["graph", "g.json", "a.json"],
            {"group_order": order, "components": _components(nv, edges)},
            {"family": family, "n": n},
            {"g.json": _graph_json(nv, edges), "a.json": action},
        )
        index += 1


# -------------------------------------------------------------- periodic


def _periodic(rng: random.Random, tiny: bool):
    # d alternates, and each d has its own size sequence, so size does not
    # correlate with d. Every quotient is connected: multi-component inputs
    # whose `a` differs between components fail today with `not-closed`
    # (ROADMAP item 2), and a workload must have no failing request.
    sizes = {d: _spread(10, 12 if tiny else 40) for d in (2, 3)}
    cells = [-1, 0, 1]
    index = 0
    while True:
        d = 2 + index % 2
        n = next(sizes[d])
        radius = 2 if d == 2 else 1
        # A random spanning tree, extra edges up to about two per vertex, and
        # d loops carrying the unit voltages so the period lattice is Z^d.
        order = list(range(n))
        rng.shuffle(order)
        pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
        for _ in range(max(0, 2 * n - d - len(pairs))):
            pairs.append(tuple(rng.sample(range(n), 2)))
        raw_edges: list[tuple[int, int]] = []
        volt: list[list[int]] = []
        for o, t in pairs:
            if rng.random() < 0.5:
                o, t = t, o
            volt.append([rng.choice(cells) for _ in range(d)])
            raw_edges.append((o, t))
        for j in range(d):
            v = rng.randrange(n)
            volt.append([int(i == j) for i in range(d)])
            raw_edges.append((v, v))
        perm = list(range(len(raw_edges)))
        rng.shuffle(perm)
        edges = [(perm[i], o, t) for i, (o, t) in enumerate(raw_edges)]
        voltages = {perm[i]: v for i, v in enumerate(volt)}
        a = [rng.randint(-3, 3) for _ in range(d)]
        f = [rng.randint(-5, 5) for _ in range(n)]
        f = [x - f[0] for x in f]  # eqcohom normalises f to 0 at vertex 0
        # w(e) = f(te) - f(oe) + sum_j a_j t(e)_j
        w = {
            str(eid): str(f[t] - f[o] + sum(a[j] * voltages[eid][j] for j in range(d)))
            for eid, o, t in edges
        }
        pg = _graph_json(n, sorted(edges))
        pg["d"] = d
        pg["voltages"] = {str(e): voltages[e] for e in sorted(voltages)}
        yield Request(
            index,
            ["periodic", "pg.json", "w.json", "--radius", str(radius)],
            {"a": [[str(x)] for x in a], "f": [str(x) for x in f], "components": 1},
            {"n": n, "d": d},
            {"pg.json": pg, "w.json": w},
        )
        index += 1


# ---------------------------------------------------------------- checks


def check(workload: str, req: Request, code: int, out: str, err: str):
    """Failure class of one answer, or None when it is right.

    Classes: `exit<code>[:<precondition code>]`, `bad-json` and
    `wrong:<field>`.
    """
    if code != 0:
        cls = f"exit{code}"
        if code == 3 and "(" in err:
            cls += ":" + err.split("(", 1)[1].split(")", 1)[0]
        return cls
    try:
        rep = json.loads(out)
    except ValueError:
        return "bad-json"
    if workload == "verify":
        if rep.get("ok") is not True:
            return "wrong:ok"
        if rep.get("checked") != req.expected["count"]:
            return "wrong:checked"
    elif workload == "graph":
        if rep.get("quotient_dim") != 0:
            return "wrong:quotient_dim"
        for key in ("group_order", "components"):
            if rep.get(key) != req.expected[key]:
                return f"wrong:{key}"
    else:
        if rep.get("components") != req.expected["components"]:
            return "wrong:components"
        dec = rep.get("decomposition") or {}
        for key in ("a", "f"):
            if dec.get(key) != req.expected[key]:
                return f"wrong:{key}"
        if (rep.get("truncation") or {}).get("ok") is not True:
            return "wrong:truncation"
    return None
