"""Seeded input streams for the three workloads.

Everything here is plain Python and never imports crnkit, so a change to the
program (or to its tests) cannot change the traffic.  Each stream is an
infinite iterator of JSON-serializable dicts; equal seeds give equal streams.
Networks are handed to the program as text in the crnkit file format.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Sequence, Tuple

Complex = Tuple[int, ...]
Reaction = Tuple[Complex, Complex]

WORKLOADS = ("certify", "replicas", "cli")

#: Coordinate labels of the pattern scan; the tiers CLI jobs draw from them.
SCAN_LABELS = ("0", "2", "n", "n^2", "n^3")
_LABEL_DEGREE = {"0": 0, "2": 0, "n": 1, "n^2": 2, "n^3": 3}


# ---------------------------------------------------------------- networks


def format_complex(c: Complex, species: Sequence[str]) -> str:
    terms = []
    for name, k in zip(species, c):
        if k == 1:
            terms.append(name)
        elif k > 1:
            terms.append(f"{k}{name}")
    return " + ".join(terms) if terms else "0"


def network_text(species: Sequence[str], reactions, rates) -> str:
    lines = ["species: " + ", ".join(species)]
    for (src, prd), k in zip(reactions, rates):
        lines.append(
            f"{format_complex(src, species)} -> {format_complex(prd, species)} ; k={k!r}"
        )
    return "\n".join(lines) + "\n"


def theorem_network(rng: random.Random, d: int) -> Tuple[Tuple[str, ...], List[Reaction]]:
    """The acceptance-corpus recipe with the species count given: a weakly
    reversible single-linkage-class binary network over ``d`` species that
    contains S or 2S for every species S, built as a directed cycle through a
    random complex selection plus random chords."""
    species = tuple("ABCD"[:d])

    def unit(*idx) -> Complex:
        v = [0] * d
        for i in idx:
            v[i] += 1
        return tuple(v)

    singles = [unit(i) for i in range(d)]
    doubles = [unit(i, i) for i in range(d)]
    pool = [unit()] + singles + doubles
    pool += [unit(i, j) for i in range(d) for j in range(i + 1, d)]
    chosen: List[Complex] = []
    for i in range(d):
        witness = rng.choice([singles[i], doubles[i]])
        if witness not in chosen:
            chosen.append(witness)
    extras = [c for c in pool if c not in chosen]
    rng.shuffle(extras)
    for c in extras[: rng.randint(0, min(3, len(extras)))]:
        chosen.append(c)
    if len(chosen) < 2:
        chosen.append(next(c for c in pool if c not in chosen))
    rng.shuffle(chosen)
    m = len(chosen)
    reactions = [(chosen[k], chosen[(k + 1) % m]) for k in range(m)]
    for _ in range(rng.randint(0, m)):
        a, b = rng.randrange(m), rng.randrange(m)
        if a == b:
            continue
        if (chosen[a], chosen[b]) not in reactions:
            reactions.append((chosen[a], chosen[b]))
    return species, reactions


def random_rates(rng: random.Random, n: int) -> List[float]:
    return [rng.choice((0.5, 1.0, 2.0)) for _ in range(n)]


def ring_text(d: int) -> str:
    """Binary ring X1 -> X1+X2 -> X2 -> X2+X3 -> ... -> Xd+X1 -> X1: weakly
    reversible, one linkage class, every species alone as a complex, so the
    pattern scan must come back clean over all 5**d labelings."""
    species = tuple(f"X{i + 1}" for i in range(d))
    cycle: List[Complex] = []
    for i in range(d):
        for idx in ((i,), (i, (i + 1) % d)):
            v = [0] * d
            for j in idx:
                v[j] += 1
            cycle.append(tuple(v))
    reactions = [(cycle[k], cycle[(k + 1) % len(cycle)]) for k in range(len(cycle))]
    return network_text(species, reactions, [1.0] * len(reactions))


#: A + B <-> 0: the scan must report a tier-inclusion violation at the empty
#: complex (no species appears alone or doubled).
TRAP_TEXT = "species: A, B\nA + B -> 0 ; k=1.0\n0 -> A + B ; k=1.0\n"


# ---------------------------------------------------------------- certify


#: Witness patterns per corpus network; networks with fewer labelings get
#: all of them.
WITNESS_PATTERNS = 48


def pattern_specs(rng: random.Random, species: Sequence[str], k: int) -> List[str]:
    """Sequence specs for up to ``k`` distinct scan labelings with a growing
    coordinate, in seeded order (all of them when there are at most k)."""
    labelings = [
        lab
        for lab in itertools.product(SCAN_LABELS, repeat=len(species))
        if any(_LABEL_DEGREE[l] for l in lab)
    ]
    if len(labelings) > k:
        labelings = rng.sample(labelings, k)
    return [", ".join(f"{s}={l}" for s, l in zip(species, lab)) for lab in labelings]


def certify_stream(seed: int) -> Iterator[dict]:
    """Blocks of four corpus networks (1, 2, 3 and 4 species, in seeded
    order), each with the scan patterns its witness jobs use; a trap job
    every 12 blocks and a 5-species ring every 12 blocks, six apart.

    Fixing the species mix per block, and sampling witness patterns rather
    than taking all 609 of a 4-species network, puts dozens of networks of
    each size into one run.  The cost of a witness differs by a factor of
    three between networks of one size, so a run over a handful of large
    networks would measure the draw more than the program."""
    rng = random.Random(f"certify:{seed}")
    for block in itertools.count():
        if block % 12 == 0:
            yield {"kind": "trap", "species": 2, "text": TRAP_TEXT}
        elif block % 12 == 6:
            yield {"kind": "ring", "species": 5, "text": ring_text(5)}
        sizes = [1, 2, 3, 4]
        rng.shuffle(sizes)
        for d in sizes:
            species, reactions = theorem_network(rng, d)
            rates = random_rates(rng, len(reactions))
            yield {
                "kind": "network",
                "species": d,
                "reactions": len(reactions),
                "text": network_text(species, reactions, rates),
                "patterns": pattern_specs(rng, species, WITNESS_PATTERNS),
            }


# ---------------------------------------------------------------- replicas

#: Catalog systems with their rate constants, as network text.
CATALOG: Dict[str, str] = {
    "cycle": "species: A, B, C\n"
    "A -> A + B ; k=1.0\nA + B -> A + C ; k=1.0\nA + C -> C ; k=1.0\n"
    "C -> 2B ; k=1.0\n2B -> A ; k=1.0\n",
    "loop": "species: A, B, C\n"
    "A -> 2C ; k=1.0\nA -> B + C ; k=1.0\nB + C -> 0 ; k=1.0\n"
    "0 -> B + C ; k=1.0\n0 -> B ; k=1.0\nB -> 2C ; k=1.0\n"
    "2C -> B ; k=1.0\n2C -> A ; k=1.0\n",
    "birth_death": "species: S\n0 -> S ; k=2.0\nS -> 0 ; k=1.0\n",
    "isomers": "species: A, B\nA -> B ; k=1.0\nB -> A ; k=2.0\n",
}
_CATALOG_DIM = {"cycle": 3, "loop": 3, "birth_death": 1, "isomers": 2}


def replicas_stream(seed: int) -> Iterator[dict]:
    """Two Monte Carlo drift jobs (many replicas of k = 1..5 jump walks) to
    every return-time job (fewer replicas of excursions out of a sublevel
    set of V and back).  Every start state is away from absorbing states:
    all counts are at least one, which keeps a source complex firing on each
    catalog system."""
    rng = random.Random(f"replicas:{seed}")
    for i in itertools.count():
        if i % 3 != 2:
            name = rng.choice(("cycle", "loop", "birth_death", "isomers"))
            yield {
                "kind": "drift_mc",
                "system": name,
                "text": CATALOG[name],
                "x": [rng.randint(1, 30) for _ in range(_CATALOG_DIM[name])],
                "k": rng.randint(1, 5),
                "replicas": rng.randint(1000, 1400),
                "seed": rng.randrange(2**31),
            }
        else:
            name = rng.choice(("cycle", "loop", "birth_death"))
            yield {
                "kind": "return_times",
                "system": name,
                "text": CATALOG[name],
                "x0": [rng.randint(1, 3) for _ in range(_CATALOG_DIM[name])],
                "cutoff": round(rng.uniform(7.5, 8.0), 3),
                "horizon": 1e6,
                "replicas": rng.randint(16, 24),
                "seed": rng.randrange(2**31),
            }


# ---------------------------------------------------------------- cli

#: Demo networks shipped in demos/networks, with the analyze exit code their
#: structural verdict implies (2 = Inconclusive).
DEMOS = {
    "annihilation": 2,
    "birthdeath": 0,
    "cycle": 0,
    "isomers": 0,
    "loop": 0,
    "threeclass": 2,
}
_DEMO_SPECIES = {
    "annihilation": ("A", "B"),
    "birthdeath": ("S",),
    "cycle": ("A", "B", "C"),
    "isomers": ("A", "B"),
    "loop": ("A", "B", "C"),
    "threeclass": ("A", "B", "C", "D"),
}

#: Poisson mean of the birthdeath demo (0 -> S at 2, S -> 0 at 1).
BIRTHDEATH_MEAN = 2.0

#: Round robin of CLI calls.  The time-average call has two slots: the
#: other calls split into four faster and four slower ones, and with equal
#: slots the median job would fall in the gap between the two groups, where
#: it jumps with the seed.
CLI_ROUND = (
    "analyze",
    "tiers",
    "drift_exact",
    "stationary_time",
    "drift_along",
    "drift_mc",
    "simulate",
    "stationary_region",
    "stationary_time",
)
CLI_KINDS = tuple(dict.fromkeys(CLI_ROUND))

#: The first region solve of every run uses this 1000-state box on the loop
#: demo, so that the dense generator shows in peak memory on every seed.
LARGE_BOX = "0..9,0..9,0..9"

GENERATED_FILES = 96


def cli_files(seed: int) -> Dict[str, dict]:
    """Seed-generated corpus networks (1-3 species) written as .crn files
    for the CLI jobs: name -> {"text", "species", "complexes"}.  Many small
    files, so that one seed's draw of networks does not set a run's mix."""
    rng = random.Random(f"cli-files:{seed}")
    files = {}
    for i in range(GENERATED_FILES):
        species, reactions = theorem_network(rng, 1 + i % 3)
        rates = random_rates(rng, len(reactions))
        complexes = sorted({c for r in reactions for c in r})
        files[f"g{i:02d}"] = {
            "text": network_text(species, reactions, rates),
            "species": list(species),
            "complexes": [list(c) for c in complexes],
        }
    return files


def _scan_spec(rng: random.Random, species, complexes) -> str:
    """A scan labeling with a growing coordinate under which the complexes
    fall into at least two growth tiers, so that a witness path exists."""
    while True:
        labels = [rng.choice(SCAN_LABELS) for _ in species]
        degrees = {
            sum(c[i] * _LABEL_DEGREE[l] for i, l in enumerate(labels)) for c in complexes
        }
        if any(_LABEL_DEGREE[l] for l in labels) and len(degrees) > 1:
            return ", ".join(f"{s}={l}" for s, l in zip(species, labels))


def _state(rng: random.Random, dim: int, lo: int, hi: int) -> str:
    return ",".join(str(rng.randint(lo, hi)) for _ in range(dim))


def cli_stream(seed: int) -> Iterator[dict]:
    """CLI calls in the fixed round robin ``CLI_ROUND``; files,
    states, sizes and seeds come from the seed.  Files are named "demo:<n>"
    (demos/networks/<n>.crn) or "g<NN>" (a generated file)."""
    files = cli_files(seed)
    rng = random.Random(f"cli:{seed}")
    generated = sorted(files)
    demos = sorted(DEMOS)

    def species_of(f: str):
        return _DEMO_SPECIES[f[5:]] if f.startswith("demo:") else files[f]["species"]

    def pick(demo_names) -> str:
        """A demo file one time in three, else a generated one."""
        if rng.random() < 1 / 3:
            return "demo:" + rng.choice(demo_names)
        return rng.choice(generated)

    large_box_pending = True
    for i in itertools.count():
        kind = CLI_ROUND[i % len(CLI_ROUND)]
        job = {"kind": kind, "expect": 0}
        if kind == "analyze":
            f = pick(demos)
            if f.startswith("demo:"):
                job["expect"] = DEMOS[f[5:]]
            args = [
                "--hypothesis-scan",
                "--reach-from",
                _state(rng, len(species_of(f)), 0, 4),
                "--reach-cap",
                str(rng.choice((500, 1000, 2000))),
            ]
        elif kind == "tiers":
            if rng.random() < 0.25:
                f, spec = "demo:cycle", "A=n, B=1, C=0"
            else:
                f = rng.choice(generated)
                spec = _scan_spec(rng, files[f]["species"], files[f]["complexes"])
            args = ["--seq", spec, "--path", "auto"]
        elif kind == "drift_exact":
            f = pick(demos)
            args = ["--k", str(rng.randint(1, 4)), "--x", _state(rng, len(species_of(f)), 2, 30)]
        elif kind == "drift_along":
            f = pick(["cycle", "loop"])
            if f == "demo:cycle":
                spec = "A=n, B=1, C=0"
            else:
                sp = species_of(f)
                laws = [
                    rng.choice(("n", "2*n", "n^2")) if rng.random() < 0.5 else rng.choice("012")
                    for _ in sp
                ]
                if all(l in "012" for l in laws):
                    laws[rng.randrange(len(sp))] = "n"
                spec = ", ".join(f"{s}={l}" for s, l in zip(sp, laws))
            ns = sorted(rng.sample((5, 10, 30, 100, 300, 1000), 3))
            args = ["--k", str(rng.randint(1, 4)), "--along", f"{spec}:{','.join(map(str, ns))}"]
        elif kind == "drift_mc":
            f = pick(demos)
            args = [
                "--k",
                str(rng.randint(1, 4)),
                "--x",
                _state(rng, len(species_of(f)), 2, 30),
                "--mc",
                str(rng.randint(100, 300)),
                "--seed",
                str(rng.randrange(2**31)),
            ]
        elif kind == "simulate":
            f = pick(demos)
            args = [
                "--x0",
                _state(rng, len(species_of(f)), 0, 5),
                "--jumps",
                str(rng.randint(2000, 6000)),
                "--seed",
                str(rng.randrange(2**31)),
            ]
        elif kind == "stationary_region":
            if large_box_pending:
                large_box_pending = False
                f, box = "demo:loop", LARGE_BOX
            elif rng.random() < 0.5:
                f, box = "demo:birthdeath", f"0..{rng.randint(30, 60)}"
            else:
                f = "demo:loop"
                box = ",".join(f"0..{rng.randint(3, 6)}" for _ in range(3))
            args = ["--region", box]
        else:  # stationary_time
            f = pick(["birthdeath", "cycle", "isomers", "loop"])
            args = [
                "--x0",
                _state(rng, len(species_of(f)), 1, 4),
                "--t-max",
                str(rng.randint(50, 300)),
                "--seed",
                str(rng.randrange(2**31)),
            ]
        job["file"] = f
        job["args"] = args
        yield job


STREAMS = {"certify": certify_stream, "replicas": replicas_stream, "cli": cli_stream}


def head(workload: str, seed: int, n: int) -> List[dict]:
    """The first ``n`` items of a workload's stream."""
    return list(itertools.islice(STREAMS[workload](seed), n))
