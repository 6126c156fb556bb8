"""Command-line front end.

Subcommands: analyze, tiers, drift, simulate, stationary.  Every command is
deterministic given the input file, flags, and seed (default 0; wall-clock
time is never consulted).  JSON reports carry a schema version, the tool
version, and the input file's SHA-256; matching JSON schemas are in the
``schemas`` directory at the repository root, which is not installed with
the package.

Exit codes: 0 for success (for ``analyze``: verdict PositiveRecurrent),
2 for an Inconclusive verdict, 1 for any error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import sys
from array import array
from typing import Optional, Sequence, TextIO, Tuple

from . import __version__
from .errors import CRNError
from .kinetics import total_rate
from .network import MassActionSystem, State
from .parser import parse
from .structure import (
    VERDICT_POSITIVE_RECURRENT,
    linkage_classes,
    reachable_states,
    theorem_verdict,
)
from .tiers import (
    Const,
    Grow,
    ParametricSequence,
    d_partition,
    exact_kstep_drift,
    hypothesis_check,
    parse_sequence_spec,
    path_probability_limit,
    path_tier_membership,
    s_partition,
    witness_path,
)
from .simulate import (
    _Trajectory,
    drift_estimate_mc,
    occupancy_estimate,
    truncated_stationary,
)

SCHEMA_VERSION = "1"
_CSV_BLOCK = 4096  # trajectory or distribution rows formatted and written per write call


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exceptions, so the
    process-level exit code stays under our control (errors are 1, never
    argparse's 2, which this tool reserves for Inconclusive verdicts)."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer, and not negative, as numpy requires."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected non-negative integer, got {seed}")
    return seed


def _load(path: str) -> Tuple[MassActionSystem, dict]:
    """The network in the file at ``path`` and the report envelope naming
    it, both from one read: the SHA-256 is that of the bytes parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "crnkit", "version": __version__},
        "input": {"path": path, "sha256": hashlib.sha256(data).hexdigest()},
    }
    return parse(data.decode("utf-8")), envelope


def _emit(report: dict, out: TextIO) -> None:
    json.dump(report, out, indent=2, sort_keys=True)
    out.write("\n")


def _emit_stationary(report: dict, est, out: TextIO) -> None:
    """``_emit`` of ``report`` with the estimate ``est`` under "stationary", in the
    same bytes; each distribution row fills a template, ``_CSV_BLOCK`` rows a write."""
    report["stationary"] = {"method": est.method, "detail": est.detail, "distribution": []}
    head, _, tail = json.dumps(report, indent=2, sort_keys=True).partition('"distribution": []')
    out.write(head + '"distribution": [')
    row = '\n{\n  "probability": %s,\n  "state": [\n    %s\n  ]\n}'.replace("\n", "\n      ")
    for lo in range(0, len(est.support), _CSV_BLOCK):
        ps = est.probabilities[lo : lo + _CSV_BLOCK].tolist()
        # json spells NaN and infinities its own way; a block holding one sums to one
        text = float.__repr__ if math.isfinite(sum(ps)) else json.dumps
        rows = zip(est.support[lo : lo + _CSV_BLOCK], map(text, ps))
        block = ",".join([row % (p, ",\n          ".join(map(str, s))) for s, p in rows])
        out.write("," + block if lo else block)
    out.write(("\n    ]" if est.support else "]") + tail + "\n")


def _write_csv(out: TextIO, header, blocks) -> None:
    """Write a CSV header, then each block of rows in one ``write``.

    Fields are strings, joined by "," with "\n" after each row.  These are
    the bytes ``csv.writer`` gives for fields that need no quoting, as
    species names (identifiers), integers and float reprs do not.
    """
    out.write(",".join(header) + "\n")
    for rows in blocks:
        out.write("".join([",".join(row) + "\n" for row in rows]))


def _parse_state(text: str, dim: int, flag: str) -> State:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}")
    if len(values) != dim or any(v < 0 for v in values):
        raise _UsageError(
            f"{flag} needs {dim} nonnegative coordinates, got {text!r}"
        )
    return values


def _render_law(law) -> str:
    if isinstance(law, Const):
        return str(law.value)
    coef = law.coef
    coef_str = str(int(coef)) if float(coef) == int(coef) else repr(float(coef))
    head = "n" if coef_str == "1" else f"{coef_str}*n"
    if law.power == 1:
        return head
    return f"{head}^{law.power}"


def _render_sequence(seq: ParametricSequence, species) -> str:
    return ", ".join(
        f"{name}={_render_law(law)}" for name, law in zip(species, seq.laws)
    )


def _along_state(seq: ParametricSequence, n: int) -> State:
    """``seq.evaluate(n)`` with 2**64 for each coordinate ceil(num / den * n ** p) above
    2 ** (bl(num) - 1 - bl(den) + (bl(n) - 1) * p) >= 2**64, bl being the bit length:
    ``as_state`` refuses both by the same message, and the huge one is never computed."""
    laws = list(seq.laws)
    for i, law in enumerate(laws):
        if isinstance(law, Grow):
            num, den = law.coef.as_integer_ratio()
            if num.bit_length() - 1 - den.bit_length() + (n.bit_length() - 1) * law.power >= 64:
                laws[i] = Const(2**64)  # a spec's sequence has no offsets
    return ParametricSequence._trusted(tuple(laws), seq.offset, seq.start).evaluate(n)


def _partition_json(partition, net) -> dict:
    species = net.species
    return {
        "tiers": [
            {
                "complexes": sorted(
                    net.complexes[i].format(species) for i in tier
                ),
                "degree": str(partition.degrees[next(iter(tier))]),
            }
            for tier in partition.tiers
        ],
        "infinite": sorted(
            net.complexes[i].format(species) for i in partition.infinite
        ),
    }


def _parse_path_flag(text: str, system: MassActionSystem):
    """Resolve a textual reaction list like "A->A+B, A+B->A+C" against the
    loaded network, reusing the file parser for each arrow expression."""
    decl = "species: " + ", ".join(system.network.species)
    atoms = [a.strip() for a in text.replace(";", ",").split(",") if a.strip()]
    if not atoms:
        raise _UsageError("--path expects at least one reaction")
    lookup = {
        (r.source, r.product): r for r in system.network.reactions
    }
    path = []
    for atom in atoms:
        if "->" not in atom:
            raise _UsageError(f"--path entry {atom!r} is not of the form src->prd")
        probe = parse(f"{decl}\n{atom} ; k=1.0")
        reaction = probe.network.reactions[0]
        match = lookup.get((reaction.source, reaction.product))
        if match is None:
            raise _UsageError(
                f"--path entry {atom!r} does not name a reaction of the network"
            )
        path.append(match)
    return tuple(path)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    system, report = _load(args.file)
    net = system.network
    species = net.species
    verdict = theorem_verdict(net)
    partition = linkage_classes(net)
    report["network"] = {
        "species": list(species),
        "n_species": len(species),
        "n_complexes": len(net.complexes),
        "n_reactions": len(net.reactions),
        "complexes": [c.format(species) for c in net.complexes],
        "reactions": [r.format(species) for r in net.reactions],
    }
    report["linkage_classes"] = {
        "classes": [
            sorted(net.complexes[i].format(species) for i in cls)
            for cls in partition.classes
        ],
        "strongly_connected": list(partition.strongly_connected),
    }
    report["verdict"] = {
        "verdict": verdict.verdict,
        "weakly_reversible": verdict.weakly_reversible,
        "single_linkage_class": verdict.single_linkage_class,
        "binary": verdict.binary,
        "species_condition": verdict.species_condition,
        "witnesses": {
            name: (c.format(species) if c is not None else None)
            for name, c in zip(species, verdict.species_report.witnesses)
        },
        "failing_species": list(verdict.species_report.failing),
        "reasons": list(verdict.reasons),
    }
    if args.hypothesis_scan:
        scan = hypothesis_check(net)
        report["hypothesis_scan"] = {
            "violation_found": scan.violation_found,
            "patterns_enumerated": scan.patterns_enumerated,
            "patterns_checked": scan.patterns_checked,
            "exhaustive": scan.exhaustive,
            "violating_sequence": (
                _render_sequence(scan.violating_sequence, species)
                if scan.violating_sequence is not None
                else None
            ),
            "violating_complex": (
                net.complexes[scan.violating_complex].format(species)
                if scan.violating_complex is not None
                else None
            ),
        }
    if args.reach_from is not None:
        start = _parse_state(args.reach_from, net.dim, "--reach-from")
        reach = reachable_states(system, start, cap=args.reach_cap)
        report["reachability"] = {
            "start": list(reach.start),
            "n_states": len(reach.states),
            "truncated": reach.truncated,
            "n_absorbing": len(reach.absorbing),
            "min_total_rate": reach.min_total_rate,
        }
    _emit(report, sys.stdout)
    return 0 if verdict.verdict == VERDICT_POSITIVE_RECURRENT else 2


def _cmd_tiers(args) -> int:
    system, report = _load(args.file)
    net = system.network
    species = net.species
    seq = parse_sequence_spec(args.seq, species).normalized_for(net)
    dpart = d_partition(net, seq)
    spart = s_partition(net, seq)
    report["sequence"] = {
        "spec": _render_sequence(seq, species),
        "start": seq.start,
    }
    report["d_partition"] = _partition_json(dpart, net)
    report["s_partition"] = _partition_json(spart, net)
    if args.path == "auto":
        path = witness_path(net, seq, target_len=args.limit)
        origin = "witness"
    else:
        path = _parse_path_flag(args.path, system)
        origin = "flag"
    membership = path_tier_membership(net, seq, path)
    limit = path_probability_limit(system, seq, path)
    report["path"] = {
        "origin": origin,
        "reactions": [r.format(species) for r in path],
        "in_top_intensity": membership.in_top_intensity,
        "in_drop": membership.in_drop,
        "first_drop_index": membership.first_drop_index,
        "probability_limit": limit,
    }
    _emit(report, sys.stdout)
    return 0


def _cmd_drift(args) -> int:
    system, report = _load(args.file)
    net = system.network
    species = net.species
    if args.mc is not None and args.along is not None:
        raise _UsageError("--along computes exact drifts; drop --mc")
    if not math.isfinite(args.budget):
        raise _UsageError(f"--budget must be finite, got {args.budget}")
    # pairs and k are integers, and an integer n exceeds b iff it exceeds floor(b)
    budget = math.floor(args.budget)
    if args.along is not None:
        spec, _, tail = args.along.partition(":")
        if not tail:
            raise _UsageError('--along expects "<sequence spec>:<n list>"')
        seq = parse_sequence_spec(spec, species)
        try:
            ns = [int(p) for p in tail.split(",") if p.strip()]
        except ValueError:
            raise _UsageError(f"--along index list {tail!r} must be integers")
        drifts = (
            exact_kstep_drift(system, _along_state(seq, n), args.k, budget=budget)
            for n in ns
        )
        # one block per row, each written as soon as its drift is known
        blocks = ([(str(n), repr(v))] for n, v in zip(ns, drifts))
        _write_csv(sys.stdout, ("n", "drift"), blocks)
        return 0
    if args.x is None:
        raise _UsageError("--x is required unless --along is given")
    x = _parse_state(args.x, net.dim, "--x")
    if args.mc is not None:
        value, stderr = drift_estimate_mc(
            system, x, args.k, replicas=args.mc, seed=args.seed
        )
        method, replicas, seed = "mc", args.mc, args.seed
    else:
        value = exact_kstep_drift(system, x, args.k, budget=budget)
        method, stderr, replicas, seed = "exact", None, None, None
    report["drift"] = {
        "state": list(x),
        "k": args.k,
        "method": method,
        "value": value,
        "stderr": stderr,
        "replicas": replicas,
        "seed": seed,
    }
    _emit(report, sys.stdout)
    return 0


def _cmd_simulate(args) -> int:
    system, _ = _load(args.file)
    net = system.network
    x0 = _parse_state(args.x0, net.dim, "--x0")
    if args.t_max is None and args.jumps is None:
        raise _UsageError("give --t-max and/or --jumps")
    # A row keeps its time and the index of its state among those the walk's
    # memo took in since it last emptied: 12 bytes a row.  When the memo
    # empties, those rows' states are packed, 4 bytes a coordinate (they
    # never pass STATE_COORD_MAX < 2**32), so a walk that keeps reaching new
    # states stays within the 8 + 8 * dim bytes a row of a trajectory's
    # arrays.  Row texts after the time (",3,1,4\n") are made at the end,
    # once per state still indexed, else once per packed row.  Nothing is
    # written before the walk ends, so a refused run prints no row.
    states = []
    rows, packed = array("I"), array("I")

    def take(x: State) -> int:
        states.append(x)
        return len(states) - 1

    def emptied() -> None:
        packed.extend(itertools.chain.from_iterable(map(states.__getitem__, rows)))
        del rows[:]
        states.clear()

    walk = _Trajectory(system, x0, args.t_max, args.jumps, args.seed, take, emptied)
    append = rows.append
    for law in walk:
        append(law.value)
    times = walk.times
    text = "," + ",".join(["%d"] * net.dim) + "\n"
    tails = [text % x for x in states]
    by_row = zip(*[iter(packed)] * net.dim)  # the packed coordinates, dim at a time
    texts = itertools.chain(map(text.__mod__, by_row), map(tails.__getitem__, rows))
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write(",".join(("t", *net.species)) + "\n")
        for lo in range(0, len(times), _CSV_BLOCK):
            block = zip(map(repr, times[lo : lo + _CSV_BLOCK]), itertools.islice(texts, _CSV_BLOCK))
            out.write("".join(itertools.chain.from_iterable(block)))
    finally:
        if args.out:
            out.close()
    return 0


def _parse_region(text: str, dim: int):
    ranges = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("..")
        if not sep:
            raise _UsageError(
                f'--region expects "lo..hi" per species, got {part.strip()!r}'
            )
        try:
            lo_v, hi_v = int(lo), int(hi)
        except ValueError:
            raise _UsageError(f"--region bounds must be integers, got {part.strip()!r}")
        if lo_v < 0 or hi_v < lo_v:
            raise _UsageError(f"--region range {part.strip()!r} is empty or negative")
        ranges.append(range(lo_v, hi_v + 1))
    if len(ranges) != dim:
        raise _UsageError(f"--region needs {dim} ranges, got {len(ranges)}")
    return [tuple(p) for p in itertools.product(*ranges)]


def _cmd_stationary(args) -> int:
    system, report = _load(args.file)
    net = system.network
    if (args.region is None) == (args.x0 is None):
        raise _UsageError("give exactly one of --x0 (time average) or --region (solve)")
    if args.region is not None:
        region = _parse_region(args.region, net.dim)
        estimate = truncated_stationary(system, region)
    else:
        if args.t_max is None:
            raise _UsageError("--x0 needs --t-max")
        x0 = _parse_state(args.x0, net.dim, "--x0")
        if total_rate(system, x0) == 0.0:
            print(
                f"warning: start state {x0} is absorbing; the time average "
                "is a point mass",
                file=sys.stderr,
            )
        estimate = occupancy_estimate(system, x0, args.t_max, seed=args.seed)
    _emit_stationary(report, estimate, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="crnkit",
        description="Structural, tier, drift, and simulation reports for "
        "mass-action reaction networks.",
    )
    parser.add_argument("--version", action="version", version=f"crnkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structure checks and recurrence verdict")
    p.add_argument("file", help="reaction network file")
    p.add_argument(
        "--hypothesis-scan",
        action="store_true",
        help="scan canonical sequence patterns for tier-condition violations",
    )
    p.add_argument(
        "--reach-from",
        metavar="STATE",
        help="explore the reachable state space from this state",
    )
    p.add_argument(
        "--reach-cap",
        type=int,
        default=10_000,
        metavar="N",
        help="cap on explored states (default 10000)",
    )
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("tiers", help="tier partitions and witness path")
    p.add_argument("file")
    p.add_argument(
        "--seq",
        required=True,
        metavar="SPEC",
        help='parametric sequence, e.g. "A=n, B=1, C=0" or "A=2*n^2, B=3"',
    )
    p.add_argument(
        "--path",
        default="auto",
        metavar="LIST",
        help='reaction list "src->prd, ..." or "auto" for a witness path',
    )
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="LEN",
        help="witness path length (default: number of reactions); the cost is "
        "linear in LEN, about 6-8 us and 20 bytes of report per step",
    )
    p.set_defaults(fn=_cmd_tiers)

    p = sub.add_parser("drift", help="k-step embedded-chain drift of V")
    p.add_argument("file")
    p.add_argument("--x", metavar="STATE", help="start state, e.g. 3,1,0")
    p.add_argument("--k", type=int, required=True, help="number of jumps")
    p.add_argument(
        "--mc",
        type=int,
        default=None,
        metavar="REPLICAS",
        help="Monte Carlo estimate with this many replicas",
    )
    p.add_argument(
        "--along",
        metavar="SPEC:NS",
        help='evaluate along a sequence, e.g. "A=n,B=1,C=0:10,100,1000"; '
        "emits CSV (n, drift)",
    )
    p.add_argument(
        "--budget",
        type=float,
        default=1e6,
        help="cap on the (state, level) pairs of an exact drift, at least k "
        "(default 1e6)",
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=_cmd_drift)

    p = sub.add_parser("simulate", help="sample a trajectory to CSV")
    p.add_argument("file")
    p.add_argument("--x0", required=True, metavar="STATE")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--jumps", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", metavar="CSV", help="write here instead of stdout")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "stationary", help="occupancy time average or censored-region solve"
    )
    p.add_argument("file")
    p.add_argument("--x0", metavar="STATE", help="time-average mode start state")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument(
        "--region",
        metavar="BOX",
        help='censored-solve mode box, e.g. "0..40" or "0..3,0..3"',
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=_cmd_stationary)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageError, CRNError, OSError, ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
