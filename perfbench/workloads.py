"""Seeded command scripts for the three benchmark workloads, and the checks
that their outputs must pass.

Nothing here imports the program: scripts are plain CLI lines, and the checks
read only what the sessions printed and exported.  A line starting with `@`
is a harness directive (`@format dot|text` switches the session's output
format, as `--format` would between two CLI invocations); it is not sent to
the program.
"""

from __future__ import annotations

import json
import random
import re

WORKLOADS = ("oracle-cold", "oracle-warm", "symbolic-l3")

# Grid names and files used inside every session's working directory.
JSON_EXPORT = "g.json"
DOT_EXPORT = "g.dot"


# ---------------------------------------------------------------------------
# the anchor grids, described independently of the program


def anchor_grid_points(top: int) -> list[str]:
    """Rendered points of the CLI anchor grid below eps(top), increasing.

    The closure of {0, 1, w, eps(0..top-1)} under +, *2, +1 and towers of
    height 2, kept to two monomials with coefficients <= 2, is: 0, and
    h*c or h*c + h2*c2 for principal heads h2 < h and c, c2 in {1, 2}.
    The sessions check this list against the grid the program exports.
    """
    heads = ["1", "w"]
    for g in range(top):
        e = f"eps({g})"
        heads += [e, f"w^({e}+1)", f"w^(w^({e}+1))"]

    def mono(h, c):
        if h == "1":
            return str(c)
        return h if c == 1 else f"{h}*{c}"

    points = ["0"]
    for i, h in enumerate(heads):
        for c in (1, 2):
            points.append(mono(h, c))
            for h2 in heads[:i]:
                for c2 in (1, 2):
                    points.append(f"{mono(h, c)}+{mono(h2, c2)}")
    return points


def _grid_command(top: int) -> str:
    seeds = " ".join(f"eps({g})" for g in range(top))
    return f"grid g eps({top}) {seeds}"


# ---------------------------------------------------------------------------
# oracle-cold


COLD_TOP = 3
COLD_QUERIES = 3000


def oracle_cold(seed: int) -> list[str]:
    rng = random.Random(seed)
    points = anchor_grid_points(COLD_TOP)
    anchors = [f"eps({g})" for g in range(COLD_TOP)]
    rng.shuffle(anchors)
    lines = [_grid_command(COLD_TOP)]
    lines += [f"mhat g {a}" for a in anchors]
    lines.append("leq1 g eps(0) eps(0)*2+1")
    lines += _point_queries(rng, points, COLD_QUERIES)
    lines.append("classdetect g 1")
    lines.append(f"export g {JSON_EXPORT}")
    lines.append("@format dot")
    lines.append(f"export g {DOT_EXPORT}")
    return lines


def _point_queries(rng, points, count):
    """leq1 and mhat queries on random grid points; a quarter are mhat.

    Each leq1 query's first argument also gets an mhat query, so the check
    a <= b <= mhat(a) can be made from the session's own answers.
    """
    lines = []
    while len(lines) < count:
        i = rng.randrange(1, len(points))
        if rng.random() < 0.25:
            lines.append(f"mhat g {points[i]}")
            continue
        # half the pairs start near i, where some answers are true
        if rng.random() < 0.5:
            j = min(len(points) - 1, i + rng.randrange(0, 40))
        else:
            j = rng.randrange(len(points))
        lines.append(f"leq1 g {points[i]} {points[j]}")
        lines.append(f"mhat g {points[i]}")
    return lines


# ---------------------------------------------------------------------------
# oracle-warm


WARM_TOP = 3
WARM_QUERIES = 3000
WARM_PROBES_PER_ANCHOR = 4


def oracle_warm_fill() -> list[str]:
    """Set-up script: compute the eps(3) relation into the cache and export it."""
    return [_grid_command(WARM_TOP), f"export g {JSON_EXPORT}"]


def oracle_warm(seed: int) -> list[str]:
    rng = random.Random(seed)
    points = anchor_grid_points(WARM_TOP)
    lines = [_grid_command(WARM_TOP)]
    queries = _point_queries(rng, points, WARM_QUERIES)
    for g in range(WARM_TOP):
        alpha = f"eps({g})"
        window = _window(points, g)
        for verb in ("eta", "ell"):
            queries += [f"{verb} 1 {alpha} {t} g" for t in window]
        for t in rng.sample(window, WARM_PROBES_PER_ANCHOR):
            queries.append(f"gset 2 {alpha} {t} g")
        for t in rng.sample(window, WARM_PROBES_PER_ANCHOR):
            queries.append(f"astep 2 {alpha} {t} g")
        queries += [f"canon 1 {alpha} {k} g" for k in (1, 2)]
    rng.shuffle(queries)
    lines += queries
    lines += [f"classdetect g {j}" for j in (1, 2, 3)]
    lines.append(f"export g {JSON_EXPORT}")
    return lines


def _window(points, g):
    """Grid points t with eps(g) < t < eps(g+1)."""
    lo = points.index(f"eps({g})")
    nxt = f"eps({g + 1})"
    hi = points.index(nxt) if nxt in points else len(points)
    return points[lo + 1 : hi]


# ---------------------------------------------------------------------------
# symbolic-l3


SYMBOLIC_K = 18
SYMBOLIC_EVALS = 300
_ATOM_NAMES = "ABCDEFGHKLMNPQRSTUVXYZ"


def tower(base: str, k: int) -> str:
    """w_k(base): w_0 = base+1, w_{j+1} = w^(w_j)."""
    t = f"{base}+1"
    for _ in range(k):
        t = f"w^({t})"
    return t


def level3_gamma(atom: str, k: int) -> str:
    """gamma_k(3, atom) = w_k(o_1) + w_{k-1}(o_1), o_1 = cp(2,k,cp(3,k,atom))."""
    o1 = f"cp(2,{k},cp(3,{k},{atom}))"
    return f"{tower(o1, k)}+{tower(o1, k - 1)}"


def symbolic_atoms(seed: int) -> tuple[str, str]:
    first, second = random.Random(seed).sample(_ATOM_NAMES, 2)
    return f"{first}@3", f"{second}@3"


def symbolic_l3(seed: int) -> list[str]:
    rng = random.Random(seed)
    atoms = symbolic_atoms(seed)
    lines = [f"declare {a.split('@')[0]} 3" for a in atoms]
    for atom in atoms:
        for i in (1, 2, 3):
            lines += [f"canon {i} {atom} {k}" for k in range(1, SYMBOLIC_K + 1)]
    queries = []
    for atom in atoms:
        for k in range(1, SYMBOLIC_K + 1):
            gamma = level3_gamma(atom, k)
            block = [f"eval {gamma}"]
            for verb in ("tset", "eta", "ell"):
                block.append(f"{verb} 3 {atom} {gamma}")
                block.append(f"{verb} 3 {atom} {gamma}+1")
            queries.append(block)
    x, y = atoms
    maps = [f"gmap {n} {x} {y}" for n in (1, 2, 3)]
    maps += [f"gmap {n} {y} {x}" for n in (1, 2, 3)]
    maps += [f"lambda {j} cp(2,{k},cp(3,{k},{x}))*2" for j in (1, 2, 3) for k in (1, 2)]
    queries.append(maps)
    leaves = [f"eps({g})" for g in range(4)] + [x, y, f"{x}(+2)", f"cp(2,2,{y})"]
    evals = [f"eval {_random_term(rng, 5, leaves)}" for _ in range(SYMBOLIC_EVALS)]
    rng.shuffle(queries)
    flat = [line for block in queries for line in block]
    for line in evals:
        flat.insert(rng.randrange(len(flat) + 1), line)
    return lines + flat


def _random_term(rng, depth, leaves):
    """Text of a random term of nesting depth `depth`, not in normal form.

    Every level has two monomials and a finite tail, so all terms have the
    same shape and about the same cost; only leaves and coefficients vary.
    """
    if depth == 0:
        return rng.choice(leaves)
    parts = [
        f"w^({_random_term(rng, depth - 1, leaves)})*{rng.randint(1, 3)}"
        for _ in range(2)
    ]
    parts.append(str(rng.randint(1, 5)))
    return "+".join(parts)


def script(workload: str, seed: int) -> list[str]:
    return {
        "oracle-cold": oracle_cold,
        "oracle-warm": oracle_warm,
        "symbolic-l3": symbolic_l3,
    }[workload](seed)


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages


def check_session(workload, lines, result, workdir, snapshot=None):
    """Checks on one session's answers and exports (see README.md).

    `result` is session.py's output; `snapshot` is the export of the relation
    computed when the oracle-warm cache was filled.
    """
    words = [line.split() for line in lines]
    answers = result["outputs"]
    failures = [f"re-parse: {m}" for m in result["reparse_failures"]]
    if workload == "symbolic-l3":
        return failures + _check_symbolic(words, answers, result["payloads"])
    top = COLD_TOP if workload == "oracle-cold" else WARM_TOP
    failures += _check_leq1_mhat(words, answers, anchor_grid_points(top))
    try:
        with open(f"{workdir}/{JSON_EXPORT}") as fh:
            export = json.load(fh)
    except (OSError, ValueError) as exc:
        return failures + [f"JSON export unreadable: {exc}"]
    if workload == "oracle-warm":
        if export != snapshot:
            failures.append("the export of the cached relation differs from the fresh one")
        return failures + _check_mhat_snapshot(words, answers, snapshot)
    failures += _check_export(export, anchor_grid_points(COLD_TOP))
    for i, w in enumerate(words):
        if w[0] == "mhat" and re.fullmatch(r"eps\(\d+\)", w[2]):
            double = f"{w[2]}*2"
            if double in export["points"] and answers[i] != double:
                failures.append(f"mhat {w[2]} = {answers[i]}, expected {double}")
        elif lines[i] == "leq1 g eps(0) eps(0)*2+1" and answers[i] != "false (grid-relative)":
            failures.append(f"{lines[i]}: {answers[i]}, expected false")
    return failures


def _check_export(export, points):
    """The relation is reflexive, inside the order and prefix-transitive."""
    out = []
    if export["points"] != points:
        out.append("exported grid differs from the anchor-grid description")
    f = export["frontiers"]
    for i, fi in enumerate(f):
        if not i <= fi < len(f):
            out.append(f"frontier {i} -> {fi} outside [i, n)")
        elif any(f[j] > fi for j in range(i, fi + 1)):
            out.append(f"frontier row {i} is not prefix-transitive")
    return out


def _check_leq1_mhat(words, answers, points):
    """Each leq1 a b answer equals a <= b <= mhat(a), mhat from the session."""
    index = {p: i for i, p in enumerate(points)}
    mhat = {w[2]: answers[i] for i, w in enumerate(words) if w[0] == "mhat"}
    out = []
    for i, w in enumerate(words):
        if w[0] != "leq1" or w[2] not in mhat:
            continue
        top = index.get(mhat[w[2]])
        if top is None:
            out.append(f"mhat {w[2]} = {mhat[w[2]]} is not a grid point")
            continue
        expected = "true" if index[w[2]] <= index[w[3]] <= top else "false"
        if answers[i] != f"{expected} (grid-relative)":
            out.append(f"{' '.join(w)}: {answers[i]}, expected {expected}")
    return out


def _check_mhat_snapshot(words, answers, snapshot):
    """mhat answers read from the cache match the relation that was stored."""
    pts, f = snapshot["points"], snapshot["frontiers"]
    index = {p: i for i, p in enumerate(pts)}
    out = []
    for i, w in enumerate(words):
        if w[0] == "mhat" and answers[i] != pts[f[index[w[2]]]]:
            out.append(f"{' '.join(w)}: {answers[i]}, snapshot says {pts[f[index[w[2]]]]}")
    return out


def _check_symbolic(words, answers, payloads):
    """Criterion 5 on every level-3 gamma: T(gamma) = o-chain = T(gamma+1)."""
    canon, tsets, evals = {}, {}, {}
    for i, w in enumerate(words):
        if w[0] == "canon" and w[1] == "3":
            canon[(w[2], int(w[3]))] = payloads.get(str(i))
        elif w[0] == "tset":
            tsets[(w[2], w[3])] = (payloads.get(str(i)) or {}).get("t_set")
        elif w[0] == "eval":
            evals[w[1]] = answers[i]
    out = []
    for (atom, k), data in canon.items():
        if data is None:
            out.append(f"canon 3 {atom} {k} failed")
            continue
        gamma = level3_gamma(atom, k)
        if evals.get(gamma) != data["gamma"]:
            out.append(f"canon 3 {atom} {k}: gamma {data['gamma']} != eval {evals.get(gamma)}")
        t0, t1 = tsets.get((atom, gamma)), tsets.get((atom, f"{gamma}+1"))
        if t0 != data["o_chain"]:
            out.append(f"tset of gamma_{k}(3, {atom}) = {t0}, o-chain {data['o_chain']}")
        if t1 != t0:
            out.append(f"tset of gamma_{k}(3, {atom})+1 = {t1} differs from tset of gamma")
    return out


def payload_lines(workload, lines):
    """Indices of commands whose JSON payload the checks read."""
    if workload != "symbolic-l3":
        return []
    return [i for i, line in enumerate(lines) if line.split()[0] in ("canon", "tset")]


def reparse_lines(workload, lines):
    """Indices of commands whose text answer must re-parse to itself."""
    if workload != "symbolic-l3":
        return []
    return [i for i, line in enumerate(lines) if line.startswith("eval ")]


def ready_lines(workload, lines):
    """Indices of the commands that build the state later queries read.

    The `grid` command on the oracle workloads; the declarations and the
    canonical points (which register leaves and m-values) on symbolic-l3.
    """
    verbs = ("declare", "canon") if workload == "symbolic-l3" else ("grid",)
    return [i for i, line in enumerate(lines) if line.split()[0] in verbs]
