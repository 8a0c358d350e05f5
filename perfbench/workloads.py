"""The three workloads: their request mixes, how a request runs, how it is checked.

One pass of a workload is a fixed list of request kinds (its mix); the seed
and the pass number pick the basis of every request, so the mix and the
work stay the same from seed to seed while the inputs differ.

- ``oneshot``: CLI-style requests, ``cli.run`` on an ``@file`` permuted
  grammar algebra followed by ``cli.emit(report, "json")``. Every request has
  its own basis names, so the memo never hits across requests.
- ``adversarial``: the same path on dense integer changes of basis and on
  current algebras over number fields, whose centroids do not split.
- ``session``: library calls on persistent objects, as in
  ``demos/sections_demo.py``; most calls reuse an algebra seen before.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from inputs import (
    Request,
    algebra_key,
    base_algebra,
    change_basis,
    check_item,
    coefficient_invariants,
    expected_answer,
    permute,
    request_rng,
    section_answer,
    shape_of,
)

ALL = ("flags", "der", "cent", "jspace", "split", "decompose", "complex", "casimir")
SECTIONS = tuple("sections:" + c for c in (
    "center", "commutator", "xder", "symbol", "derdecomp", "centroid", "indec",
    "spart", "multinom", "jetauto"))
SECTIONS_NO_JET = tuple(s for s in SECTIONS if s != "sections:jetauto")


def _interleave(*bands):
    """Spread the entries of each band evenly over one pass.

    The host's speed drifts over seconds, so each band of similar requests
    samples the whole pass rather than one stretch of it.
    """
    placed = []
    for b, band in enumerate(bands):
        for j, entry in enumerate(band):
            placed.append(((j + 0.5) / len(band), b, entry))
    return tuple(entry for _, _, entry in sorted(placed, key=lambda t: t[:2]))


# The median and the tail (the 11th slowest request) are order statistics,
# so each mix puts both inside one broad band of similar requests: at most
# six requests are slower than the band, and few are faster. An order
# statistic that falls in a gap between bands jumps with the seed and with
# the host's speed.

# (description, analyses, coefficient algebra for sections:*). The first
# three entries are the ROADMAP baseline rungs.
_SMALL = (
    ("sl:3", ALL, None),
    ("cur:sl:2,jet:1,3", ALL, None),
    ("su:3", ALL, None),
    ("sl:2", SECTIONS, "jet:1,3"),
    ("gl:3", ALL, None),
    ("cur:sl:2,jet:2,2", ALL, None),
    ("u:3", ALL, None),
    ("sl:2", SECTIONS_NO_JET, "jet:2,2"),
    ("cur:sl:2,points:3", ALL, None),
    ("sum:sl:2+sl:2+sl:2", ALL, None),
    ("sl:2", SECTIONS_NO_JET, "points:3"),
    ("cur:sl:2,jet:1,3", ALL, None),
)
ONESHOT_MIX = _interleave(
    (("sl:4", ("flags",), None),
     ("so:5", ALL, None),
     ("cur:sl:2,jet:2,3", ("der", "cent"), None),
     ("sp:4", ALL, None),
     ("cur:sl:2,jet:1,4", ("decompose",), None),
     ("sum:sl:2+sl:3", ALL, None)),
    _SMALL * 2 + (("cur:sl:2,points:4", ALL, None),
                  ("cur:sl:2,points:5", ("cent",), None),
                  ("sum:sl:2+sl:2+sl:2+sl:2", ALL, None)),
    (("sl:2", ALL, None), ("sum:sl:2+sl:2", ALL, None),
     ("cur:sl:2,jet:1,2", ALL, None), ("cur:sl:2,points:2", ALL, None)),
)

NO_COMPLEX = tuple(a for a in ALL if a != "complex")

# (description, analyses, change of basis). "dense" is a unimodular integer
# change of basis with 2 * dim elementary steps, "perm" a permutation. Field
# currents of dim 9 and up keep a permuted basis: densified, their
# idempotent search takes 3 to 14 s with a spread too wide to time. The
# band holds the dense 6-dim currents over Q(i) and Q(sqrt 2).
ADVERSARIAL_MIX = _interleave(
    (("sl:3", ALL, "dense"),
     ("sum:fld:i+fld:r2", ALL, "perm"),
     ("su:3", ALL, "dense"),
     ("fld:c2", NO_COMPLEX, "perm"),
     ("gl:3", ALL, "dense"),
     ("cur:sl:2,points:3", ALL, "dense")),
    (("fld:i", ALL, "dense"), ("fld:r2", ALL, "dense")) * 20,
    (("sl:2", ALL, "dense"), ("sum:sl:2+sl:2", ALL, "dense"),
     ("cur:sl:2,jet:1,2", ALL, "dense"), ("cur:sl:2,points:2", ALL, "dense"),
     ("fld:i", ALL, "perm"), ("fld:r2", ALL, "perm")),
)

# (fiber, coefficient algebra, jet directions m for x_derivations, the
# earlier episode this one re-runs on the same algebra or None). A re-run
# rebuilds its objects from the same data, so every call on it hits the memo.
# The sl:3 and su:3 fibers take points:2; their 24-dim currents over points:3
# would take most of a pass. Most episodes are small, so that the tail (the
# 11th slowest call) falls among the many first Cent/Der/indecompose calls
# on 9- to 12-dim currents rather than among the few large fibers.
SESSION_MIX = (
    ("sl:2", "jet:1,3", 1, None),
    ("sl:2", "points:4", 2, None),
    ("su:3", "points:2", 1, None),
    ("sl:2", "jet:2,2", 2, None),
    ("sl:2", "jet:1,3", 2, None),
    ("sl:2", "points:3", 1, None),
    ("sl:2", "jet:1,3", 2, 0),
    ("sl:2", "jet:1,4", 1, None),
    ("sl:2", "points:4", 1, None),
    ("sl:2", "jet:1,3", 1, None),
    ("sl:2", "jet:2,2", 1, None),
    ("sl:2", "points:3", 2, None),
    ("sl:3", "points:2", 1, None),
    ("sl:2", "jet:1,3", 1, None),
    ("sl:2", "jet:2,2", 1, 3),
    ("sl:2", "points:4", 2, None),
    ("sl:2", "jet:1,3", 2, None),
    ("sl:2", "jet:2,2", 2, None),
    ("sl:2", "jet:1,4", 2, 7),
    ("sl:2", "points:3", 1, None),
    ("sl:2", "jet:1,3", 1, None),
    ("sl:2", "points:4", 1, None),
    ("sl:2", "jet:1,3", 2, None),
    ("sl:2", "jet:2,2", 1, None),
    ("sl:2", "points:4", 2, 1),
    ("sl:2", "jet:1,3", 1, None),
    ("sl:2", "jet:1,3", 2, None),
    ("sl:2", "points:4", 1, None),
    ("sl:2", "jet:1,3", 1, 20),
    ("sl:2", "jet:1,3", 2, None),
    ("sl:2", "jet:2,2", 2, None),
    ("sl:2", "jet:1,3", 1, None),
    ("sl:2", "points:4", 2, None),
    ("sl:2", "jet:1,3", 2, None),
)

SESSION_CALLS = (
    "build",
    "section_center_check",
    "section_commutator_check",
    "centroid_of_sections_check",
    "indecomposability_of_sections_check",
    "s_part_of_sections_check",
    "current_der_decomposition",
    "derivations",
    "centroid",
    "split_centroid",
    "indecompose",
    "x_derivations",
    "symbol_check",
)

WORKLOADS = ("oneshot", "adversarial", "session")


def mix_size(workload: str) -> int:
    if workload == "oneshot":
        return len(ONESHOT_MIX)
    if workload == "adversarial":
        return len(ADVERSARIAL_MIX)
    return len(SESSION_MIX) * len(SESSION_CALLS)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def generate(ls, workload: str, seed: int, cycle: int, workdir: str) -> list:
    """The requests of one pass; CLI inputs are written under ``workdir``."""
    if workload == "session":
        return _session_requests(ls, seed, cycle)
    mix = ONESHOT_MIX if workload == "oneshot" else ADVERSARIAL_MIX
    requests = []
    bases = {}
    for slot, (spec, analyses, extra) in enumerate(mix):
        rng = request_rng(workload, seed, cycle, slot)
        if spec not in bases:
            bases[spec] = ls.to_dict(base_algebra(ls, spec))
        tag = "#%d.%d" % (cycle, slot)
        if workload == "adversarial" and extra == "dense":
            data = change_basis(bases[spec], rng, tag, steps=2 * bases[spec]["dim"])
        else:
            data = permute(bases[spec], rng, tag)
        coeff = extra if workload == "oneshot" else None
        path = os.path.join(workdir, "%s-%d-%d.json" % (workload, cycle, slot))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        shape = shape_of(spec)
        requests.append(Request(
            kind="cli",
            label="%s [%s]%s" % (spec, ",".join(analyses), " --A " + coeff if coeff else ""),
            key=algebra_key(data),
            payload={
                "path": path,
                "analyses": list(analyses),
                "coeff": coeff,
                "dim": shape.dim,
                "flags": shape.flags,
                "expected": [expected_answer(shape, a, coeff) for a in analyses],
            },
        ))
    if repeat_share([r.key for r in requests]):
        raise RuntimeError("%s inputs repeat an algebra within one pass" % workload)
    return requests


def _session_requests(ls, seed: int, cycle: int) -> list:
    requests = []
    fibers = []
    for episode, (fiber, coeff, m, rerun) in enumerate(SESSION_MIX):
        if rerun is None:
            rng = request_rng("session", seed, cycle, episode)
            data = permute(ls.to_dict(base_algebra(ls, fiber)), rng,
                           "#%d.%d" % (cycle, episode))
        else:
            data = fibers[rerun]
        fibers.append(data)
        k_key = algebra_key(data)
        g_key = k_key + "(x)" + coeff
        state = {"fiber": data, "coeff": coeff, "m": m, "d": shape_of(fiber).dim}
        for call in SESSION_CALLS:
            key = k_key if call in ("build", "x_derivations", "symbol_check") else g_key
            requests.append(Request(kind=call, label="%s %s (x) %s" % (call, fiber, coeff),
                                    key=key, payload=state))
    return requests


def repeat_share(keys: list) -> float:
    """Share of requests whose algebra equals one used earlier in the list."""
    seen = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys)


# ---------------------------------------------------------------------------
# Execution and checking
# ---------------------------------------------------------------------------

def execute(ls, req: Request):
    """Run one request against the library and return its raw answer."""
    p = req.payload
    if req.kind == "cli":
        report = ls.cli.run("@" + p["path"], p["analyses"], p["coeff"])
        return report, ls.cli.emit(report, "json")
    if req.kind == "build":
        k = ls.from_dict(p["fiber"])
        kind, _, rest = p["coeff"].partition(":")
        if kind == "jet":
            a = ls.truncated_poly(*(int(x) for x in rest.split(",")))
        else:
            a = ls.point_functions(int(rest))
        p["k"], p["A"] = k, a
        p["g"] = ls.current_algebra(k, a)
        return p["g"].dim
    k, a, g = p["k"], p["A"], p["g"]
    fn = getattr(ls, req.kind)
    if req.kind in ("derivations", "centroid", "split_centroid", "indecompose"):
        return fn(g)
    if req.kind in ("x_derivations", "symbol_check"):
        return fn(k, p["m"])
    return fn(k, a)


_SESSION_CHECK = {
    "section_center_check": "center",
    "section_commutator_check": "commutator",
    "centroid_of_sections_check": "centroid",
    "indecomposability_of_sections_check": "indec",
    "s_part_of_sections_check": "spart",
    "current_der_decomposition": "derdecomp",
    "symbol_check": "symbol",
}


def check(req: Request, answer) -> Optional[str]:
    """None when the answer matches the closed form, else what differs."""
    p = req.payload
    if req.kind == "cli":
        report, text = answer
        if json.loads(text)["analyses"] != report["analyses"]:
            return "emitted JSON differs from the report"
        if report["algebra"]["dim"] != p["dim"]:
            return "dim %d, expected %d" % (report["algebra"]["dim"], p["dim"])
        if report["algebra"]["flags"] != p["flags"]:
            return "flags %r, expected %r" % (report["algebra"]["flags"], p["flags"])
        names = [item["name"] for item in report["analyses"]]
        if names != p["analyses"]:
            return "analyses %r, expected %r" % (names, p["analyses"])
        for item, want in zip(report["analyses"], p["expected"]):
            problem = check_item(item, want)
            if problem:
                return problem
        return None
    d, m = p["d"], p["m"]
    a = coefficient_invariants(p["coeff"])
    if req.kind == "build":
        got, want = answer, d * a["dim"]
    elif req.kind in _SESSION_CHECK:
        want = section_answer(d, _SESSION_CHECK[req.kind], p["coeff"], m)
        return check_item(dict(answer, name=req.kind), want)
    elif req.kind == "derivations":
        got, want = answer.dim, d * a["dim"] + a["der"]
    elif req.kind == "centroid":
        got, want = answer.dim, a["dim"]
    elif req.kind == "split_centroid":
        got, want = (answer[0].dim, answer[1].dim), (a["n_dim"], a["s_dim"])
    elif req.kind == "indecompose":
        got = (sorted(s.dim for s in answer.ideals), answer.status)
        want = ([d * a["dim"] // a["idems"]] * a["idems"], "split")
    elif req.kind == "x_derivations":
        got, want = (answer[1], len(answer[0])), (d + m, d + m)
    else:
        return "unknown session call %r" % req.kind
    return None if got == want else "%s = %r, expected %r" % (req.kind, got, want)
