"""Seeded inputs for the liestruct benchmark and the closed forms that check them.

Every input is a Lie algebra from the CLI grammar, or a current algebra of
sl(2) over a number field, written in a new basis: a seeded permutation for
the sparse workloads and a seeded unimodular integer change of basis for the
dense ones. Basis names carry a per-request tag, so two requests of one run
never pass the library the same algebra unless the workload means them to.

Answers are checked against closed forms stated in this file (dimensions of
Der, Cent, J, the ideal count of the decomposition, structure flags, and
the section-model identities). They are never compared with the library's
own answer on another basis.

The library package is passed in as an argument (``ls``) rather than
imported here, because the benchmark re-imports it to measure set-up time
and to give the traced pass empty memo caches.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional

# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

_FLAG_NAMES = ("abelian", "nilpotent", "solvable", "perfect", "centerfree",
               "semisimple", "reductive", "simple")


def _flags(*true_names):
    return {name: name in true_names for name in _FLAG_NAMES}


@dataclass(frozen=True)
class Refusal:
    """The analysis must refuse with this error class (a pass when it does)."""

    error: str


@dataclass(frozen=True)
class Shape:
    """Basis-independent invariants of one algebra, stated in closed form."""

    dim: int
    flags: dict
    der: tuple  # (dim Der, dim inner, dim outer)
    cent: int
    jspace: int
    split: tuple  # (dim N, dim S) of the centroid
    decompose: object  # (sorted ideal dims, status) or Refusal
    complex: object  # bool (J found) or Refusal
    casimir: object  # (is_identity, in_centroid) or Refusal


def simple_shape(d: int) -> Shape:
    """Simple over Q with centroid Q: every derivation is inner."""
    return Shape(d, _flags("perfect", "centerfree", "semisimple", "reductive", "simple"),
                 (d, d, 0), 1, 0, (0, 1), ((d,), "split"), False, (True, True))


def reductive_shape(n: int) -> Shape:
    """gl(n) or u(n): a simple ideal of dim n^2 - 1 plus a 1-dim center.

    Der = Der(s) + gl(z), Cent = Q x Q, J = Hom(g/[g,g], z) is 1-dim, and
    the center outside [g, g] makes decompose, complex and casimir refuse.
    """
    d = n * n
    return Shape(d, _flags("reductive"), (d, d - 1, 1), 2, 1, (0, 2),
                 Refusal("PreconditionError"), Refusal("PreconditionError"),
                 Refusal("LiestructError"))


def semisimple_shape(pieces) -> Shape:
    """Direct sum of simple ideals, each (dim, status, J found, dim Cent).

    A simple piece over a number field K contributes dim K to the centroid
    and nothing to the outer derivations (Der K = 0 for a separable field).
    """
    dims = [p[0] for p in pieces]
    cent = sum(p[3] for p in pieces)
    statuses = [p[1] for p in pieces]
    order = {"split": 0, "nonsplit_real": 1, "nonsplit_unknown": 2}
    status = max(statuses, key=order.__getitem__)
    d = sum(dims)
    if len(pieces) == 1:
        flags = _flags("perfect", "centerfree", "semisimple", "reductive", "simple")
        complex_ = pieces[0][2]
    else:
        flags = _flags("perfect", "centerfree", "semisimple", "reductive")
        complex_ = Refusal("PreconditionError")
    return Shape(d, flags, (d, d, 0), cent, 0, (0, cent),
                 (tuple(sorted(dims)), status), complex_, (True, True))


def _simple_piece(d: int):
    return (d, "split", False, 1)


def jet_dim(m: int, order: int) -> int:
    """dim Q[x_1..x_m]/(deg >= order) = C(m + order - 1, m)."""
    return comb(m + order - 1, m)


def jet_derivations_dim(m: int, order: int) -> int:
    """dim Der(Q[x_1..x_m]/(deg >= order)) = m (dim A - 1) for order >= 2.

    A derivation is fixed by D(x_i), which must lie in the maximal ideal.
    """
    return m * (jet_dim(m, order) - 1) if order >= 2 else 0


def jet_current_shape(m: int, order: int) -> Shape:
    """sl(2) (x) A for the local ring A of jets (order >= 2).

    Cent = A, Der = Der(sl2) (x) A + Cent(sl2) (x) Der(A), one ideal, a
    degenerate Killing form, and S(Cent) = Q (no complex structure).
    """
    a = jet_dim(m, order)
    outer = jet_derivations_dim(m, order)
    d = 3 * a
    return Shape(d, _flags("perfect", "centerfree"), (d + outer, d, outer), a, 0,
                 (a - 1, 1), ((d,), "split"), False, Refusal("LiestructError"))


_SIMPLE_DIMS = {"sl:2": 3, "sl:3": 8, "sl:4": 15, "so:5": 10, "sp:4": 10, "su:3": 8}


def shape_of(spec: str) -> Shape:
    """Closed-form invariants of a grammar description or a field current."""
    if spec in _SIMPLE_DIMS:
        return simple_shape(_SIMPLE_DIMS[spec])
    if spec in ("gl:3", "u:3"):
        return reductive_shape(3)
    if spec.startswith("sum:"):
        parts = spec[4:].split("+")
        if all(p in _SIMPLE_DIMS for p in parts):
            return semisimple_shape([_simple_piece(_SIMPLE_DIMS[p]) for p in parts])
        return semisimple_shape([_FIELD_PIECES[p] for p in parts])
    if spec.startswith("cur:sl:2,jet:"):
        m, order = (int(x) for x in spec[len("cur:sl:2,jet:"):].split(","))
        return jet_current_shape(m, order)
    if spec.startswith("cur:sl:2,points:"):
        s = int(spec[len("cur:sl:2,points:"):])
        return semisimple_shape([_simple_piece(3)] * s)
    if spec in _FIELD_PIECES:
        return semisimple_shape([_FIELD_PIECES[spec]])
    raise ValueError("no closed form for %r" % spec)


# sl(2) over a number field K: (dim, decomposition status, J found, dim K).
# Q(i) leaves an imaginary quadratic residue field (final over R too, and a
# rational J with J^2 = -1); Q(sqrt 2) leaves a real irrationality, so the
# status is "nonsplit_unknown" and no J exists. Q(cbrt 2) and Q(sqrt 2,
# sqrt 3) give S(Cent) of dim 3 and 4, where ``complex`` has no closed form.
_FIELD_PIECES = {
    "fld:i": (6, "nonsplit_real", True, 2),
    "fld:r2": (6, "nonsplit_unknown", Refusal("LiestructError"), 2),
    "fld:c2": (9, "nonsplit_unknown", None, 3),
    "fld:r2r3": (12, "nonsplit_unknown", None, 4),
}


def expected_answer(shape: Shape, analysis: str, coeff: Optional[str] = None):
    """Expected report fields of one analysis, or a Refusal."""
    if analysis == "flags":
        return {"flags": shape.flags}
    if analysis == "der":
        return {"dim": shape.der[0], "inner_dim": shape.der[1], "outer_dim": shape.der[2]}
    if analysis == "cent":
        return {"dim": shape.cent}
    if analysis == "jspace":
        return {"dim": shape.jspace}
    if analysis == "split":
        return {"n_dim": shape.split[0], "s_dim": shape.split[1]}
    if analysis == "decompose":
        if isinstance(shape.decompose, Refusal):
            return shape.decompose
        dims, status = shape.decompose
        return {"ideal_dims": sorted(dims), "status": status, "j_dims": [0] * len(dims)}
    if analysis == "complex":
        if shape.complex is None:
            raise ValueError("no closed form for complex on this algebra")
        if isinstance(shape.complex, Refusal):
            return shape.complex
        return {"found": shape.complex}
    if analysis == "casimir":
        if isinstance(shape.casimir, Refusal):
            return shape.casimir
        return {"is_identity": shape.casimir[0], "in_centroid": shape.casimir[1]}
    if analysis.startswith("sections:"):
        return section_answer(shape.dim, analysis.split(":", 1)[1], coeff, m=1)
    raise ValueError("no closed form for analysis %r" % analysis)


def coefficient_invariants(coeff: str) -> dict:
    """dim A, dim Der A, primitive idempotents, and dims of S(A), N(A)."""
    kind, _, rest = coeff.partition(":")
    if kind == "jet":
        m, order = (int(x) for x in rest.split(","))
        a = jet_dim(m, order)
        return {"dim": a, "der": jet_derivations_dim(m, order), "idems": 1,
                "s_dim": 1, "n_dim": a - 1}
    if kind == "points":
        s = int(rest)
        return {"dim": s, "der": 0, "idems": s, "s_dim": s, "n_dim": 0}
    raise ValueError("unknown coefficient algebra %r" % coeff)


def section_answer(d: int, check: str, coeff: Optional[str], m: int) -> dict:
    """Section-model identities for a simple fiber k (dim d, Cent k = Q)."""
    if check == "multinom":
        # multi-indices of total degree <= 5 in 1, 2 and 3 variables
        return {"ok": True, "cases": sum(comb(5 + v, v) for v in (1, 2, 3))}
    if check == "xder":
        return {"ok": True, "dim": d + m, "expected": d + m}
    if check == "symbol":
        return {"ok": True, "total_dim": d + m, "kernel_dim": d, "image_dim": m,
                "kernel_is_embedded_der": True, "surjective": True}
    if check == "jetauto":
        return {"ok": True, "automorphism": True}
    a = coefficient_invariants(coeff)
    if check == "center":
        return {"ok": True, "lhs_dim": 0, "rhs_dim": 0}
    if check == "commutator":
        return {"ok": True, "lhs_dim": d * a["dim"], "rhs_dim": d * a["dim"]}
    if check == "derdecomp":
        return {"ok": True, "full_dim": d * a["dim"] + a["der"],
                "tensor_part_dim": d * a["dim"], "connection_part_dim": a["der"],
                "direct": True}
    if check == "centroid":
        return {"ok": True, "full_dim": a["dim"], "expected_dim": a["dim"]}
    if check == "indec":
        return {"ok": True, "ideals": a["idems"], "expected": a["idems"], "status": "split"}
    if check == "spart":
        return {"ok": True, "s_dim": a["s_dim"], "n_dim": a["n_dim"],
                "expected_s_dim": a["s_dim"]}
    raise ValueError("no closed form for section check %r" % check)


def check_item(item: dict, want) -> Optional[str]:
    """None when a report entry matches its expectation, else the mismatch."""
    if isinstance(want, Refusal):
        error = item.get("error", "")
        if item.get("ok") is False and error.startswith(want.error + ":"):
            return None
        return "%s: expected a %s refusal, got %r" % (item.get("name"), want.error,
                                                      error or item.get("ok"))
    if item.get("ok") is not True:
        return "%s: not ok (%s)" % (item.get("name"), item.get("error", "no error"))
    for key, value in want.items():
        got = item.get(key)
        if key == "ideal_dims" and got is not None:
            got = sorted(got)
        if got != value:
            return "%s: %s = %r, expected %r" % (item.get("name"), key, got, value)
    return None


# ---------------------------------------------------------------------------
# Number fields (coefficient algebras the CLI grammar cannot spell)
# ---------------------------------------------------------------------------

def _field_table(dim: int, mul) -> list:
    """Structure table of a commutative algebra from a basis product rule."""
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            out = [Fraction(0)] * dim
            for k, c in mul(i, j).items():
                out[k] += c
            row.append(out)
        table.append(row)
    return table


def cube_root_field(ls, c: int = 2):
    """Q[r]/(r^3 - c) with basis 1, r, r^2."""
    def mul(i, j):
        e = i + j
        return {e: Fraction(1)} if e < 3 else {e - 3: Fraction(c)}

    return ls.construct.CommutativeAlgebra(["1", "r", "r^2"], [1, 0, 0],
                                           _field_table(3, mul))


def biquadratic_field(ls, p: int = 2, q: int = 3):
    """Q(sqrt p, sqrt q) with basis 1, a, b, ab (a^2 = p, b^2 = q)."""
    def mul(i, j):
        # basis index bits: bit 0 = a, bit 1 = b
        coeff = Fraction(1)
        if i & j & 1:
            coeff *= p
        if i & j & 2:
            coeff *= q
        return {i ^ j: coeff}

    return ls.construct.CommutativeAlgebra(["1", "a", "b", "ab"], [1, 0, 0, 0],
                                           _field_table(4, mul))


def base_algebra(ls, spec: str):
    """The library's algebra for a grammar description or a field current."""
    construct = ls.construct
    if spec.startswith("sum:") and any(p in _FIELD_PIECES for p in spec[4:].split("+")):
        return construct.direct_sum([base_algebra(ls, p) for p in spec[4:].split("+")])
    sl2 = construct.classical("sl", 2)
    if spec == "fld:i":
        return construct.current_algebra(sl2, construct.quadratic_extension(-1))
    if spec == "fld:r2":
        return construct.current_algebra(sl2, construct.quadratic_extension(2))
    if spec == "fld:c2":
        return construct.current_algebra(sl2, cube_root_field(ls))
    if spec == "fld:r2r3":
        return construct.current_algebra(sl2, biquadratic_field(ls))
    return ls.cli.parse_algebra(spec)


# ---------------------------------------------------------------------------
# Changes of basis
# ---------------------------------------------------------------------------

def _dense_table(data: dict) -> list:
    n = data["dim"]
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for entry in data["brackets"]:
        i, j = entry["left"], entry["right"]
        for k, v in entry["value"].items():
            c = Fraction(v)
            table[i][j][int(k)] = c
            table[j][i][int(k)] = -c
    return table


def _as_dict(table: list, names: list) -> dict:
    n = len(names)
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            value = {str(k): str(c) for k, c in enumerate(table[i][j]) if c}
            if value:
                brackets.append({"left": i, "right": j, "value": value})
    return {"dim": n, "basis": names, "brackets": brackets}


def permute(data: dict, rng: random.Random, tag: str) -> dict:
    """New basis vector a is old basis vector perm[a]; names get ``tag``."""
    n = data["dim"]
    perm = list(range(n))
    rng.shuffle(perm)
    old = _dense_table(data)
    table = [[[old[perm[a]][perm[b]][perm[k]] for k in range(n)]
              for b in range(n)] for a in range(n)]
    return _as_dict(table, [data["basis"][p] + tag for p in perm])


def unimodular_pair(n: int, rng: random.Random, steps: int):
    """A seeded integer matrix B with det +-1 and its integer inverse.

    B is a signed permutation times ``steps`` elementary row additions with
    coefficients +-1, so both B and B^-1 have integer entries.
    """
    ops = []
    for _ in range(steps):
        a, b = rng.sample(range(n), 2)
        ops.append((a, b, rng.choice((-1, 1))))
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    b_mat = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    inv = [[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]
    for a, b, c in ops:
        # B <- E B with E = I + c e_ab; B^-1 <- B^-1 E^-1
        b_mat[a] = [x + c * y for x, y in zip(b_mat[a], b_mat[b])]
        for row in inv:
            row[b] -= c * row[a]
    return b_mat, inv


def change_basis(data: dict, rng: random.Random, tag: str, steps: int) -> dict:
    """Rewrite the table in the basis f_i = sum_a B[a][i] e_a (dense, integer)."""
    n = data["dim"]
    b_mat, inv = unimodular_pair(n, rng, steps)
    old = _dense_table(data)
    # [f_i, f_j] = sum_{a,b} B[a][i] B[b][j] [e_a, e_b]; e_c = sum_k inv[k][c] f_k
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = [Fraction(0)] * n
            for a in range(n):
                if not b_mat[a][i]:
                    continue
                for b in range(n):
                    w = b_mat[a][i] * b_mat[b][j]
                    if not w:
                        continue
                    for c, v in enumerate(old[a][b]):
                        if v:
                            acc[c] += w * v
            table[i][j] = [sum((inv[k][c] * acc[c] for c in range(n)), Fraction(0))
                           for k in range(n)]
    return _as_dict(table, ["f%d%s" % (i, tag) for i in range(n)])


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

@dataclass
class Request:
    """One closed-loop request: the call, its expected answer, its algebra."""

    kind: str  # "cli" or a library call of the session workload
    label: str  # base description and analyses, for messages
    key: str  # identity of the algebra the request works on
    payload: dict = field(default_factory=dict)


def algebra_key(data: dict) -> str:
    """Canonical text of a structure table with its basis names."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def request_rng(workload: str, seed: int, cycle: int, slot: int) -> random.Random:
    # a string seed is hashed with SHA-512, so it does not depend on PYTHONHASHSEED
    return random.Random("perfbench:%s:%d:%d:%d" % (workload, seed, cycle, slot))
