"""Command-line front end.

Parses compact algebra descriptions (sl:2, cur:sl:2,jet:1,3, sum:sl:2+sl:2,
@file.json), runs selected analyses, and emits JSON or text reports.

The dimension of every algebra a description asks for, and of the current
algebra a sections check builds from it (k (x) A, or k (x) Q[x_1..x_m]/(deg
>= 2) for ``--m``), is computed before any table is allocated; past a limit
(64 by default, ``--max-dim``) the request is refused as a usage error.
An ``@file`` input is judged by its ``"dim"`` before its table is built.

Exit codes: 0 when every requested analysis ran and passed its internal
checks, 1 when an analysis or a validation failed (including a Jacobi
failure while building the algebra), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .construct import (
    CommutativeAlgebra,
    classical,
    current_algebra,
    direct_sum,
    example_algebra,
    point_functions,
    truncated_poly,
)
from .decompose import complex_structure, indecompose
from .endo import centroid, derivations, j_space, split_centroid
from .errors import LiestructError, SpecParseError
from .lie import LieAlgebra, _json_int, from_dict, to_dict
from .linalg import Matrix

SECTION_CHECKS = (
    "center",
    "commutator",
    "xder",
    "symbol",
    "derdecomp",
    "centroid",
    "indec",
    "spart",
    "multinom",
    "jetauto",
)

ANALYSES = (
    ("flags", "der", "cent", "jspace", "split", "decompose", "complex", "casimir")
    + tuple("sections:" + check for check in SECTION_CHECKS)
)

DEFAULT_MAX_DIM = 64

# dim classical(kind, n), known before the algebra is built
_CLASSICAL_DIM = {
    "sl": lambda n: n * n - 1,
    "gl": lambda n: n * n,
    "so": lambda n: n * (n - 1) // 2,
    "sp": lambda n: n * (n + 1) // 2,
    "su": lambda n: n * n - 1,
    "u": lambda n: n * n,
}


# ---------------------------------------------------------------------------
# Algebra description grammar
# ---------------------------------------------------------------------------

class _Cursor:
    def __init__(self, text: str, max_dim: int = DEFAULT_MAX_DIM):
        self.text = text
        self.pos = 0
        self.max_dim = max_dim

    def error(self, message: str) -> SpecParseError:
        return SpecParseError(message, self.pos)

    def eat(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.eat(token):
            raise self.error("expected %r" % token)

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # a non-ASCII digit, or more digits than int() reads
            raise SpecParseError(
                "cannot read this integer (%d characters)" % (self.pos - start), start
            ) from None

    def done(self) -> bool:
        return self.pos >= len(self.text)

    def check_size(self, what: str, dim: Optional[int]):
        _check_size(what, dim, self.max_dim, self.pos)


def _check_size(what: str, dim: Optional[int], max_dim: int, pos: int = 0):
    """Refuse, before it is built, an algebra of dimension ``dim`` above
    ``max_dim``; None stands for a dimension known to be above it."""
    if dim is None or dim > max_dim:
        size = "" if dim is None else "%d, " % dim
        raise SpecParseError(
            "%s would have dimension %sabove the limit %d (see --max-dim)"
            % (what, size, max_dim), pos
        )


def _jet_dim(m: int, order: int, limit: int) -> Optional[int]:
    """dim truncated_poly(m, order) = C(m + order - 1, m), or None once it
    is known to exceed ``limit``.

    Arguments that truncated_poly rejects give 1, so its own error is raised.
    """
    dim = 1
    # after step i, dim = C(max(m, order - 1) + i, i), which never decreases
    for i in range(1, min(m, order - 1) + 1):
        dim = dim * (max(m, order - 1) + i) // i
        if dim > limit:
            return None
    return dim


def _parse_coefficient(cur: _Cursor) -> CommutativeAlgebra:
    if cur.eat("jet:"):
        m = cur.integer()
        cur.expect(",")
        order = cur.integer()
        cur.check_size("jet:%d,%d" % (m, order), _jet_dim(m, order, cur.max_dim))
        try:
            return truncated_poly(m, order)
        except ValueError as exc:
            raise cur.error(str(exc)) from None
    if cur.eat("points:"):
        k = cur.integer()
        cur.check_size("points:%d" % k, k)
        try:
            return point_functions(k)
        except ValueError as exc:
            raise cur.error(str(exc)) from None
    raise cur.error("expected a coefficient algebra (jet:m,N or points:k)")


def _parse_lie(cur: _Cursor) -> LieAlgebra:
    for kind in ("sl", "gl", "so", "sp", "su", "u"):
        if cur.eat(kind + ":"):
            n = cur.integer()
            cur.check_size("%s:%d" % (kind, n), _CLASSICAL_DIM[kind](n))
            try:
                return classical(kind, n)
            except ValueError as exc:
                raise cur.error(str(exc)) from None
    if cur.eat("ex:"):
        if cur.eat("2dim"):
            return example_algebra("two_dim")
        if cur.eat("5dim"):
            return example_algebra("five_dim")
        raise cur.error("expected 2dim or 5dim")
    if cur.eat("cur:"):
        k = _parse_lie(cur)
        cur.expect(",")
        a = _parse_coefficient(cur)
        cur.check_size("the current algebra", k.dim * a.dim)
        return current_algebra(k, a)
    if cur.eat("sum:"):
        parts = [_parse_lie(cur)]
        while cur.eat("+"):
            parts.append(_parse_lie(cur))
        if len(parts) < 2:
            raise cur.error("sum needs at least two parts joined by '+'")
        cur.check_size("the direct sum", sum(p.dim for p in parts))
        return direct_sum(parts)
    if cur.eat("@"):
        path = cur.text[cur.pos :]
        cur.pos = len(cur.text)
        if not path:
            raise cur.error("expected a file path after '@'")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise cur.error("cannot read %s: %s" % (path, exc)) from None
        except ValueError as exc:  # JSONDecodeError, or text that is not UTF-8
            raise cur.error("invalid JSON in %s: %s" % (path, exc)) from None
        try:
            # judged before lie.build allocates its dim^3 table
            cur.check_size("the algebra in %s" % path, _json_int(data, "dim"))
            return from_dict(data)
        except KeyError as exc:
            raise cur.error("invalid algebra in %s: missing key %s" % (path, exc)) from None
        except (ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise cur.error("invalid algebra in %s: %s" % (path, exc)) from None
    raise cur.error(
        "expected an algebra (sl:|gl:|so:|sp:|u:|su:|ex:|cur:|sum:|@file)"
    )


def parse_algebra(spec: str, max_dim: int = DEFAULT_MAX_DIM) -> LieAlgebra:
    """Parse the compact algebra grammar; raises SpecParseError with the
    offending position (also when an algebra it asks for would have
    dimension above ``max_dim``), or JacobiError when the description
    builds an invalid table."""
    cur = _Cursor(spec.strip(), max_dim)
    algebra = _parse_lie(cur)
    if not cur.done():
        raise cur.error("trailing characters after a complete description")
    return algebra


def parse_coefficient_algebra(spec: str, max_dim: int = DEFAULT_MAX_DIM) -> CommutativeAlgebra:
    cur = _Cursor(spec.strip(), max_dim)
    algebra = _parse_coefficient(cur)
    if not cur.done():
        raise cur.error("trailing characters after a complete description")
    return algebra


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

def _matrix_rows(m: Matrix) -> list:
    return [[str(x) for x in row] for row in m.rows]


def _run_one(name: str, g: LieAlgebra, a: Optional[CommutativeAlgebra], m: int) -> dict:
    if name == "flags":
        return {"ok": True, "flags": g.flags()}
    if name == "der":
        der, inner = derivations(g), g.dim - g.center().dim  # rank-nullity for x -> ad x
        return {
            "ok": True,
            "dim": der.dim,
            "inner_dim": inner,
            "outer_dim": der.dim - inner,
        }
    if name == "cent":
        return {"ok": True, "dim": centroid(g).dim}
    if name == "jspace":
        return {"ok": True, "dim": j_space(g).dim}
    if name == "split":
        nil, semi = split_centroid(g)
        return {"ok": True, "n_dim": nil.dim, "s_dim": semi.dim}
    if name == "decompose":
        report = indecompose(g)
        out = report.to_dict()
        out["ok"] = True
        out["ideal_dims"] = [s.dim for s in report.ideals]
        return out
    if name == "complex":
        found = complex_structure(g)
        if found is None:
            return {"ok": True, "found": False}
        return {"ok": True, "found": True, "J": _matrix_rows(found.J)}
    if name == "casimir":
        from .construct import casimir_adjoint

        cas = casimir_adjoint(g)
        return {
            "ok": True,
            "matrix": _matrix_rows(cas),
            "is_identity": cas == Matrix.identity(g.dim),
            "in_centroid": centroid(g).contains(cas),
        }
    return _run_section_check(name.split(":", 1)[1], g, a, m)  # run() checked the name


def _run_section_check(
    check: str, k: LieAlgebra, a: Optional[CommutativeAlgebra], m: int
) -> dict:
    from . import sections

    if check == "multinom":
        import itertools

        cases = 0
        for vars_ in (1, 2, 3):
            for alpha in itertools.product(range(6), repeat=vars_):
                if sum(alpha) > 5:
                    continue
                cases += 1
                value = sections.multinomial_sum(alpha)
                expected = 1 if not any(alpha) else 0
                if value != expected:
                    return {
                        "ok": False,
                        "check": "multinom",
                        "failing_alpha": list(alpha),
                    }
        return {"ok": True, "check": "multinom", "cases": cases}
    if check in ("xder", "symbol"):
        if check == "xder":
            _, dim = sections.x_derivations(k, m)
            expected = derivations(k).dim + m * centroid(k).dim
            return {
                "ok": dim == expected,
                "check": "xder",
                "dim": dim,
                "expected": expected,
            }
        return sections.symbol_check(k, m)
    if check == "jetauto":
        jet = sections.jet_algebra(1, _jet_line(a).dim)
        # reparametrize along t^2 when representable, else the identity
        n_elem = [0] * jet.A.dim
        if jet.A.dim > 2:
            n_elem[2] = 1
        _, report = sections.jet_reparametrization_automorphism(k, jet, n_elem)
        return report
    if a is None:
        raise SpecParseError("this sections check needs --A (jet:m,N or points:k)", 0)
    runner = {
        "center": sections.section_center_check,
        "commutator": sections.section_commutator_check,
        "derdecomp": sections.current_der_decomposition,
        "centroid": sections.centroid_of_sections_check,
        "indec": sections.indecomposability_of_sections_check,
        "spart": sections.s_part_of_sections_check,
    }[check]
    return runner(k, a)


def _jet_line(a: Optional[CommutativeAlgebra]) -> CommutativeAlgebra:
    """a when it is jet:1,N, the jets of one variable that jetauto reparametrizes;
    SpecParseError (a usage error) otherwise."""
    if a is None or a.monomials is None or len(a.monomials[0]) != 1:
        raise SpecParseError("jetauto needs --A jet:1,N with N >= 1", 0)
    return a


def _section_model_dim(check: str, k: LieAlgebra, a: Optional[CommutativeAlgebra],
                       m: int) -> int:
    """dim of the current algebra a sections check builds (0 if it builds none)."""
    if check in ("xder", "symbol"):
        if m < 0:
            raise SpecParseError("--m must be >= 0, got %d" % m, 0)
        return k.dim * (m + 1)  # k (x) Q[x_1..x_m]/(deg >= 2)
    if check == "jetauto":
        return k.dim * _jet_line(a).dim
    if a is None or check == "multinom":
        return 0
    return k.dim * a.dim


def run(algebra_spec: str, analyses: Sequence[str],
        coeff_spec: Optional[str] = None, m: int = 1,
        max_dim: int = DEFAULT_MAX_DIM) -> dict:
    """Build the algebra, run the requested analyses, return the report."""
    for name in analyses:
        if name not in ANALYSES:
            raise SpecParseError(
                "unknown analysis %r; available: %s" % (name, ", ".join(ANALYSES)),
                0,
            )
    started = time.monotonic()
    g = parse_algebra(algebra_spec, max_dim)
    a = parse_coefficient_algebra(coeff_spec, max_dim) if coeff_spec else None
    for name in analyses:
        if name.startswith("sections:"):
            _check_size("the algebra of %s" % name,
                        _section_model_dim(name.split(":", 1)[1], g, a, m), max_dim)
    results = []
    for name in analyses:
        try:
            outcome = _run_one(name, g, a, m)
        except SpecParseError:
            raise  # usage error (bad flags for the analysis), not a result
        except LiestructError as exc:
            outcome = {"ok": False, "error": "%s: %s" % (type(exc).__name__, exc)}
        results.append({"name": name, **outcome})
    report = {
        "schema": 1,
        "tool": "liestruct",
        "version": __version__,
        "request": {"algebra": algebra_spec, "analyses": list(analyses)},
        "algebra": {
            "dim": g.dim,
            "flags": g.flags(),
            "definition": to_dict(g),
        },
        "analyses": results,
        "timing_seconds": round(time.monotonic() - started, 6),
    }
    return report


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = []
    alg = report["algebra"]
    lines.append("algebra: %s (dim %d)" % (report["request"]["algebra"], alg["dim"]))
    flags = alg["flags"]
    lines.append(
        "flags:   " + ", ".join(k for k in sorted(flags) if flags[k])
    )
    for item in report["analyses"]:
        status = "ok" if item.get("ok") else "FAIL"
        detail = {
            k: v
            for k, v in item.items()
            if k not in ("name", "ok") and not isinstance(v, (list, dict))
        }
        pretty = ", ".join("%s=%s" % (k, detail[k]) for k in sorted(detail))
        lines.append("%-20s %-4s %s" % (item["name"], status, pretty))
    return "\n".join(lines) + "\n"


def _report_ok(report: dict) -> bool:
    return all(item.get("ok", False) for item in report["analyses"])


def _max_dim(text: str) -> int:
    """``--max-dim``: an integer of at least 1; argparse makes anything else exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="liestruct",
        description="Exact structure theory of finite-dimensional Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command")
    parser.add_argument("--algebra", help="algebra description (e.g. sl:2, "
                        "cur:sl:2,jet:1,3, sum:sl:2+sl:2, @file.json)")
    parser.add_argument("--analyze", default="",
                        help="comma-separated analyses: " + ", ".join(ANALYSES))
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--A", dest="coeff",
                        help="coefficient algebra for sections:* analyses")
    parser.add_argument("--m", type=int, default=1,
                        help="jet directions for sections:xder / sections:symbol")
    parser.add_argument("--max-dim", type=_max_dim, default=DEFAULT_MAX_DIM,
                        help="largest algebra dimension a description may ask for "
                        "(default %(default)s)")

    sec = sub.add_parser("sections", help="run a single section-model check")
    sec.add_argument("--check", required=True, choices=SECTION_CHECKS)
    sec.add_argument("--k", required=True, help="fiber Lie algebra description")
    sec.add_argument("--A", dest="coeff",
                     help="coefficient algebra (jet:m,N or points:k)")
    sec.add_argument("--m", type=int, default=1)
    sec.add_argument("--max-dim", type=_max_dim, default=DEFAULT_MAX_DIM)
    sec.add_argument("--format", choices=("json", "text"), default="json")
    sec.add_argument("--out", help="write the report to this path")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "sections":
            report = run(
                args.k,
                ["sections:" + args.check],
                coeff_spec=args.coeff,
                m=args.m,
                max_dim=args.max_dim,
            )
        else:
            if not args.algebra:
                parser.print_usage(sys.stderr)
                print("error: --algebra is required", file=sys.stderr)
                return 2
            analyses = [s for s in args.analyze.split(",") if s]
            report = run(args.algebra, analyses, coeff_spec=args.coeff, m=args.m,
                         max_dim=args.max_dim)
    except SpecParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except LiestructError as exc:  # a JacobiError too
        print("error: %s" % exc, file=sys.stderr)
        return 1

    text = emit(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if _report_ok(report) else 1


if __name__ == "__main__":
    sys.exit(main())
