"""CLI reports and demo output stay byte-identical: sha256 digests.

Refactors of the exact core must not change a single byte of what the CLI
or the demos print. Each CLI case runs ``cli.run`` and hashes
``cli.emit(report, fmt)`` for both formats, with ``timing_seconds`` removed;
for the ``@file`` cases the file path in ``request.algebra`` is blanked too.
Each demo runs as a script and its stdout is hashed. The stored report
digests were computed before the subspace bases became sparse and the
Matrix arithmetic stopped re-coercing its results, the demo digests before
the Killing form and the Casimirs moved to integer sums; a digest that
changes on purpose is recomputed with ``_digests`` (or ``sha256sum`` of the
demo's output) and replaced here. The largest classical algebras that the
CLI admits by default are pinned the same way, by the digest of ``to_dict``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liestruct import (cli, classical, current_algebra, derivations, inner_derivations,
                       quadratic_extension, to_dict)

ALL = ["flags", "der", "cent", "jspace", "split", "decompose", "complex", "casimir"]
SECTIONS = ["sections:" + c for c in (
    "center", "commutator", "xder", "symbol", "derdecomp", "centroid", "indec",
    "spart", "multinom", "jetauto")]

# case id -> (algebra spec or field constant c of sl:2 (x) Q[r]/(r^2 - c), analyses, --A)
CASES = {
    "sl:3": ("sl:3", ALL, None),
    "su:3": ("su:3", ALL, None),
    "gl:3": ("gl:3", ALL, None),
    "u:3": ("u:3", ALL, None),
    "so:5": ("so:5", ALL, None),
    "sp:4": ("sp:4", ALL, None),
    "cur:sl:2,jet:1,3": ("cur:sl:2,jet:1,3", ALL, None),
    "cur:sl:2,jet:2,2": ("cur:sl:2,jet:2,2", ALL, None),
    "cur:sl:2,points:3": ("cur:sl:2,points:3", ALL, None),
    "sum:sl:2+sl:3": ("sum:sl:2+sl:3", ALL, None),
    "ex:2dim": ("ex:2dim", ALL, None),
    "sl:2 sections jet:1,3": ("sl:2", SECTIONS, "jet:1,3"),
    "sl:2 (x) Q(i) file": (-1, ALL, None),
    "sl:2 (x) Q(sqrt2) file": (2, ALL, None),
}

DIGESTS = {
    "sl:3": {
        "json": "57833ba14ac4774530140641c6be9488ccd8354665b9e7e65ddaa79125f3280c",
        "text": "4233703c133d496da466180a781af85e7e3dc0dd18396de69aebc954fe731bb5",
    },
    "su:3": {
        "json": "b03e0e057f3534bb6e1143654309e5f6709858ee540902691108acbab6e40802",
        "text": "5e7aa25463babb6bff40693c01cdc84371aa311c1dac260e82ec0f80bafd683e",
    },
    "gl:3": {
        "json": "3e46b209bfb72f7cb9015ceb9d7472a490fd62d9ff95237f2c4040bb1e0eb6a4",
        "text": "90649abec1a30b360a6048282312861b19d7f0ba5117c25720f04a59122789a1",
    },
    "u:3": {
        "json": "ace035bcf02392a0c71e7a20811d392d0df0632b369f565fd638e12e16a43f3b",
        "text": "ca82d717b7cd11a0d8a7cc9bfbe9a6a631bab034b3f522c62917d37b6f0ac4ca",
    },
    "so:5": {
        "json": "b17d748638dc44e7bbe48e40690c039858e38127d1e3844dbe461b8da13be759",
        "text": "7acef952277facc98eff49d4db70419dd23318219509fed2c95d444c0c3520d4",
    },
    "sp:4": {
        "json": "ed37e13d5ecb84da4d0e1e386aeedff5a937bde813890ca2a639bcb5ed011952",
        "text": "c4b187c41b4e38cdb85400504d0f5a6cdc08b779aecab9b0f60330491da3538e",
    },
    "cur:sl:2,jet:1,3": {
        "json": "e47dd6f1f583e519c397d3af5635321177a59e2daf84d37f5f0f652329304883",
        "text": "81abe9eb3dbf7d7782897d6610df98db438b32b63a49024fd8eae73530cc8c07",
    },
    "cur:sl:2,jet:2,2": {
        "json": "4f598bfe3747b42fc469b95000688dd6d9232773f9bb68cc1281e439f7d07592",
        "text": "80c357e7c69861182bdc29e5d81d5c37a076bfb1c415d76fb054492f4aaeb8be",
    },
    "cur:sl:2,points:3": {
        "json": "ad40a38f6a900a6a7c65742d0f42b513624afd824a92a044148a0d30dac97fd0",
        "text": "518801a70e6eb1e98125bbe002dd8f67ac29c7ff8c9435bc4995e7c4763b364c",
    },
    "sum:sl:2+sl:3": {
        "json": "9ac011c1688f75688bc80c53bc58fc9a3d2bcf9c09f80afa93c1075eccfbc736",
        "text": "d52491c603b388a3206de73c3dabf3a4d9932c17fc6fe06c88b018e02fa64915",
    },
    "ex:2dim": {
        "json": "8592a34b94116b803995d1beed21951e654fda61a72fc99ad9afcbfda0907e16",
        "text": "f404adce065ae9238cc493d5522c49aa8c0f1181fe6cd3e230054e70fe30c5c6",
    },
    "sl:2 sections jet:1,3": {
        "json": "6171b288aa62c5e682a12240b5106c0137d3aa9bcfa163faf2a8afa93b50e063",
        "text": "83a8f0917ae3dc1d2fd583eb6827e9b7df9098ee220a9894fedbd426ba018b8d",
    },
    "sl:2 (x) Q(i) file": {
        "json": "1524da30f83af8847a6271ff0e63f1085503a434badfe71adaa6e9be7eeb34d3",
        "text": "526321eb9da098b8bde2802edff85e6ca9c0b55bd22affb44e4ca8efba161576",
    },
    "sl:2 (x) Q(sqrt2) file": {
        "json": "e2e4bc60a2fcab69a3dd2f7efafce8418233b011da36d442847ae450b71617d0",
        "text": "3dbf0360bdd833f00681e015de6db1c42d4f55781b8312ba3e5b4b3bb3e58965",
    },
}


def _spec(case_id, tmp_path) -> str:
    """The case's algebra spec, a field constant written to an @file first."""
    spec = CASES[case_id][0]
    if not isinstance(spec, str):
        path = tmp_path / "field.json"
        g = current_algebra(classical("sl", 2), quadratic_extension(spec))
        path.write_text(json.dumps(to_dict(g)))
        spec = "@" + str(path)
    return spec


def _digests(case_id, tmp_path) -> dict:
    _, analyses, coeff = CASES[case_id]
    spec = _spec(case_id, tmp_path)
    report = cli.run(spec, analyses, coeff)
    del report["timing_seconds"]
    if spec.startswith("@"):
        report["request"]["algebra"] = ""
    return {fmt: hashlib.sha256(cli.emit(report, fmt).encode()).hexdigest()
            for fmt in ("json", "text")}


@pytest.mark.parametrize("case_id", CASES)
def test_report_is_byte_identical(case_id, tmp_path):
    assert _digests(case_id, tmp_path) == DIGESTS[case_id]


@pytest.mark.parametrize("case_id", [c for c, case in CASES.items() if "der" in case[1]])
def test_der_report_reads_the_inner_dimension_off_the_center(case_id, tmp_path):
    spec = _spec(case_id, tmp_path)
    der = cli.run(spec, ["der"])["analyses"][0]
    g = cli.parse_algebra(spec)
    assert der["inner_dim"] == inner_derivations(g).dim == g.dim - g.center().dim
    assert der["outer_dim"] == derivations(g).dim - inner_derivations(g).dim


DEMO_DIGESTS = {
    "structure_tour.py": "46e4c7b3894f488ddb10e6538af75a1dbca6b8dcc20096551862e73c1a5c3db6",
    "decompose_demo.py": "9296272b3285503a866119ce87c4a16128ccfb9fb66c3e6b62f9b922d6540c7c",
    "sections_demo.py": "d80a7bddf3bd62ce4f24539cb5966e2afb70c2d5582b57d5ccdc8d267f30c4d5",
}


@pytest.mark.parametrize("demo", DEMO_DIGESTS)
def test_demo_output_is_byte_identical(demo):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(root / "demos" / demo)], capture_output=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path)).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[demo]


# sha256 of json.dumps(to_dict(g), sort_keys=True) for the largest classical
# algebras the CLI admits by default (dimension 55-64), computed when every
# algebra was still built from dense matrices and (P^-1)^T
CLASSICAL_DIGESTS = {
    ("sl", 8): "2d4a073cbcd2b5398af31268da9b18fb114e9225413b8d8055a5c23fcd423e6c",
    ("gl", 8): "96d32177710bc519b1b0aaf30b1b011c2f7af9a0b59493f681031eb1929d62b8",
    ("so", 11): "46ffdaafa02887cec2e051af32cbe70d63806079c6bc6788f2792ccfb25296ce",
    ("sp", 10): "f93dc04ef7e4b7f3ea62038c67000ae830ae67adf6b75efd9936edbaed98ae40",
    ("u", 8): "557dfccc13b0e6dbed42e8a723dd4befe15c25c67ccdd5b3ebf56c3397e322e6",
    ("su", 8): "666834e41df1a0d0c1969ce2687ed1ca79732cbc46af6a42160d15c033060f8d",
}


@pytest.mark.parametrize("kind, n", CLASSICAL_DIGESTS)
def test_large_classical_algebra_is_unchanged(kind, n):
    data = json.dumps(to_dict(classical(kind, n)), sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == CLASSICAL_DIGESTS[kind, n]
