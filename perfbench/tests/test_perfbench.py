"""Tests of the benchmark itself: inputs, checks, tracing and a smoke run.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# cheap kinds of each workload, for runs that must finish in seconds
SMALL_MIX = {
    "ONESHOT_MIX": (
        ("sl:2", workloads.ALL, None),
        ("sum:sl:2+sl:2", workloads.ALL, None),
        ("cur:sl:2,jet:1,2", workloads.ALL, None),
        ("gl:3", ("flags", "der", "decompose", "casimir"), None),
        ("sl:2", workloads.SECTIONS, "jet:1,3"),
        ("sl:2", workloads.SECTIONS_NO_JET, "points:2"),
    ),
    "ADVERSARIAL_MIX": (
        ("sl:2", workloads.ALL, "dense"),
        ("fld:i", workloads.ALL, "perm"),
        ("fld:r2", workloads.ALL, "dense"),
        ("sum:sl:2+sl:2", ("der", "decompose"), "dense"),
    ),
    "SESSION_MIX": (("sl:2", "jet:1,2", 1, None), ("sl:2", "points:2", 2, None),
                    ("sl:2", "jet:1,2", 2, 0)),
}


@pytest.fixture(scope="module")
def ls():
    return run.fresh_import()


def _files(ls, workload, seed, path):
    os.makedirs(str(path), exist_ok=True)
    reqs = workloads.generate(ls, workload, seed, 0, str(path))
    if workload == "session":
        return [json.dumps(r.payload["fiber"], sort_keys=True) for r in reqs]
    out = []
    for r in reqs:
        with open(r.payload["path"], "rb") as fh:
            out.append(fh.read())
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_basis(ls, workload, tmp_path):
    first = _files(ls, workload, 7, tmp_path / "a")
    again = _files(ls, workload, 7, tmp_path / "b")
    other = _files(ls, workload, 8, tmp_path / "c")
    assert first == again
    assert first != other
    # at least most requests change basis with the seed (sl:2 has 6 orders)
    assert sum(x != y for x, y in zip(first, other)) > len(first) // 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_table_passes_jacobi(ls, workload, tmp_path):
    reqs = workloads.generate(ls, workload, 3, 0, str(tmp_path))
    for req in reqs:
        if req.kind == "cli":
            with open(req.payload["path"], encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = req.payload["fiber"]
        g = ls.from_dict(data, validate=True)
        assert g.dim == data["dim"]


def test_jacobi_check_rejects_a_broken_table(ls):
    data = inputs.permute(ls.to_dict(ls.classical("sl", 2)), inputs.request_rng("t", 0, 0, 0), "")
    entry = data["brackets"][0]
    key = next(iter(entry["value"]))
    entry["value"][key] = str(int(entry["value"][key]) + 1)
    with pytest.raises(ls.JacobiError):
        ls.from_dict(data)


def test_unimodular_change_of_basis_is_inverted(ls):
    rng = inputs.request_rng("t", 0, 0, 0)
    b, inv = inputs.unimodular_pair(6, rng, steps=12)
    prod = [[sum(b[i][k] * inv[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
    assert prod == [[int(i == j) for j in range(6)] for i in range(6)]


def test_oneshot_and_adversarial_never_repeat_an_algebra(ls, tmp_path):
    for workload in ("oneshot", "adversarial"):
        keys = []
        for cycle in range(2):
            keys += [r.key for r in workloads.generate(ls, workload, 5, cycle, str(tmp_path))]
        assert workloads.repeat_share(keys) == 0


def test_session_mostly_reuses_algebras(ls):
    reqs = workloads.generate(ls, "session", 5, 0, "")
    assert workloads.repeat_share([r.key for r in reqs]) > 0.5


def test_wrong_answers_are_caught(ls, tmp_path):
    req = workloads.generate(ls, "oneshot", 1, 0, str(tmp_path))[1]  # sl:2, all analyses
    report, text = workloads.execute(ls, req)
    assert workloads.check(req, (report, text)) is None
    report["analyses"][2]["dim"] += 1  # cent
    text = ls.cli.emit(report, "json")
    assert "cent" in workloads.check(req, (report, text))
    refusal = inputs.Refusal("PreconditionError")
    assert inputs.check_item({"name": "decompose", "ok": True}, refusal)
    assert inputs.check_item(
        {"name": "decompose", "ok": False, "error": "PreconditionError: center"}, refusal) is None


def _unwrapped_bindings(ls, tracer):
    """Names in liestruct modules that still bind an original traced function."""
    originals = {id(fn) for fn in tracer.originals}
    out = []
    for mod in [ls] + [mod for _, mod in tracing.liestruct_modules()]:
        for attr, obj in vars(mod).items():
            if id(obj) in originals:
                out.append("%s.%s" % (mod.__name__, attr))
            if isinstance(obj, type) and obj.__module__.startswith("liestruct"):
                for meth, raw in vars(obj).items():
                    if id(getattr(raw, "__func__", raw)) in originals:
                        out.append("%s.%s.%s" % (mod.__name__, attr, meth))
    return out


def test_traced_modules_bind_no_unwrapped_original():
    ls = run.fresh_import()
    tracer = tracing.install(ls)
    assert _unwrapped_bindings(ls, tracer) == []
    names = {getattr(fn, "__name__", "") for fn in tracer.originals}
    assert {"kernel_of_rows", "min_poly", "centroid", "emit", "__matmul__"} <= names
    # the name copied into endo by "from .linalg import kernel_of_rows" is wrapped too
    endo, linalg = sys.modules["liestruct.endo"], sys.modules["liestruct.linalg"]
    assert endo.kernel_of_rows.__wrapped__ is linalg.kernel_of_rows.__wrapped__
    # spans nest, and kernel calls get their rows counted as assembly
    ls.centroid(ls.classical("sl", 2))
    names = [s[0] for s in tracer.spans]
    assert "linalg.kernel_of_rows" in names and "assembly" in names
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["linalg.kernel_calls"] >= 1
    assert metrics["assembly.rows"] > 0
    assert 0 < metrics["linalg.row_nnz_ratio"] < 1
    assert metrics["memo.misses"] >= 1  # centroid(sl:2) was computed once
    run.fresh_import()  # leave unwrapped modules behind


def test_deadline_fails_a_request_and_the_run_goes_on(ls, monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.2)
    monkeypatch.setattr(workloads, "execute", lambda _ls, _req: _spin())
    old = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    try:
        rec = run._one_request(ls, inputs.Request("cli", "spin", "k", {}))
    finally:
        run.signal.signal(run.signal.SIGALRM, old)
    assert rec["latency"] is None and "deadline" in rec["error"] and not rec["wrong"]


def _spin():
    while True:
        pass


def test_degree_four_field_decompose_is_cut_by_the_deadline(ls, monkeypatch, tmp_path):
    """sl(2) over Q(sqrt 2, sqrt 3): decompose is stuck in rational-root
    trial division (ROADMAP item 4(b)); it is kept out of the timed mix."""
    data = inputs.permute(ls.to_dict(inputs.base_algebra(ls, "fld:r2r3")),
                          inputs.request_rng("t", 0, 0, 0), "")
    path = str(tmp_path / "r2r3.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    shape = inputs.shape_of("fld:r2r3")
    req = inputs.Request("cli", "fld:r2r3 [decompose]", "k", {
        "path": path, "analyses": ["decompose"], "coeff": None, "dim": shape.dim,
        "flags": shape.flags, "expected": [inputs.expected_answer(shape, "decompose")]})
    monkeypatch.setattr(run, "DEADLINE_S", 2.0)
    old = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    try:
        rec = run._one_request(ls, req)
    finally:
        run.signal.signal(run.signal.SIGALRM, old)
    # once the root search is polynomial the request passes instead
    assert ("deadline" in (rec["error"] or "")) or rec["latency"] is not None
    assert not rec["wrong"]


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, monkeypatch, capsys):
    for name, mix in SMALL_MIX.items():
        monkeypatch.setattr(workloads, name, mix)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    code = run.main(["--workload", workload, "--seed", "11", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = _bench_json()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        share = result["metrics"]["memo.repeat_share"]["value"]
        assert share > 0.5 if workload == "session" else share == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
