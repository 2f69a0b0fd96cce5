"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import reference as R  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def first_laps(workload, seed, laps=2):
    return list(islice(workload.laps(seed), laps))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = W.WORKLOADS[name]()
    assert first_laps(workload, 7) == first_laps(workload, 7)
    assert first_laps(workload, 7) != first_laps(workload, 8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matrix_cold_never_repeats_an_m_l_pair_in_a_lap(seed):
    for lap in islice(W.MatrixCold().laps(seed), 3):
        pairs = [(m_of(f, n), l) for _, f, n, l in lap]
        assert len(set(pairs)) == len(pairs) == 13 * 6


def m_of(family: str, n: int) -> int:
    return {"U": n, "SU": n, "Sp": 2 * n, "SpinEven": 2 * n, "SpinOdd": 2 * n + 1}[family]


@pytest.mark.parametrize("name", ["matrix-cold", "eigen-spectrum"])
def test_every_lap_of_every_seed_has_the_same_mix(name):
    def mix(lap):
        # G2's l and the l that only checks an eigenvector are free by design
        return sorted(op[:3] if op[0] == "eigenvector" or op[1] == "G2" else op for op in lap)

    workload = W.WORKLOADS[name]()
    mixes = {tuple(mix(lap)) for seed in (1, 2) for lap in islice(workload.laps(seed), 3)}
    assert len(mixes) == 1


def test_matrix_cold_prefixes_keep_the_sizes():
    lap = next(W.MatrixCold().laps(1))
    for r in range(6):
        rnd = lap[13 * r: 13 * (r + 1)]
        assert sorted((m_of(f, n) - 16) // 5 for _, f, n, _ in rnd) == list(range(13))


def test_self_time_on_a_synthetic_span_tree():
    #  0 root  [0, 10]
    #  1   a   [1, 4]
    #  2   b   [5, 9]
    #  3     c [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert tracing.self_times(start, end, parent) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_wraps_every_namespace_and_restores_them(tmp_path):
    import adamsops
    import adamsops.counts as C
    import adamsops.ktheory as K

    original = C.mu_closed
    tracer = tracing.Tracer()
    tracer.install(["counts:mu_closed", "ktheory:adams_matrix", "counts:no_such_function"])
    try:
        assert K.mu_closed is C.mu_closed is adamsops.mu_closed
        assert C.mu_closed is not original
        K.adams_matrix(K.GroupSpec("U", 3), 2)
    finally:
        tracer.uninstall()
    assert C.mu_closed is K.mu_closed is adamsops.mu_closed is original
    assert tracer.skipped == ["counts:no_such_function"]
    totals = tracer.totals()
    assert totals["ktheory.adams_matrix"][0] == 1
    assert totals["counts.mu_closed"][0] == 9
    root = tracer.names.index("ktheory.adams_matrix")
    assert all(
        tracer.parent[i] == 0 for i in range(len(tracer)) if tracer.name_id[i] != root
    )
    tracer.write(tmp_path / "spans")
    back = tracing.read_spans(tmp_path / "spans")
    assert back["names"] == tracer.names
    assert back["start"] == tracer.start.tolist()
    assert back["parent"] == tracer.parent.tolist()


class WrongMatrix(W.MatrixCold):
    """Returns the right matrix with one entry off by one, or raises."""

    def execute(self, op):
        if op[3] == 50:
            raise W.K.ConsistencyError("planted")
        _, family, n, l = op
        mat = W.K.adams_matrix(W.K.GroupSpec(family, n), l)
        rows = [list(r) for r in mat.entries]
        rows[0][0] += 1
        return W.K.AdamsMatrix(mat.group, l, tuple(map(tuple, rows)))


def test_a_wrong_matrix_is_counted_as_a_failure_not_dropped():
    workload = WrongMatrix()
    workload.laps = lambda seed: iter([[op for op in next(W.MatrixCold().laps(seed)) if op[2] < 20][:12]])
    result = run.run_pass(
        workload, 1, workload.execute, stop=lambda elapsed, done: False, cpus=run.CpuRotation(1.0)
    )
    assert len(result.latencies) == result.failed == 12
    assert result.consistency_errors == sum("planted" in p for p in result.problems) > 0


def test_matrix_problem_catches_shape_type_and_trace():
    good = R.unitary_matrix(3, 2)
    assert R.matrix_problem(good, "U", 3, 2) is None
    assert "shape" in R.matrix_problem(good[:2], "U", 3, 2)
    assert "not an int" in R.matrix_problem([[float(e) for e in r] for r in good], "U", 3, 2)
    bad = [list(r) for r in good]
    bad[1][1] += 1
    assert "trace" in R.matrix_problem(bad, "U", 3, 2)


def test_reference_counts_match_the_definition():
    from itertools import product

    for n, l in [(1, 1), (3, 2), (4, 3), (2, 5)]:
        row = R.count_row(n, l)
        for s in range(len(row)):
            assert row[s] == sum(1 for t in product(range(l), repeat=n) if sum(t) == s)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 101)])[:2] == (90.0, 90.0)
    assert run.tail_percentile([float(i) for i in range(1, 1001)])[:2] == (99.0, 990.0)
    assert run.tail_percentile([float(i) for i in range(1, 51)]) == (80.0, 40.0, 10)
    q, _, beyond = run.tail_percentile([1.0] * 30)
    assert q == 50.0 and beyond == 15


def test_cli_output_checks_parse_every_format():
    workload = W.CliCold()
    for fmt in W.CliCold.FORMATS:
        op = ("compute", "SpinEven", 4, 3, fmt)
        out = workload.execute_in_process(op)
        assert workload.check(op, out) is None
        other_l = workload.execute_in_process(("compute", "SpinEven", 4, 2, fmt))
        assert workload.check(op, other_l) is not None
    op = ("mu", 5, 3, 2, 1)
    want = R.mu(5, 3, 2, 1)
    assert workload.check(op, W.CliResult(0, f"{want}\n", "")) is None
    assert workload.check(op, W.CliResult(0, f"{want + 1}\n", "")) is not None
    assert workload.check(op, W.CliResult(2, "", "error")) is not None


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()
    }


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    values, result = run.traced(W.EigenSpectrum(), 1, 1.0)
    assert list(values) == list(run.PER_LAYER)
    assert result.failed == 0 and len(result.latencies) > 0
    assert values["eigen.eigenvector.self_ms"] > 0 and values["trace.overhead_ratio"] > 0
    assert (tmp_path / "spans-eigen-spectrum.bin").stat().st_size > 0
