import csv
import inspect
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import adamsops.cli as cli
import adamsops.eigen as eigen
import adamsops.ktheory as ktheory
import adamsops.suites as suites
from adamsops.cli import MAX_DIMENSION, MAX_ROW, main
from adamsops.ktheory import AdamsMatrix, ConsistencyError, GroupSpec, adams_matrix, basis


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_json_round_trip(capsys):
    code, out, err = run(
        capsys, "compute", "--group", "U", "--rank", "2", "--l", "2", "--format", "json"
    )
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["group"] == "U"
    assert doc["rank"] == 2
    assert doc["l"] == 2
    assert doc["basis"] == ["d(L^1 s_2)", "d(L^2 s_2)"]
    assert doc["matrix"] == [["4", "0"], ["-2", "2"]]


def test_compute_g2_needs_no_rank(capsys):
    code, out, _ = run(capsys, "compute", "--group", "G2", "--l", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2
    assert doc["basis"] == ["d(rho1)", "d(rho2)"]
    assert doc["matrix"] == [["12", "-208"], ["-2", "56"]]


def test_compute_csv(capsys):
    code, out, _ = run(
        capsys, "compute", "--group", "Sp", "--rank", "2", "--l", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["d(L^1 s_4)", "d(L^2 s_4)"]
    assert rows[1] == ["8", "-16"]
    assert rows[2] == ["-2", "12"]


def test_compute_pretty(capsys):
    code, out, _ = run(capsys, "compute", "--group", "SpinOdd", "--rank", "2", "--l", "2")
    assert code == 0
    assert "psi^2 on Spin(5)" in out
    assert "d(S)" in out


def test_compute_missing_rank_is_usage_error(capsys):
    code, out, err = run(capsys, "compute", "--group", "U", "--l", "2")
    assert code == 2
    assert out == ""
    assert "rank" in err


def test_compute_invalid_rank_and_l(capsys):
    code, _, err = run(capsys, "compute", "--group", "SpinEven", "--rank", "2", "--l", "2")
    assert code == 2
    assert "SpinEven" in err
    code, _, err = run(capsys, "compute", "--group", "U", "--rank", "3", "--l", "0")
    assert code == 2


def test_unknown_family_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["compute", "--group", "SO", "--rank", "3", "--l", "2"])
    assert exc_info.value.code == 2


def test_compute_internal_failure_exits_3(capsys, monkeypatch):
    def broken(group, l, cross_check=True):
        raise ConsistencyError("forced disagreement")

    monkeypatch.setattr("adamsops.cli.adams_matrix", broken)
    code, out, err = run(capsys, "compute", "--group", "U", "--rank", "2", "--l", "2")
    assert code == 3
    assert "forced disagreement" in err


class _CountedInt(int):
    rendered = 0

    def __str__(self):
        _CountedInt.rendered += 1
        return super().__str__()


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_compute_renders_each_entry_once(capsys, monkeypatch, fmt):
    argv = ["compute", "--group", "SpinOdd", "--rank", "3", "--l", "5", "--format", fmt]
    expected = run(capsys, *argv)
    mat = adams_matrix(GroupSpec("SpinOdd", 3), 5)
    counted = tuple(tuple(map(_CountedInt, row)) for row in mat.entries)
    monkeypatch.setattr(cli, "adams_matrix", lambda group, l: AdamsMatrix(group, l, counted))
    monkeypatch.setattr(_CountedInt, "rendered", 0)
    assert run(capsys, *argv) == expected
    assert _CountedInt.rendered == mat.dim**2


@pytest.mark.parametrize("argv", [
    *(["compute", "--group", "Sp", "--rank", "3", "--l", "2", "--format", fmt]
      for fmt in ("json", "csv", "pretty")),
    ["eigen", "--rank", "4", "--l", "3", "--format", "json"],
], ids=["compute-json", "compute-csv", "compute-pretty", "eigen-json"])
def test_a_command_reads_the_basis_once(capsys, monkeypatch, argv):
    calls = []

    def counted(group):
        calls.append(group)
        return basis(group)

    for module in (ktheory, cli):
        monkeypatch.setattr(module, "basis", counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert len(calls) == 1


def test_eigen_symbolic_eigenvalues(capsys):
    code, out, _ = run(capsys, "eigen", "--rank", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "matrix" not in doc and "l" not in doc
    assert doc["eigen"]["levels"] == [0, 1]
    assert doc["eigen"]["eigenvalues"] == ["l^2", "l^1"]
    assert doc["eigen"]["vectors"] == [["1", "-1"], ["0", "2"]]


def test_eigen_with_concrete_l(capsys):
    code, out, _ = run(capsys, "eigen", "--rank", "3", "--l", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["l"] == 2
    assert doc["matrix"] == [["6", "-2", "0"], ["-2", "6", "0"], ["0", "-6", "2"]]
    assert doc["eigen"]["eigenvalues"] == ["8", "4", "2"]
    # fractional coordinates serialize as exact fraction strings
    code, out, _ = run(capsys, "eigen", "--rank", "4", "--format", "json")
    doc = json.loads(out)
    assert doc["eigen"]["vectors"][2] == ["4/3", "2/3", "4/3", "-22/3"]


def test_eigen_integral_display(capsys):
    code, out, _ = run(capsys, "eigen", "--rank", "4", "--integral", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    # same vector scaled by 3; still an eigenvector, now with integer entries
    assert doc["eigen"]["vectors"][2] == ["4", "2", "4", "-22"]


def test_eigen_csv(capsys):
    code, out, _ = run(capsys, "eigen", "--rank", "2", "--l", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["level", "eigenvalue", "d(L^1 s_2)", "d(L^2 s_2)"]
    assert rows[1] == ["0", "9", "1", "-1"]
    assert rows[2] == ["1", "3", "0", "2"]


def test_eigen_csv_rows_match_the_fraction_rendering(capsys):
    # the integer printer against the rule it replaced, rebuilt from the
    # coordinates as Fractions: str(c), and with --integral str(c * s), s
    # the lcm of the vector's denominators
    for n in range(1, 41):
        vectors = [eigen.eigenvector(n, k) for k in range(n)]
        scales = [lcm(*(c.denominator for c in v.coords)) for v in vectors]
        for flag, rendered in (
            ([], [[str(c) for c in v.coords] for v in vectors]),
            (["--integral"], [[str(c * s) for c in v.coords] for v, s in zip(vectors, scales)]),
        ):
            code, out, _ = run(capsys, "eigen", "--rank", str(n), "--format", "csv", *flag)
            want = [",".join([str(k), f"l^{n - k}", *row]) for k, row in enumerate(rendered)]
            assert code == 0 and out.split("\r\n")[1:] == [*want, ""], (n, flag)


def test_fraction_text_is_str_of_a_fraction():
    rng = random.Random(31)
    pairs = [(0, 1), (0, 7), (5, 1), (-5, 1), (-4, 6), (6, 3), (-6, 3), (-1, 2)]
    pairs += [(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(500)]
    pairs += [(rng.randint(-(10**40), 10**40), rng.randint(1, 10**15)) for _ in range(500)]
    for num, den in pairs:
        assert cli._fraction_text(num, den) == str(Fraction(num, den)), (num, den)


def test_no_basis_label_needs_csv_quoting():
    # csv lines are plain comma joins, the bytes of csv.writer only while no
    # field holds a comma, a quote or a line break; the other fields are
    # numbers, fractions, l^e and fixed header words
    labels = set()
    for family, spec in ktheory.FAMILY_TABLE.items():
        ranks = [spec.fixed_rank] if spec.fixed_rank else range(spec.min_rank, MAX_DIMENSION + 1)
        for n in ranks:
            if spec.dimension(n) <= MAX_DIMENSION:
                labels.update(b.label for b in basis(GroupSpec(family, n)))
    assert "d(L^256 s_256)" in labels
    assert not [label for label in labels if set(label) & set(',"\r\n')]


def test_eigen_invalid_rank(capsys):
    code, _, err = run(capsys, "eigen", "--rank", "0")
    assert code == 2


def _refuse(*args, **kwargs):
    raise AssertionError("built")


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
def test_eigen_builds_the_matrix_only_for_json(capsys, monkeypatch, fmt):
    # only json prints the matrix, so csv and pretty must not build it
    argv = ["eigen", "--rank", "3", "--l", "2", "--format", fmt]
    expected = run(capsys, *argv)
    monkeypatch.setattr(cli, "adams_matrix", _refuse)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0 and expected[1]


@pytest.mark.parametrize("l", ["0", "-2"])
@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_eigen_rejects_a_nonpositive_l_before_any_vector(capsys, monkeypatch, l, fmt):
    monkeypatch.setattr(eigen, "eigenvector", _refuse)
    monkeypatch.setattr(cli, "adams_matrix", _refuse)
    code, out, err = run(capsys, "eigen", "--rank", "3", "--l", l, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: Adams operation index must be a positive integer, got l={l}\n"


def test_mu_value(capsys):
    code, out, _ = run(capsys, "mu", "3", "2", "1", "1")
    assert code == 0
    assert out.strip() == "3"


def test_mu_check_agrees(capsys):
    code, out, _ = run(capsys, "mu", "4", "3", "2", "2", "--check")
    assert code == 0
    assert out.strip() == "19"  # x^4 coefficient of (1 + x + x^2)^4


def test_mu_check_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("adamsops.cli.mu_enumerate", lambda *a: 999)
    code, out, err = run(capsys, "mu", "3", "2", "1", "1", "--check")
    assert code == 3
    assert "999" in err


def test_mu_invalid_arguments(capsys):
    code, _, err = run(capsys, "mu", "0", "2", "1", "1")
    assert code == 2
    code, _, err = run(capsys, "mu", "3", "2", "-1", "1")
    assert code == 2


def test_verify_counts_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-rank", "3", "--max-l", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_counts_checks_the_difference_against_the_closed_form(capsys, monkeypatch):
    # a difference that is antisymmetric but wrong must fail its row
    monkeypatch.setattr("adamsops.suites.beta", lambda n, l, k, p: 0)
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-rank", "3", "--max-l", "2")
    assert code == 1
    row = "FAIL  count: table difference equals closed-form difference  [n=1, l=1, k=0, p=0]"
    assert row in out.splitlines()


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("adamsops.suites.mu_enumerate", lambda *a: 999)
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-rank", "2", "--max-l", "2")
    assert code == 1
    assert "FAIL" in out


def test_verify_reports_a_consistency_error_from_any_check(capsys, monkeypatch):
    def broken(group, l, cross_check=True):
        if (group, l, cross_check) == (GroupSpec("SpinOdd", 3), 2, False):
            raise ConsistencyError("forced non-integer entry for Spin(7), l=2")
        return adams_matrix(group, l, cross_check=cross_check)

    monkeypatch.setattr("adamsops.suites.adams_matrix", broken)
    # the composition check meets the error before the integrality check does
    code, out, err = run(capsys, "verify", "--suite", "matrices", "--max-rank", "3", "--max-l", "2")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "PASS  matrix: closed forms equal the functoriality pipeline  "
        "[Sp/SpinOdd/SpinEven/G2, rank<=3, l<=2]",
        "FAIL  matrix: composition M(m).M(l) = M(m*l)  "
        "[forced non-integer entry for Spin(7), l=2]",
        "PASS  matrix: l=1 gives the identity  [all families, rank<=3]",
        "FAIL  matrix: every entry is an integer  [forced non-integer entry for Spin(7), l=2]",
        "2/4 checks passed",
    ]


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-rank", "3", "--max-l", "2")
    assert code == 0
    assert "FAIL" not in out
    # all four suites contribute lines
    assert "count:" in out and "matrix:" in out and "eigen:" in out and "oracle:" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "adamsops", "mu", "3", "2", "1", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


@pytest.mark.parametrize("argv, flag, least, suite, value", [
    (["--suite", "counts", "--max-rank", "0"], "--max-rank", 1, "counts", 0),
    (["--suite", "matrices", "--max-l", "0"], "--max-l", 1, "matrices", 0),
    (["--suite", "counts", "--max-rank", "-3"], "--max-rank", 1, "counts", -3),
    (["--suite", "eigen", "--max-l", "1"], "--max-l", 2, "eigen", 1),
    (["--suite", "oracle", "--max-rank", "1"], "--max-rank", 2, "oracle", 1),
    (["--max-rank", "1", "--max-l", "2"], "--max-rank", 2, "oracle", 1),
])
def test_verify_rejects_an_empty_sweep(capsys, argv, flag, least, suite, value):
    # each of these used to sweep nothing, or silently run the defaults, and exit 0
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be at least {least} for the {suite} suite, got {value}\n"


SUITE_FUNCTIONS = ("counts_suite", "matrices_suite", "eigen_suite", "oracle_suite")


@pytest.mark.parametrize("suite", ["counts", "matrices", "eigen", "oracle"])
@pytest.mark.parametrize("flag", ["--max-rank", "--max-l"])
def test_verify_refuses_work_above_a_cap(capsys, monkeypatch, suite, flag):
    cap = cli._SUITES[suite][1][flag == "--max-l"]
    for name in SUITE_FUNCTIONS:
        monkeypatch.setattr(suites, name, lambda **given: pytest.fail("a check ran"))
    code, out, err = run(capsys, "verify", "--suite", suite, flag, str(cap + 1))
    assert (code, out) == (2, "")
    assert err == f"error: {flag} is {cap + 1}, above the work cap {cap} of the {suite} suite\n"
    # the cap itself is admitted, and the suite gets only the flag given
    calls = []
    for name in SUITE_FUNCTIONS:
        monkeypatch.setattr(suites, name, lambda **given: calls.append(given) or [])
    code, out, _ = run(capsys, "verify", "--suite", suite, flag, str(cap))
    assert (code, out) == (0, "0/0 checks passed\n")
    assert calls == [{flag[2:].replace("-", "_"): cap}]


def test_verify_caps_admit_every_default_sweep():
    for suite, (least, most) in cli._SUITES.items():
        parameters = inspect.signature(getattr(suites, f"{suite}_suite")).parameters
        defaults = (parameters["max_rank"].default, parameters["max_l"].default)
        for default, low, high in zip(defaults, least, most):
            assert low <= default <= high, suite


def test_verify_runs_at_the_least_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "eigen", "--max-rank", "1", "--max-l", "2")
    assert code == 0
    # the certificate row works out its own l; --max-l bounds the spectrum row
    assert "[n<=1, every l >= 1 (l = 1..n+1), all levels]" in out
    assert "[all families, rank<=1, l in (2,)]" in out
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-rank", "2", "--max-l", "1")
    assert (code, out.splitlines()[-1]) == (0, "4/4 checks passed")


@pytest.mark.parametrize("argv, message", [
    (
        ["compute", "--group", "U", "--rank", str(MAX_DIMENSION + 1), "--l", "1"],
        "U(257) at l=1: defining dimension is 257, above the work cap MAX_DIMENSION = 256",
    ),
    (
        ["compute", "--group", "SpinOdd", "--rank", str(MAX_DIMENSION // 2), "--l", "2"],
        "Spin(257) at l=2: defining dimension is 257, above the work cap MAX_DIMENSION = 256",
    ),
    (
        ["compute", "--group", "U", "--rank", "256", "--l", str(MAX_ROW // 256 + 1)],
        "U(256) at l=1025: defining dimension times l is 262400, above the work cap "
        "MAX_ROW = 262144",
    ),
    (
        ["compute", "--group", "Sp", "--rank", "128", "--l", str(MAX_ROW // 256 + 1)],
        "Sp(128) at l=1025: defining dimension times l is 262400, above the work cap "
        "MAX_ROW = 262144",
    ),
    (
        ["compute", "--group", "G2", "--l", str(MAX_ROW // 7 + 1)],
        "G2 at l=37450: defining dimension times l is 262150, above the work cap "
        "MAX_ROW = 262144",
    ),
    (
        ["mu", str(MAX_DIMENSION + 1), "2", "1", "1", "--check"],
        "mu --check at l=2: n is 257, above the work cap MAX_DIMENSION = 256",
    ),
    (
        ["mu", "3", str(MAX_ROW // 3 + 1), "1", "1", "--check"],
        "mu --check at l=87382: n times l is 262146, above the work cap MAX_ROW = 262144",
    ),
    (
        ["mu", "3000", "3000", "1", "1", "--check"],
        "mu --check at l=3000: n is 3000, above the work cap MAX_DIMENSION = 256",
    ),
    (
        # took 57 s before `eigen` had the cap
        ["eigen", "--rank", "600"],
        "eigen: rank is 600, above the work cap MAX_DIMENSION = 256",
    ),
    (
        ["eigen", "--rank", str(MAX_DIMENSION + 1), "--l", "2", "--format", "json"],
        "eigen at l=2: rank is 257, above the work cap MAX_DIMENSION = 256",
    ),
    (
        # `compute --group U --rank 3 --l 300000` is refused in the same words
        ["eigen", "--rank", "3", "--l", "300000"],
        "eigen at l=300000: rank times l is 900000, above the work cap MAX_ROW = 262144",
    ),
    (
        ["eigen", "--rank", "256", "--l", str(MAX_ROW // 256 + 1), "--integral"],
        "eigen at l=1025: rank times l is 262400, above the work cap MAX_ROW = 262144",
    ),
])
def test_work_cap_rejects_before_any_count(capsys, monkeypatch, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a count was built")

    for name in ("adams_matrix", "mu_closed", "mu_enumerate"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(eigen, "eigenvector", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_work_cap_exits_at_once_from_the_command_line():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "adamsops", "mu", "256", "1025", "1", "1", "--check"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "MAX_ROW = 262144" in proc.stderr
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("argv, message", [
    (
        ["mu", "10000", "3", "5000", "1"],
        "mu at l=3: n is 10000, above the work cap MAX_DIMENSION = 256",
    ),
    (
        ["mu", "300", "2", "1", "1"],
        "mu at l=2: n is 300, above the work cap MAX_DIMENSION = 256",
    ),
    (
        ["mu", "3", str(MAX_ROW // 3 + 1), "1", "1"],
        "mu at l=87382: n times l is 262146, above the work cap MAX_ROW = 262144",
    ),
])
def test_work_cap_applies_to_plain_mu(capsys, monkeypatch, argv, message):
    # `mu 10000 3 5000 1` took 47 s before plain `mu` had the cap
    def refuse(*args, **kwargs):
        raise AssertionError("a count was built")

    monkeypatch.setattr(cli, "mu_closed", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_work_cap_admits_its_bounds(capsys):
    code, out, _ = run(capsys, "mu", "256", "2", "1", "1")
    assert (code, out) == (0, "256\n")
    code, out, _ = run(capsys, "mu", "256", "2", "1", "1", "--check")
    assert (code, out) == (0, "256\n")
    # both caps are inclusive
    cli._require_within_caps("U(256) at l=1024", "defining dimension", 256, MAX_ROW // 256)


@pytest.mark.parametrize("family, rank", [("U", 80), ("SpinOdd", 80)])
def test_work_cap_admits_the_north_star_sizes(capsys, family, rank):
    # U(80) and Spin(161) at l = 50
    code, out, err = run(
        capsys, "compute", "--group", family, "--rank", str(rank), "--l", "50", "--format", "csv"
    )
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == rank + 1


class _Admitted(Exception):
    pass


def test_work_cap_admits_the_benchmark_commands(capsys, monkeypatch):
    # every compute and mu --check command of perfbench's cli-cold laps
    real = cli._require_within_caps

    def admit(*args):
        real(*args)
        raise _Admitted

    monkeypatch.setattr(cli, "_require_within_caps", admit)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads

        checked = 0
        for seed in range(1, 11):
            laps = workloads.CliCold().laps(seed)
            for _ in range(3):
                for op in next(laps):
                    if op[0] in ("compute", "mu"):
                        with pytest.raises(_Admitted):
                            main(workloads.CliCold.argv(op))
                        checked += 1
    finally:
        for name in ("workloads", "reference"):
            sys.modules.pop(name, None)
    assert checked == 10 * 3 * 15
