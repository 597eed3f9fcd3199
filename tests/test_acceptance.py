"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time

import pytest

from conftest import assert_subset_minimal, boolean_space, random_monotone_dnf, truth_table_sat

from monoxp import (
    AppendixCnfClassifier,
    CountingOracle,
    GradeClassifier,
    Point,
    brute_force_explanations,
    check_duality,
    enumerate_explanations,
    find_axp,
    find_cxp,
)
from monoxp.cli import main

CORPUS_SEED = 2021
CORPUS_SIZE = 55
CNF_COUNT = 24


def check(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def grade_run():
    grade = GradeClassifier()
    v = Point((10, 10, 5, 0))
    start = time.perf_counter()
    prediction = grade.classify(v)
    axp = find_axp(v, grade, order=(1, 2, 3, 4))
    cxp = find_cxp(v, grade, order=(1, 2, 3, 4))
    report = enumerate_explanations(v, grade)
    elapsed = time.perf_counter() - start
    return {
        "oracle": grade,
        "v": v,
        "prediction": prediction,
        "axp": axp,
        "cxp": cxp,
        "report": report,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def dnf_corpus():
    rng = random.Random(CORPUS_SEED)
    corpus = []
    for _ in range(CORPUS_SIZE):
        n = rng.randint(2, 7)
        clf = random_monotone_dnf(n, rng.randint(1, n), rng)
        v = Point(tuple(rng.randint(0, 1) for _ in range(n)))
        corpus.append((clf, v))
    return corpus


@pytest.fixture(scope="module")
def corpus_runs(dnf_corpus):
    start = time.perf_counter()
    runs = []
    for clf, v in dnf_corpus:
        report = enumerate_explanations(v, clf)
        axps, cxps = brute_force_explanations(v, clf)
        runs.append((clf, v, report, set(axps), set(cxps)))
    return runs, time.perf_counter() - start


def _random_nontrivial_cnf(rng):
    while True:
        k = rng.randint(1, 4)
        clauses = []
        for _ in range(rng.randint(1, 2 * k)):
            variables = rng.sample(range(1, k + 1), rng.randint(1, k))
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        common = set(clauses[0]).intersection(*map(set, clauses[1:])) if clauses else set()
        if not common:
            return k, clauses


@pytest.fixture(scope="module")
def certificate_runs():
    rng = random.Random(CORPUS_SEED + 1)
    start = time.perf_counter()
    runs = []
    for _ in range(CNF_COUNT):
        k, clauses = _random_nontrivial_cnf(rng)
        clf = AppendixCnfClassifier(boolean_space(2 * k), clauses)
        satisfiable = truth_table_sat(k, clauses)
        ones = Point((1,) * (2 * k))
        zeros = Point((0,) * (2 * k))
        ones_report = enumerate_explanations(ones, clf)
        zeros_report = enumerate_explanations(zeros, clf)
        runs.append((clf, satisfiable, ones, ones_report, zeros, zeros_report))
    return runs, time.perf_counter() - start


_sweep_explanations: list = []


def test_criterion_1_running_example(grade_run):
    report = grade_run["report"]
    ok = (
        grade_run["prediction"] == "A"
        and grade_run["axp"].features == {1, 2}
        and grade_run["cxp"].features == {2}
        and report.complete
        and report.axp_sets() == {frozenset({1, 2})}
        and report.cxp_sets() == {frozenset({1}), frozenset({2})}
        and report.sat_calls == 4
        and grade_run["elapsed"] < 1.0
    )
    check(
        "criterion 1: running-example reproduction",
        ok,
        f"prediction={grade_run['prediction']}, axp={sorted(grade_run['axp'].features)}, "
        f"cxp={sorted(grade_run['cxp'].features)}, sat_calls={report.sat_calls}, "
        f"elapsed={grade_run['elapsed']:.3f}s",
    )


def test_criterion_2_oracle_call_bound(dnf_corpus, grade_run):
    worst = 0.0
    violations = 0
    cases = 0

    def sweep(clf, v, order=None, seeds=((), None)):
        nonlocal worst, violations, cases
        n = clf.space.arity
        bound = 2 * n + 2
        for finder in (find_axp, find_cxp):
            counting = CountingOracle(clf)
            expl = finder(v, counting, order=order)
            _sweep_explanations.append((clf, v, expl))
            cases += 1
            worst = max(worst, counting.call_count / bound)
            if counting.call_count > bound:
                violations += 1

    rng = random.Random(CORPUS_SEED + 2)
    for clf, v in dnf_corpus:
        order = list(clf.space.features)
        sweep(clf, v)
        rng.shuffle(order)
        sweep(clf, v, order=order)
    sweep(grade_run["oracle"], grade_run["v"])
    check(
        "criterion 2: per-call oracle bound of 2N+2 (cache disabled)",
        violations == 0 and cases >= 2 * len(dnf_corpus),
        f"{cases} invocations, worst usage {worst:.2f} of the bound",
    )


def test_criterion_3_brute_force_equivalence(corpus_runs):
    runs, elapsed = corpus_runs
    mismatches = [
        (clf, v)
        for clf, v, report, axps, cxps in runs
        if not (report.complete and report.axp_sets() == axps and report.cxp_sets() == cxps)
    ]
    check(
        "criterion 3: enumeration equals brute force on random DNF corpus",
        len(runs) >= 50 and not mismatches and elapsed < 30.0,
        f"{len(runs)} instances, elapsed={elapsed:.2f}s",
    )


def test_criterion_4_mhs_duality(grade_run, corpus_runs):
    runs, _ = corpus_runs
    failures = []
    for _, _, report, _, _ in runs:
        ok, counterexample = check_duality(report.axps, report.cxps)
        if not ok:
            failures.append(counterexample)
    ok, counterexample = check_duality(grade_run["report"].axps, grade_run["report"].cxps)
    if not ok:
        failures.append(counterexample)
    check(
        "criterion 4: hitting-set duality on every completed enumeration",
        not failures,
        f"{len(runs) + 1} enumerations checked",
    )


def test_criterion_5_sat_call_accounting(grade_run, corpus_runs, certificate_runs):
    reports = [grade_run["report"]]
    reports += [report for _, _, report, _, _ in corpus_runs[0]]
    for _, _, _, ones_report, _, zeros_report in certificate_runs[0]:
        reports += [ones_report, zeros_report]
    bad = [r for r in reports if r.complete and r.sat_calls != len(r.axps) + len(r.cxps) + 1]
    check(
        "criterion 5: sat_calls equals |AXp| + |CXp| + 1 on completed runs",
        not bad and all(r.complete for r in reports),
        f"{len(reports)} runs checked",
    )


def test_criterion_6_satisfiability_certificate(certificate_runs):
    runs, elapsed = certificate_runs
    failures = 0
    for clf, satisfiable, ones, ones_report, zeros, zeros_report in runs:
        half = clf.space.arity / 2
        bf_ones = brute_force_explanations(ones, clf)
        bf_zeros = brute_force_explanations(zeros, clf)
        if ones_report.axp_sets() != set(bf_ones[0]) or zeros_report.cxp_sets() != set(bf_zeros[1]):
            failures += 1
            continue
        if (len(ones_report.axps) > half) != satisfiable:
            failures += 1
        if (len(zeros_report.cxps) > half) != satisfiable:
            failures += 1
    check(
        "criterion 6: explanation counts certify source-CNF satisfiability",
        len(runs) >= 20 and failures == 0 and elapsed < 10.0,
        f"{len(runs)} CNFs, elapsed={elapsed:.2f}s",
    )


def test_criterion_7_bench_scale_substitute(tmp_path):
    rng = random.Random(CORPUS_SEED + 3)
    clf = random_monotone_dnf(7, 5, rng)
    spec_path = tmp_path / "bench.json"
    spec_path.write_text(
        json.dumps(
            {
                "schema": 1,
                "kind": "monotone-dnf",
                "features": [
                    {"name": f"f{i}", "kind": "boolean", "lower": 0, "upper": 1} for i in range(1, 8)
                ],
                "terms": [sorted(t) for t in clf.terms],
            }
        )
    )
    rows = [",".join(str(rng.randint(0, 1)) for _ in range(7)) for _ in range(100)]
    instances_path = tmp_path / "instances.csv"
    instances_path.write_text("\n".join(rows) + "\n")
    output_path = tmp_path / "records.jsonl"
    start = time.perf_counter()
    code = main(
        ["bench", "--spec", str(spec_path), "--instances", str(instances_path), "--output", str(output_path)]
    )
    elapsed = time.perf_counter() - start
    records = [json.loads(line) for line in output_path.read_text().splitlines()]
    aggregate = records[-1]
    per_instance = [r for r in records[:-1] if r["type"] == "instance"]
    count = len(per_instance)
    axp_total = sum(r["axp_count"] for r in per_instance)
    cxp_total = sum(r["cxp_count"] for r in per_instance)
    time_total = sum(r["time_total"] for r in per_instance)
    time_classifier = sum(r["time_classifier"] for r in per_instance)
    recomputed = {
        "instances": count,
        "axp_count_avg": axp_total / count,
        "cxp_count_avg": cxp_total / count,
        "axp_size_avg": sum(len(f) for r in per_instance for f in r["axps"]) / axp_total,
        "cxp_size_avg": sum(len(f) for r in per_instance for f in r["cxps"]) / cxp_total,
        "oracle_calls_avg": sum(r["oracle_calls"] for r in per_instance) / count,
        "sat_calls_avg": sum(r["sat_calls"] for r in per_instance) / count,
        "cache_hits_avg": sum(r["cache_hits"] for r in per_instance) / count,
        "classifier_time_pct": 100.0 * time_classifier / time_total,
    }
    exact = all(aggregate[key] == value for key, value in recomputed.items())
    check(
        "criterion 7: bench on 100 random DNF instances, aggregates recompute exactly",
        code == 0 and count == 100 and exact and elapsed < 60.0,
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_8_minimality_audit(grade_run, corpus_runs, certificate_runs):
    audited = 0
    emitted = []
    report = grade_run["report"]
    emitted += [(grade_run["oracle"], grade_run["v"], e) for e in report.axps + report.cxps]
    emitted += [
        (grade_run["oracle"], grade_run["v"], grade_run["axp"]),
        (grade_run["oracle"], grade_run["v"], grade_run["cxp"]),
    ]
    for clf, v, run_report, _, _ in corpus_runs[0]:
        emitted += [(clf, v, e) for e in run_report.axps + run_report.cxps]
    for clf, _, ones, ones_report, zeros, zeros_report in certificate_runs[0]:
        emitted += [(clf, ones, e) for e in ones_report.axps + ones_report.cxps]
        emitted += [(clf, zeros, e) for e in zeros_report.axps + zeros_report.cxps]
    emitted += _sweep_explanations
    for oracle, v, expl in emitted:
        assert_subset_minimal(expl, v, oracle)
        audited += 1
    check(
        "criterion 8: drop-one minimality audit over every emitted explanation",
        audited == len(emitted) and audited > 0,
        f"{audited} explanations audited",
    )
