"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

About two minutes: test_traced_runs makes one untraced and one traced cold
run per workload, and test_dual_product_per_pair scans A2 at height 4.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run
import tracing
import workloads
from qminor import mult
from qminor.checks import standard_words
from qminor.quiver import parse_orientation
from qminor.rootdata import CartanDatum, ReducedWord, num_positive_roots
from qminor.scalars import RatScalar

GRAM_SPANS = {
    "scalars.laurent_gcd", "scalars.LaurentPoly.mul",
    "scalars.RatScalar.init", "qea.pairing", "qea.tri_mul",
    "pbw.root_vector", "pbw.pbw_monomial", "pbw.f_pbw_monomial",
    "pbw.pairing_em_fn",
}
BASIS_SPANS = GRAM_SPANS | {
    "pbw.dual_pbw_normalizer", "pbw.pbw_coordinates",
    "pbw.straighten_commutator", "pbw.pbw_product",
    "canonical.pbw_to_dual_coords", "canonical.sigma_eta_dual_coords",
    "canonical.bar_matrix", "canonical.dual_canonical_basis",
}
# Which spans each workload is meant to exercise.  qea.canonical_form is
# reached only from the check suites (serre, claim43, remark43), not from
# any of the three entry points, so no workload is meant to exercise it.
EXERCISED = {
    "scan": set(tracing.SPANS) - {"qea.canonical_form"},
    "basis": BASIS_SPANS,
    "gram": GRAM_SPANS,
}


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                          cwd=str(cwd), capture_output=True, text=True,
                          timeout=600)


# -- output checks ------------------------------------------------------------

def _report(**kw):
    r = {"violations": [], "q_commuting": 5, "multiplicative": 5,
         "pairs_scanned": 63}
    r.update(kw)
    return r


def test_scan_check_rejects_bad_reports():
    assert workloads.check_scan_report(_report(), 63)
    assert not workloads.check_scan_report(
        _report(violations=[{"reason": "x"}]), 63)
    assert not workloads.check_scan_report(_report(multiplicative=4), 63)
    assert not workloads.check_scan_report(_report(pairs_scanned=62), 63)
    # an empty pass is a failure, even though it has no violations
    assert not workloads.check_scan_report(
        _report(q_commuting=0, multiplicative=0), 63)
    assert not workloads.check_scan_report(_report(pairs_scanned=0), 0)


def test_basis_check_rejects_bad_spaces():
    one, q = RatScalar.one(), RatScalar.q_power(1)
    a, b = (1, 0), (0, 1)
    good = {a: {a: one}, b: {b: one, a: q}}
    assert workloads.check_basis(good, [a, b])
    assert not workloads.check_basis({a: {a: one}}, [a, b])
    assert not workloads.check_basis({a: {a: q}, b: {b: one}}, [a, b])
    assert not workloads.check_basis(
        {a: {a: one}, b: {b: one, a: RatScalar.q_power(-1)}}, [a, b])
    assert not workloads.check_basis({}, [])


def test_gram_check_is_biorthogonality():
    one, zero = RatScalar.one(), RatScalar.zero()
    assert workloads.check_gram_entry(one, (1, 0), (1, 0))
    assert workloads.check_gram_entry(zero, (1, 0), (0, 1))
    assert not workloads.check_gram_entry(zero, (1, 0), (1, 0))
    assert not workloads.check_gram_entry(one, (1, 0), (0, 1))


# -- seeded inputs ------------------------------------------------------------

def test_default_seed_gives_standard_inputs():
    seed = workloads.DEFAULT_SEED
    for label in ("B2", "A3", "D4"):
        assert ([w.word for w in workloads.seeded_words(label, seed, "gram")]
                == [w.word for w in standard_words(CartanDatum(label))])


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_seeded_words_are_distinct_reduced_words_of_w0(seed):
    for label in ("A3", "D4"):
        datum = CartanDatum(label)
        words = workloads.seeded_words(label, seed, "basis")
        assert words == workloads.seeded_words(label, seed, "basis")
        assert len({w.word for w in words}) == 2
        for w in words:
            assert len(w.word) == num_positive_roots(datum)
            ReducedWord(datum, w.word)      # raises NotReduced otherwise


def test_items_depend_only_on_seed():
    for name in ("scan", "basis", "gram"):
        inputs = workloads.inputs_for(name, 3)
        assert inputs == workloads.inputs_for(name, 3)
        keys = [it.key for it in workloads.items_for(inputs)]
        assert keys == [it.key for it in workloads.items_for(inputs)]


def test_items_run_by_height_in_seeded_order():
    for name in ("basis", "gram"):
        orders = []
        for seed in (0, 1):
            items = workloads.items_for(workloads.inputs_for(name, seed))
            heights = [it.height for it in items]
            assert heights == sorted(heights) and heights[0] == 1
            orders.append([it.key for it in items])
        assert orders[0] != orders[1]


# -- the traced run -----------------------------------------------------------

@pytest.mark.parametrize("workload", ["scan", "basis", "gram"])
def test_traced_runs(workload):
    """Every span the workload is meant to exercise records a call, the
    traced outputs match the untraced digest (the run is only `correct`
    then), and trace_overhead_ratio is reported."""
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert out["correct"] and out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert "trace_overhead_ratio" in metrics
    for name in tracing.SPANS:
        calls = metrics[name + ".calls"]
        if name in EXERCISED[workload]:
            assert calls >= 1, name
        elif name != "qea.canonical_form":
            assert calls == 0, name     # the layers the workload bypasses
    assert all(metrics[l + ".errors"] == 0 for l in tracing.LAYERS)


def test_dual_product_per_pair():
    """Each q-commuting pair computes B(m)* B(m')* three times: 652 products
    over 195 pairs of the A2 2>1 scan at height 4."""
    tracer = tracing.Tracer()
    tracer.install()
    report = mult.verify_theorem_51(
        parse_orientation(CartanDatum("A2"), "2>1"), 4)
    calls = tracer.summary()["spans"]["canonical.dual_product"][0]
    assert (calls, report["pairs_scanned"]) == (652, 195)
    assert round(calls / report["pairs_scanned"], 2) == 3.34


# -- the command line and BENCHMARK.json --------------------------------------

def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == run.per_layer_units())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "gram", "--seed", "0", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
