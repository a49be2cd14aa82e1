"""Tests of the benchmark itself: input generation, oracles and tracing.

    python3 -m pytest perfbench/test_perfbench.py

The traced-workload tests run the real trace op lists, the laws one included
(about a minute).
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _prop_texts(seed, rounds):
    return [gen.render_program(p)
            for batch in itertools.islice(gen.prop_rounds(seed), rounds) for p in batch]


def _ho_texts(seed, rounds):
    return [gen.render_program(p)
            for batch in itertools.islice(gen.ho_rounds(seed), rounds) for p, _ in batch]


def test_generated_programs_are_byte_identical_per_seed():
    assert _prop_texts(3, 4) == _prop_texts(3, 4)
    assert _ho_texts(3, 4) == _ho_texts(3, 4)
    assert _prop_texts(3, 2) != _prop_texts(4, 2)
    assert _ho_texts(3, 2) != _ho_texts(4, 2)


def test_no_program_repeats_within_a_run():
    for texts in (_prop_texts(5, 30), _ho_texts(5, 30)):
        assert len(set(texts)) == len(texts)


def _prop(rules, names):
    return [(n, "o") for n in names], rules


@pytest.mark.parametrize("program, kk, wf", [
    # p :- ~q.
    (_prop([("p", (), ("not", ("sym", "q")))], ["p", "q"]),
     {"p": "(t,t)", "q": "(f,f)"}, {"p": "(t,t)", "q": "(f,f)"}),
    # p :- ~p.
    (_prop([("p", (), ("not", ("sym", "p")))], ["p"]), {"p": "(f,t)"}, {"p": "(f,t)"}),
    # p :- p.
    (_prop([("p", (), ("sym", "p"))], ["p"]), {"p": "(f,t)"}, {"p": "(f,f)"}),
])
def test_prop_oracle_matches_hand_answers(program, kk, wf):
    for mode, expected in (("kk", kk), ("wf", wf)):
        doc = oracle.prop_model_doc(program, mode)
        assert {name: entry["value"] for name, entry in doc.items()} == expected


def test_ho_oracle_on_identity():
    model, projection = oracle.ho_docs(gen.IDENTITY, "lu-bool")
    assert model["p"]["value"] == {"(f,f)": "(f,f)", "(f,t)": "(f,t)", "(t,t)": "(t,t)"}
    assert model["p"]["exact"] is True
    assert projection == {"p": {"f": "f", "t": "t"}}


def test_space_oracle_sizes():
    assert len(oracle.space_doc("lu-bool", "o -> o", "all")) == 11
    assert len(oracle.space_doc("bilat-bool", "o -> o", "all")) == 36
    assert len(oracle.space_doc("lu-bool", "(o -> o) -> o", "exact")) == 84


def test_round_rates_are_per_round():
    ref = run.REF_LOOP_S
    records = [run.Record("a", 0.5, "ok", "round", 0, (ref,)),
               run.Record("b", 0.5, "ok", "round", 0, (ref, ref)),
               run.Record("a", 1.0, "ok", "round", 1, (2 * ref, 2 * ref)),
               run.Record("b", 3.0, "x", "round", 1, (5 * ref,)),
               run.Record("a", 1.0, "ok", "round", 2)]
    assert run.round_rates(records) == [2.0, 0.25, 1.0]
    # a round whose reference loop ran twice as slow counts half its seconds;
    # a round without samples has no scaled figure
    assert run.round_rates(records, scaled=True) == [2.0, 0.5]


def test_speed_probe_samples_while_running():
    speed = run.SpeedProbe()
    with speed.running():
        deadline = run.perf_counter() + 5 * run.SPEED_INTERVAL_S
        while run.perf_counter() < deadline:
            sum(range(1000))
    assert len(speed.samples) >= 3
    assert speed.spent == pytest.approx(sum(speed.samples))
    count = len(speed.samples)
    deadline = run.perf_counter() + 2 * run.SPEED_INTERVAL_S
    while run.perf_counter() < deadline:
        sum(range(1000))
    assert len(speed.samples) == count  # the timer is off after the block


def test_known_defect_is_left_out_of_model_prop():
    assert gen.KNOWN_DEFECT not in gen.PROP_CLASSES
    assert len(gen.PROP_CLASSES) == len(gen.SYSTEMS) * len(gen.MODES) - 1


def test_tail_keeps_ten_samples_above():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90, 90.0)
    assert run.tail(values[:10]) is None


# Per-layer boundaries each workload must reach (span names of tracing.py).
EXPECTED_SPANS = {
    "model-prop": [
        "holog.parse_program", "holog.typecheck", "holog.immediate_consequence",
        "holog.interpretation_structure", "holog.analyze_model",
        "fixpoints.Operator.init", "fixpoints.Operator.call",
        "fixpoints.Operator.is_monotone", "fixpoints.lfp", "fixpoints.PairStructure",
        "fixpoints.stable_revision", "fixpoints.well_founded",
        "order.product", "order.Poset.init", "systems.load_system", "typesys.semantics",
        "cli.main",
    ],
    "model-ho": [
        "holog.parse_program", "holog.typecheck", "holog.analyze_model",
        "holog.model_to_dict", "holog.decode_value", "holog.encode_semantic",
        "fixpoints.Operator.init", "fixpoints.Operator.is_monotone", "fixpoints.lfp",
        "order.exponential", "order.enumerate_monotone_tables",
        "systems.app", "systems.exact_elements", "systems.project",
        "systems.least_exact_representative", "systems.is_consistent_element",
        "systems.load_system", "typesys.semantics", "cli.main",
    ],
    "laws": [
        "order.product", "order.Poset.init", "order.MonotoneMap.init",
        "order.validate_poset", "order.subposet", "order.bound", "order.classify",
        "order.exponential", "order.enumerate_monotone_tables",
        "universal.check_universal", "universal.find_isomorphism", "enumeration",
        "bilat.product_iso", "bilat.exponential_iso", "bilat.classify_approximator",
        "lu.validate_tuple", "lu.lu_space", "lu.chain_sup", "lu.lu_exponential",
        "systems.app", "systems.exact_elements", "systems.project",
        "systems.least_exact_representative", "typesys.semantics", "cli.main",
    ],
}


@pytest.fixture(scope="module")
def cli():
    return run.import_aftkit()


def _trace(cli, workload, tmp_path):
    tracer, wl, records, _ = run.trace_pass(run.WORKLOADS[workload], 1, cli, tmp_path)
    assert all(r.status == "ok" for r in records)
    return tracer, wl


@pytest.mark.parametrize("workload", sorted(EXPECTED_SPANS))
def test_each_boundary_records_a_span(cli, workload, tmp_path):
    tracer, _ = _trace(cli, workload, tmp_path)
    counts = tracer.span_counts()
    missing = [name for name in EXPECTED_SPANS[workload] if counts[name] == 0]
    assert not missing


def test_tracer_restores_originals(cli, tmp_path):
    import aftkit.holog
    import aftkit.order

    before = (aftkit.order.product, aftkit.holog.product, aftkit.order.Poset.__init__)
    _trace(cli, "model-ho", tmp_path)
    assert (aftkit.order.product, aftkit.holog.product,
            aftkit.order.Poset.__init__) == before


@pytest.mark.parametrize("workload", ["model-prop", "model-ho"])
def test_two_traced_runs_give_identical_counts(cli, workload, tmp_path):
    def counts():
        tracer, wl = _trace(cli, workload, tmp_path)
        metrics = run.per_layer(tracer, wl, 1.0, 0.0)
        return {k: v for k, (v, unit) in metrics.items() if unit == "count"}

    first = counts()
    assert first == counts()
    assert first["fixpoints.Operator.evals"] > 0
    assert set(tracing.COUNT_NAMES) <= set(first)
