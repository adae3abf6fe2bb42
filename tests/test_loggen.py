from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubgraph import (
    GenerationSpec,
    build_baseline,
    UncertainTrace,
    covering_relation,
    generate_certain_log,
    generate_log,
    inject_activity_uncertainty,
    inject_indeterminacy,
    inject_time_uncertainty,
    validate_log,
)
from ubgraph.cli import run
from ubgraph import loggen
from ubgraph.loggen import _label_adder, activity_label
from ubgraph.model import _Memo


def _spec(**overrides):
    base = dict(n_traces=4, trace_length=10, seed=11)
    base.update(overrides)
    return GenerationSpec(**base)


def test_certain_log_shape():
    log = generate_certain_log(_spec())
    assert len(log) == 4
    assert validate_log(log) == []
    for trace in log.traces:
        assert len(trace) == 10
        times = [e.t_min for e in trace.events]
        assert times == [(k + 1) * 1000 for k in range(10)]
        assert all(e.t_min == e.t_max and e.determinate for e in trace.events)
        assert all(len(e.activities) == 1 for e in trace.events)


def test_certain_log_graphs_are_chains():
    log = generate_certain_log(_spec(trace_length=6))
    for trace in log.traces:
        assert len(build_baseline(trace).edges) == 5


def test_generation_is_deterministic():
    assert generate_certain_log(_spec()) == generate_certain_log(_spec())
    other = generate_certain_log(_spec(seed=12))
    assert other != generate_certain_log(_spec())


def test_spec_validation():
    with pytest.raises(ValueError, match="n_traces"):
        GenerationSpec(n_traces=0, trace_length=5)
    with pytest.raises(ValueError, match="trace_length"):
        GenerationSpec(n_traces=1, trace_length=0)
    with pytest.raises(ValueError, match="seed"):
        GenerationSpec(n_traces=1, trace_length=1, seed=-1)


def test_time_injection_share_is_exact():
    log = generate_certain_log(_spec(n_traces=6, trace_length=10))
    for p, expected in [(0.0, 0), (0.25, 2), (0.5, 5), (0.7, 7), (1.0, 10)]:
        injected = inject_time_uncertainty(log, p, seed=3)
        for trace in injected.traces:
            widened = [e for e in trace.events if e.t_min != e.t_max]
            assert len(widened) == expected


def test_time_injection_interval_shape():
    log = generate_certain_log(GenerationSpec(n_traces=1, trace_length=2, seed=0))
    injected = inject_time_uncertainty(log, 1.0, seed=0)
    intervals = sorted((e.t_min, e.t_max) for e in injected.traces[0].events)
    assert intervals == [(-500, 2500), (500, 3500)]
    # widened neighbors overlap, so the pair is unordered
    assert covering_relation(injected.traces[0]) == frozenset()


def test_time_injection_preserves_other_attributes():
    log = generate_certain_log(_spec())
    injected = inject_time_uncertainty(log, 1.0, seed=5)
    for before, after in zip(log.traces, injected.traces):
        for e_before, e_after in zip(before.events, after.events):
            assert e_before.event_id == e_after.event_id
            assert e_before.activities == e_after.activities
            assert e_after.determinate


def test_time_injection_rejects_bad_probability():
    log = generate_certain_log(_spec())
    with pytest.raises(ValueError, match="outside"):
        inject_time_uncertainty(log, 1.5, seed=0)


def test_activity_injection_adds_fresh_labels():
    log = generate_certain_log(_spec())
    injected = inject_activity_uncertainty(log, 1.0, seed=9)
    for trace in injected.traces:
        assert all(len(e.activities) == 2 for e in trace.events)
    # topology unchanged: only labels moved
    for before, after in zip(log.traces, injected.traces):
        assert build_baseline(before).edges == build_baseline(after).edges


def test_indeterminacy_injection_counts():
    log = generate_certain_log(_spec(trace_length=8))
    injected = inject_indeterminacy(log, 0.5, seed=2)
    for trace in injected.traces:
        assert sum(1 for e in trace.events if not e.determinate) == 4


def test_injections_are_deterministic():
    log = generate_certain_log(_spec())
    once = inject_time_uncertainty(log, 0.4, seed=7)
    again = inject_time_uncertainty(log, 0.4, seed=7)
    assert once == again
    assert inject_time_uncertainty(log, 0.4, seed=8) != once


# sha256 of `ubgraph generate` output; any change to a draw, its order,
# a label or the writer's bytes moves one of them
_GENERATE_SHA256 = {
    "plain": (
        "--traces 5 --length 12 --p-time 0.3 --seed 0",
        "55a25c85574ce8455ef78115c904f3a7a56917de42916f55dc07686df190e345",
    ),
    "alphabet-30": (
        "--traces 6 --length 40 --p-time 0.5 --p-activity 0.5 --alphabet 30 --seed 3",
        "2a339f2708950eaec2ba53eac235f938ff44f217175d6f81d4ad3eec6971ba25",
    ),
    # every event already holds the whole one-label alphabet, so the
    # pool of new labels is extended past it (with --alphabet 2 it never is)
    "pool-extension": (
        "--traces 4 --length 9 --p-time 0.2 --p-activity 1.0 --alphabet 1 --seed 6",
        "8028757c3e3b68a0955114c3e9a40f653cb56197ebf67db71c41f6c23112c396",
    ),
    "indeterminate": (
        "--traces 7 --length 15 --p-time 0.4 --p-indeterminate 0.6 --seed 9",
        "2bd0a3887a7950ebbd0537195fbdc7ce7d98ae7500c6abf9d4d32bece5ce2655",
    ),
    # the graph-short benchmark log at seed 1
    "graph-short": (
        "--traces 2000 --length 50 --p-time 0.4 --p-activity 0.2 --p-indeterminate 0.1 --seed 1",
        "ec219884132f24cd199601b93c139c1bea0dc7d1ca50989f948186c352170be0",
    ),
}


def _generate_sha256(tmp_path, arguments: str) -> str:
    out = tmp_path / "log.jsonl"
    assert run(["generate", *arguments.split(), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(_GENERATE_SHA256))
def test_generate_bytes_are_pinned(tmp_path, name):
    arguments, expected = _GENERATE_SHA256[name]
    assert _generate_sha256(tmp_path, arguments) == expected


def test_generate_bytes_are_pinned_for_the_udfg_benchmark_blocks(tmp_path):
    # the udfg-mixed benchmark log at seed 1 is nine blocks of 120 traces,
    # one per length 4..12, each generated with seed 1000 + length
    digest = hashlib.sha256()
    for length in range(4, 13):
        arguments = (
            f"--traces 120 --length {length} --p-time 0.5 --p-activity 0.3 "
            f"--p-indeterminate 0.2 --seed {1000 + length}"
        )
        digest.update(_generate_sha256(tmp_path, arguments).encode())
    assert digest.hexdigest() == (
        "c29f02bdde575a4959b959b2ab6f29e36911cdcc5d01dfc33535c2b798c027ac"
    )


# the ranges past 2**32 draw 64 bits at a time, the others 32 bits, of
# which the generator keeps the unused half for the next draw
_DRAW_RANGES = [1, 2, 3, 25, 26, 27, 1000, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**33]


@pytest.mark.parametrize("seed", range(8))
def test_integers_draw_equals_a_one_element_choice(seed):
    # add_label draws with integers(k), and the pinned bytes rest on it
    # giving the value and the generator state of choice(k, size=1,
    # replace=False); checked over a run of mixed ranges from 1 to 2**33
    ranges = np.random.default_rng(seed).choice(_DRAW_RANGES, size=400).tolist()
    drawn, chosen = np.random.default_rng((seed, 2, 5)), np.random.default_rng((seed, 2, 5))
    for k in ranges:
        (expected,) = chosen.choice(k, size=1, replace=False)
        assert drawn.integers(k) == expected
        assert drawn.bit_generator.state == chosen.bit_generator.state
    assert drawn.integers(2**33) == chosen.integers(2**33)


@settings(max_examples=300, deadline=None)
@given(
    alphabet_size=st.integers(1, 30),
    label_sets=st.lists(st.frozensets(st.integers(0, 33).map(activity_label), max_size=31), max_size=8),
    seed=st.integers(0, 2**32),
)
def test_add_label_draws_as_a_choice_from_the_pool_of_lacking_labels(alphabet_size, label_sets, seed):
    drawn, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
    edited = list(label_sets)
    _label_adder(alphabet_size)(drawn, list(range(len(edited))), edited, [], [], [])
    for labels, got in zip(label_sets, edited):
        # the pool of labels the event lacks: the alphabet's, else the first one past it
        pool = [label for label in map(activity_label, range(alphabet_size)) if label not in labels]
        j = alphabet_size
        while not pool:
            if activity_label(j) not in labels:
                pool.append(activity_label(j))
            j += 1
        (k,) = chosen.choice(len(pool), size=1, replace=False)
        assert got == labels | {pool[k]}
    assert drawn.bit_generator.state == chosen.bit_generator.state


_STAGED_SPECS = [
    (GenerationSpec(12, 9, seed=4), 0.4, 0.3, 0.2),
    (GenerationSpec(5, 7, alphabet_size=1, seed=6), 0.2, 1.0, 0.0),
    (GenerationSpec(3, 20, alphabet_size=30, seed=3), 1.0, 0.5, 1.0),
    (GenerationSpec(4, 6, seed=0), 0.0, 0.0, 0.5),
]


@pytest.mark.parametrize("spec, p_time, p_activity, p_indeterminate", _STAGED_SPECS)
def test_generate_log_equals_the_injections_one_by_one(spec, p_time, p_activity, p_indeterminate):
    log = generate_certain_log(spec)
    log = inject_time_uncertainty(log, p_time, spec.seed)
    log = inject_activity_uncertainty(log, p_activity, spec.seed, spec.alphabet_size)
    log = inject_indeterminacy(log, p_indeterminate, spec.seed)
    assert generate_log(spec, p_time, p_activity, p_indeterminate) == log


def test_generate_log_with_its_tables_capped_at_one_gives_the_same_log(monkeypatch):
    # the label tables are uncapped; capped at one key each, they are
    # cleared on every new key and remake their values, to the same log
    spec = GenerationSpec(20, 12, alphabet_size=40, seed=9)
    expected = generate_log(spec, 0.3, 0.5, 0.2)
    tables = []

    class CappedAtOne(_Memo):
        def __init__(self, make, kept=None):
            super().__init__(make, 1)
            tables.append(self)

    monkeypatch.setattr(loggen, "_Memo", CappedAtOne)
    assert generate_log(spec, 0.3, 0.5, 0.2) == expected
    # the singletons and the held ranks, each left holding one key
    assert [len(table) for table in tables] == [1, 1]


def test_generate_log_rejects_bad_probabilities_before_any_work():
    for probabilities in [(1.5, 0, 0), (0, -0.1, 0), (0, 0, float("nan"))]:
        with pytest.raises(ValueError, match="outside"):
            generate_log(GenerationSpec(10**9, 10**9), *probabilities)


def test_generate_builds_each_trace_once(tmp_path, monkeypatch):
    built = []
    fill = UncertainTrace._fill

    def counted(trace, case_id, *columns):
        built.append(case_id)
        fill(trace, case_id, *columns)

    monkeypatch.setattr(UncertainTrace, "_fill", counted)
    arguments = "--traces 12 --length 9 --p-time 0.4 --p-activity 0.3 --p-indeterminate 0.2 --seed 4"
    _generate_sha256(tmp_path, arguments)
    assert sorted(built) == sorted(f"c{t}" for t in range(12))
