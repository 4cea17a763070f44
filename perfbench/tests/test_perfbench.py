"""Tests of the benchmark's own code: span arithmetic, that tracing changes no
numbers, and metric naming. Run with

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def spans(rows):
    """rows: (name index, parent, start, end), all in run 0."""
    name, parent, start, end = (np.array(c) for c in zip(*rows))
    return {"name": name.astype(np.int32), "parent": parent.astype(np.int32),
            "run": np.zeros(len(rows), dtype=np.int32),
            "start": start.astype(float), "end": end.astype(float)}


def test_self_time_of_nested_spans():
    s = spans([
        (0, -1, 0.0, 10.0),   # root
        (1, 0, 1.0, 4.0),     # child a
        (2, 1, 2.0, 3.0),     # grandchild under a
        (1, 0, 3.0, 6.0),     # child b overlaps a: the union [1, 6] counts once
        (2, 0, 9.0, 12.0),    # child c runs past the root: only [9, 10] counts
        (0, -1, 20.0, 21.0),  # a second root without children
    ])
    own = tracing.self_times(s["start"], s["end"], s["parent"])
    assert own.tolist() == pytest.approx([10 - 5 - 1, 3 - 1, 1, 3, 3, 1])

    table = tracing.layer_table(["root", "child", "leaf"], s, own, run_id=0)
    assert table["root"] == {"calls": 2, "s": pytest.approx(11.0), "self_s": pytest.approx(5.0)}
    assert table["child"] == {"calls": 2, "s": pytest.approx(6.0), "self_s": pytest.approx(5.0)}
    assert table["leaf"] == {"calls": 2, "s": pytest.approx(4.0), "self_s": pytest.approx(4.0)}
    assert tracing.layer_table(["root", "child", "leaf"], s, own, run_id=1)["root"]["calls"] == 0


def test_recorded_spans_nest_and_self_times_add_up():
    tr = tracing.Tracer()
    outer, inner = tr.name_id("outer"), tr.name_id("inner")
    tr.start_run()
    a = tr.open_span(outer)
    for _ in range(3):
        tr.close_span(tr.open_span(inner))
    tr.close_span(a)
    s = tr.arrays()
    assert s["parent"].tolist() == [-1, 0, 0, 0]
    own = tracing.self_times(s["start"], s["end"], s["parent"])
    assert own.sum() == pytest.approx(s["end"][0] - s["start"][0])


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """96-example corpora and a 1-epoch 4-layer base, built through the CLI."""
    mdkd = bench.import_mdkd()
    root = tmp_path_factory.mktemp("tiny")
    inputs = wl.Inputs(str(root))
    steps = dict(wl.setup_steps(inputs, seed=5))
    tiny = wl.sets({"data.n_train": 96, "data.n_dev": 32, "data.n_test": 0})
    base = steps["base"] + wl.sets({"train.epochs": 1})
    for argv in (steps["gen"] + tiny, steps["gen_teacher"] + tiny, base):
        code, _ = bench.cli_call(mdkd, argv)
        assert code == 0
    return mdkd, inputs


def _tiny_calls(inputs, out):
    distill = (["distill", "--seed", "3", "--out", os.path.join(out, "student")]
               + inputs.data_sets()
               + wl.sets({"distill.recipe": "exp3.2", "student.n_layers": 2,
                          "teacher.checkpoint": inputs.base, "base.checkpoint": inputs.base,
                          "train.epochs": 2, "train.batch_size": 32,
                          "train.max_seq_len": wl.MAX_LEN, "train.lr": 1e-3}))
    finetune = (["finetune-teacher", "--seed", "3", "--out", os.path.join(out, "tuned")]
                + inputs.data_sets()
                + wl.sets({"init.checkpoint": inputs.base, "train.epochs": 2,
                           "train.batch_size": 16, "train.max_seq_len": wl.MAX_LEN}))
    return [distill, finetune]


def test_tracing_writes_byte_identical_checkpoints(tiny_inputs, tmp_path):
    mdkd, inputs = tiny_inputs
    originals = {name: getattr(mdkd.tensor, name) for name in tracing.TENSOR_OPS}
    encode_batch = mdkd.model.EncoderModel.encode_batch
    digests = {}
    for traced in (False, True):
        out = str(tmp_path / ("traced" if traced else "plain"))
        tr = tracing.Tracer()
        if traced:
            tr.start_run()
            tr.install(mdkd)
        try:
            for argv in _tiny_calls(inputs, out):
                code, _ = bench.cli_call(mdkd, argv)
                assert code == 0
        finally:
            tr.uninstall()
        digests[traced] = wl.sha256_tree(out)
        if traced:
            table = tracing.layer_table(tr.names, tr.arrays(), tracing.self_times(
                tr.arrays()["start"], tr.arrays()["end"], tr.arrays()["parent"]), 0)
            assert table["model.encode_batch.teacher"]["calls"] > 0
            assert table["model.encode_batch.student"]["calls"] > 0
            assert table["model.encode_batch.eval"]["calls"] > 0
            assert table["tensor.Tape.backward"]["calls"] > 0
    assert "student/student.mdkd" in digests[False]
    assert "tuned/teacher.mdkd" in digests[False]
    assert digests[True] == digests[False]
    assert {name: getattr(mdkd.tensor, name) for name in tracing.TENSOR_OPS} == originals
    assert mdkd.model.EncoderModel.encode_batch is encode_batch


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_match_the_report(tiny_inputs, tmp_path):
    spec = _benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)

    mdkd, inputs = tiny_inputs
    tr = tracing.Tracer()
    run_id = tr.start_run()
    tr.install(mdkd)
    try:
        code, _ = bench.cli_call(mdkd, _tiny_calls(inputs, str(tmp_path))[0])
    finally:
        tr.uninstall()
    assert code == 0
    setups = [{"gen_s": 1.0, "teacher_train_s": 2.0}]
    calls = [{"ex_per_s": 100.0, "traced": False}, {"ex_per_s": 95.0, "traced": True}]
    layer = bench.per_layer_metrics(tr, [run_id], setups, calls)
    assert layer["trace.overhead_frac"] == pytest.approx(0.05)
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: bench.unit_of(k) for k in layer}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: bench.unit_of(k) for k in ("ex_per_s", "setup_s", "peak_rss_mb", "dev_acc")}
