"""mdkd benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload sweep-kd --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; `mdkd` is imported from its `src/`.
Set-up (the corpus from --seed and the teacher from a fixed seed, built
through the `mdkd` CLI) runs SETUP_REPEATS times, each in a child process, so
the timed process holds only the workload's own memory. The timed calls then
repeat, in this one process, until --seconds have passed; every call must exit
0 and pass its workload's output checks, and must write the same bytes as the
first call.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1, traced and untraced calls alternate and it holds the per-layer
metrics and the tracing overhead. The line before it is the environment
record, which also goes to .perfbench_work/<workload>/result.json.
"""

from __future__ import annotations

import os

# One process generates the load; pin BLAS to one thread before numpy loads so
# a shared two-core machine does not oversubscribe.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MDKD_LOG_LEVEL"] = "error"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 45
MIN_CALLS = 3            # untraced calls per run
MIN_TRACED_CALLS = 2     # of each kind when traced and untraced calls alternate

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_mdkd():
    """Import `mdkd` from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "mdkd", "cli.py")):
        raise BenchError(f"no mdkd sources under {SRC}")
    sys.path.insert(0, SRC)
    import mdkd
    import mdkd.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(mdkd.__file__))) != SRC:
        raise BenchError(f"mdkd imported from {mdkd.__file__}, not {SRC}")
    return mdkd


def cli_call(mdkd, argv: list[str]) -> tuple[int, str]:
    """Run `mdkd <argv>` through the public entry point; returns (code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mdkd.cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# Set-up (child process)
# ---------------------------------------------------------------------------


def setup_into(out: str, seed: int) -> dict:
    """Build the inputs under `out`; returns timings and the teacher's dev accuracy."""
    mdkd = import_mdkd()
    inputs = wl.Inputs(out)
    times = {}
    stdout = ""
    t_all = time.perf_counter()
    for step, argv in wl.setup_steps(inputs, seed):
        t0 = time.perf_counter()
        code, stdout = cli_call(mdkd, argv)
        times[step] = time.perf_counter() - t0
        if code != 0:
            raise BenchError(f"set-up step {step} exited {code}")
    total = time.perf_counter() - t_all
    return {"setup_s": total, "gen_s": times["gen"] + times["gen_teacher"],
            "teacher_train_s": times["base"] + times["teacher"],
            "teacher_dev_acc": json.loads(stdout.strip().splitlines()[-1])["accuracy"],
            "sha256": wl.sha256_tree(out)}


def run_setups(work: str, seed: int) -> tuple[wl.Inputs, list[dict]]:
    """SETUP_REPEATS set-ups in child processes; all must write identical bytes."""
    results = []
    for i in range(SETUP_REPEATS):
        out = os.path.join(work, f"inputs-{i}")
        try:
            proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                                   "--setup-into", out, "--seed", str(seed)],
                                  capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up {i} took over {SETUP_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"set-up {i} failed ({proc.returncode}): {proc.stderr[-2000:]}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if i > 0:
            if results[i]["sha256"] != results[0]["sha256"]:
                raise BenchError(f"set-up {i} wrote different bytes than set-up 0")
            shutil.rmtree(out)
    return wl.Inputs(os.path.join(work, "inputs-0")), results


# ---------------------------------------------------------------------------
# Timed calls
# ---------------------------------------------------------------------------


def timed_call(mdkd, workload: wl.Workload, inputs: wl.Inputs, out_dir: str, seed: int,
               teacher_acc: float) -> dict:
    """One call of the workload; the wall clock covers exactly the CLI call."""
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    argv = workload.argv(inputs, out_dir, seed)
    t0 = time.perf_counter()
    code, stdout = cli_call(mdkd, argv)
    wall = time.perf_counter() - t0
    if code != 0:
        outcome = wl.Outcome(False, 0.0, f"exit code {code}")
    else:
        try:
            outcome = workload.check(stdout, out_dir, teacher_acc)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            outcome = wl.Outcome(False, 0.0, f"unreadable output: {exc}")
    hashes = wl.sha256_tree(out_dir) if os.path.isdir(out_dir) else {}
    return {"wall_s": wall, "ex_per_s": workload.examples / wall, "ok": outcome.ok,
            "dev_acc": outcome.dev_acc, "reason": outcome.reason, "sha256": hashes}


def judge_repeats(calls: list[dict]) -> None:
    """Every call must write the same bytes and report the same accuracy as the first."""
    first = calls[0]
    for c in calls[1:]:
        if c["ok"] and (c["sha256"] != first["sha256"] or c["dev_acc"] != first["dev_acc"]):
            c["ok"] = False
            c["reason"] = "output differs from the first call of this run"


def blas_threads() -> int | None:
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "workload_seed": seed,
            "machine": platform.machine()}


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def per_layer_metrics(tr: tracing.Tracer, traced_runs: list[int], setups: list[dict],
                      calls: list[dict]) -> dict:
    """Median over traced calls of each per-layer metric, and the tracing overhead."""
    spans = tr.arrays()
    own = tracing.self_times(spans["start"], spans["end"], spans["parent"])
    rows = []
    for rid in traced_runs:
        table = tracing.layer_table(tr.names, spans, own, rid)
        cell = lambda name, key: table.get(name, {}).get(key, 0.0)  # noqa: E731
        counts = tr.counts[rid]
        t_rows = counts.get("model.encode_batch.teacher.rows", 0.0)
        tok = counts.get("data.tokenize.calls", 0.0)
        row = {
            "cli.main.s": cell("cli.main", "s"),
            "cli.main.self_s": cell("cli.main", "self_s"),
            "model.encode_batch.teacher.s": cell("model.encode_batch.teacher", "s"),
            "model.encode_batch.teacher.rows": t_rows,
            "model.teacher.useful_frac": tr.distinct(rid, "teacher") / t_rows if t_rows else 0.0,
            "model.encode_batch.student.s": cell("model.encode_batch.student", "s"),
            "model.encode_batch.eval.s": cell("model.encode_batch.eval", "s"),
            "model.attention_block.s": cell("model.attention_block", "s"),
            "model.load_checkpoint.s": cell("model.load_checkpoint", "s"),
            "model.save_checkpoint.s": cell("model.save_checkpoint", "s"),
            "tensor.Tape.backward.s": cell("tensor.Tape.backward", "s"),
            "tensor.Tape.backward.calls": cell("tensor.Tape.backward", "calls"),
        }
        for op in tracing.REPORTED_OPS:
            row[f"tensor.{op}.self_s"] = cell(f"tensor.{op}", "self_s")
            row[f"tensor.{op}.calls"] = cell(f"tensor.{op}", "calls")
        row.update({
            "losses.soft_label_loss.s": cell("losses.soft_label_loss", "s"),
            "losses.head_loss.s": cell("losses.head_loss", "s"),
            "losses.cosine_cls_loss.s": cell("losses.cosine_cls_loss", "s"),
            "losses.internal_distill_loss.s": cell("losses.internal_distill_loss", "s"),
            "trainer.adam_step.s": cell("trainer.adam_step", "s"),
            "trainer.adam_step.calls": cell("trainer.adam_step", "calls"),
            "trainer.train_epoch.s": cell("trainer.train_epoch", "s"),
            "trainer.evaluate.s": cell("trainer.evaluate", "s"),
            "data.make_batch.s": cell("data.make_batch", "s"),
            "data.tokenize.calls": tok,
            "data.tokenize.useful_frac": tr.distinct(rid, "tokenize") / tok if tok else 0.0,
            "data.load_tsv.s": cell("data.load_tsv", "s"),
            "mapping.init_student.s": cell("mapping.init_student", "s"),
            "schedule.advance.calls": cell("schedule.advance", "calls"),
            "metrics.evaluate_predictions.calls": cell("metrics.evaluate_predictions", "calls"),
        })
        rows.append(row)
    out = {k: median([r[k] for r in rows]) for k in rows[0]}
    out["data.gen_synthetic.s"] = median([s["gen_s"] for s in setups])
    out["setup.teacher_train.s"] = median([s["teacher_train_s"] for s in setups])
    plain = median([c["ex_per_s"] for c in calls if not c["traced"]])
    slow = median([c["ex_per_s"] for c in calls if c["traced"]])
    out.update({"trace.ex_per_s": slow, "trace.untraced_ex_per_s": plain,
                "trace.overhead_frac": 1.0 - slow / plain})
    return out


UNITS = {"ex_per_s": "1/s", "untraced_ex_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
         "dev_acc": "ratio", "overhead_frac": "ratio", "calls": "count", "rows": "count",
         "useful_frac": "ratio", "s": "s", "self_s": "s"}


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = wl.WORKLOADS[workload_name]
    mdkd = import_mdkd()
    work = os.path.join(WORK, workload_name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs, setups = run_setups(work, seed)
    teacher_acc = setups[0]["teacher_dev_acc"]
    teacher_ok = teacher_acc >= wl.TEACHER_MIN_DEV_ACC
    env = environment(seed)

    tr = tracing.Tracer() if trace else None
    calls, traced_runs = [], []
    out_dir = os.path.join(work, "out")
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(calls) % 2 == 1
        try:
            if traced:
                traced_runs.append(tr.start_run())
                tr.install(mdkd)
            call = timed_call(mdkd, workload, inputs, out_dir, seed, teacher_acc)
        finally:
            if traced:
                tr.uninstall()
        call["traced"] = traced
        calls.append(call)
        n_untraced = sum(not c["traced"] for c in calls)
        enough = (min(n_untraced, len(traced_runs)) >= MIN_TRACED_CALLS if trace
                  else n_untraced >= MIN_CALLS)
        if enough and time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    judge_repeats(calls)
    shutil.rmtree(out_dir, ignore_errors=True)

    if trace:
        metrics = per_layer_metrics(tr, traced_runs, setups, calls)
        tr.save(os.path.join(work, "spans.npz"))
    else:
        metrics = {"ex_per_s": median([c["ex_per_s"] for c in calls]),
                   "setup_s": median([s["setup_s"] for s in setups]),
                   "peak_rss_mb": peak_rss_mb,
                   "dev_acc": median([c["dev_acc"] for c in calls])}
    failed = sum(not c["ok"] for c in calls)
    record = {"env": env, "workload": workload_name, "seconds": seconds, "trace": trace,
              "teacher_dev_acc": teacher_acc, "setup_sha256": setups[0]["sha256"],
              "setup_s": [s["setup_s"] for s in setups],
              "calls": [{k: c[k] for k in ("wall_s", "ex_per_s", "dev_acc", "ok", "reason",
                                           "traced", "sha256")} for c in calls]}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"env": env, "teacher_dev_acc": teacher_acc,
                      "outputs_sha256": calls[0]["sha256"],
                      "teacher_ok": teacher_ok,
                      "failures": [c["reason"] for c in calls if not c["ok"]]},
                     sort_keys=True))
    return {"correct": teacher_ok and failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_into:
            print(json.dumps(setup_into(args.setup_into, args.seed), sort_keys=True))
            return 0
        if not args.workload:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
