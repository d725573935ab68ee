"""Exact-answer benchmark for nearcentral.

    python3 bench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

Runs batches of one workload for about --seconds, each batch in a fresh
worker process with cold caches, one process at a time (a closed loop with
one client).  Every answer is checked exactly, outside the timed region,
against bench/checks.py, which never imports nearcentral.

--trace 0 reports the end-to-end metrics.  --trace 1 instead runs one
untraced batch of the workload, then one traced batch of every workload,
and reports the per-layer metrics derived from the spans, plus the tracing
overhead (traced minus untraced batch time of the workload).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A human-readable report with quartiles and
sample counts goes to standard error, and the stamped result (and, traced,
the spans) to bench/out/.  Exit status: 0 all answers correct, 1 some
answer wrong or raised, 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORKER_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "first_answer_s": "s",
    "answer_p50_ms": "ms",
    "answer_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_batch(workload: str, seed: int, k: int, size: str, mode: str) -> dict:
    """One batch in a fresh worker; setup_s runs from spawn to its ready line.

    mode is "run" or "trace" (spans on).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), str(k), size, mode]
    paced = pace.sample()
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out = proc.stdout.read()
        finally:
            watchdog.cancel()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"{workload} worker exited with status {proc.returncode}")
    batch = json.loads(out)
    # scaled by the reference loop just before the spawn and just after ready
    batch["setup_s"] = setup * pace.REF_S / ((paced + batch["paces"][0]) / 2)
    return batch


def grade(batch: dict, expected: list) -> int:
    """Marks each answer ok or not; returns the number that failed."""
    failed = 0
    for answer, want in zip(batch["answers"], expected, strict=True):
        answer["ok"] = answer["error"] is None and answer["summary"] == want
        failed += not answer["ok"]
    return failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median, q3 as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def seconds(answer: dict) -> float:
    """An answer's latency in reference seconds (bench/pace.py)."""
    return answer["latency_s"] * answer["scale"]


def batch_seconds(batch: dict) -> float:
    """Time to every answer of the batch: the sum of its answer latencies."""
    return sum(seconds(a) for a in batch["answers"])


def end_to_end(batches: list[dict]) -> dict[str, dict]:
    """Each metric as its median with quartiles and the number of samples."""
    latencies = [seconds(a) for b in batches for a in b["answers"]]
    per_batch = {
        "setup_s": [b["setup_s"] for b in batches],
        "batch_s": [batch_seconds(b) for b in batches],
        "first_answer_s": [seconds(b["answers"][0]) for b in batches],
        "peak_rss_mb": [b["peak_rss_mb"] for b in batches],
    }
    out = {}
    for name, values in per_batch.items():
        q1, q2, q3 = quartiles(values)
        out[name] = {"value": q2, "q1": q1, "q3": q3, "samples": len(values), "values": values}
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    beyond = sum(1 for v in latencies if v > deciles[8])
    out["answer_p50_ms"] = {"value": statistics.median(latencies) * 1e3, "samples": len(latencies)}
    out["answer_p90_ms"] = {"value": deciles[8] * 1e3, "samples": len(latencies),
                            "beyond": beyond}
    return {name: dict(out[name], unit=END_TO_END_UNITS[name]) for name in END_TO_END_UNITS}


def self_times(spans: list[dict]) -> None:
    """Adds "self": the span's duration minus the time its children cover."""
    for s in spans:
        s["self"] = s["end"] - s["start"]
    by_id = {(s["run"], s["id"]): s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            by_id[s["run"], s["parent"]]["self"] -= s["end"] - s["start"]


def layer_metrics(traced: dict[str, dict], overhead_s: float) -> dict[str, dict]:
    spans = [s for b in traced.values() for s in b["spans"]]
    self_times(spans)
    by_id = {(s["run"], s["id"]): s for s in spans}
    named: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def parent_name(s):
        return by_id[s["run"], s["parent"]]["name"] if s["parent"] is not None else None

    def med(*names, under=None, inner=False):
        values = [(s["end"] - s["start"] - s["self"]) if inner else s["self"]
                  for name in names for s in named[name] if under in (None, parent_name(s))]
        return statistics.median(values)

    counters: dict[str, dict[str, int]] = defaultdict(lambda: {"hits": 0, "misses": 0})
    for b in traced.values():
        for cache, info in b["counters"].items():
            for key, value in info.items():
                counters[cache][key] += value

    def ratio(cache):
        c = counters[cache]
        return c["hits"] / max(1, c["hits"] + c["misses"])

    products = named["oracle.ga_multiply"]
    term_products = sum(s["work"] for s in products)
    runs = named["cli.run"]
    spawns = named["cli.subprocess"]
    values = {
        "genchar.column_s": (med("answer.column", inner=True), "s"),
        "genchar.strahov_s": (med("genchar.genchar_strahov"), "s"),
        "genchar.misses": (counters["genchar"]["misses"], "count"),
        "genchar.hits": (counters["genchar"]["hits"], "count"),
        "genchar.hit_ratio": (ratio("genchar"), "ratio"),
        "genchar.row_s": (med("answer.row", inner=True), "s"),
        "genchar.row_sums_s": (med("genchar.subscript_sum_chi", "genchar.weighted_sum",
                                   "genchar.orthogonality_check"), "s"),
        "genchar.connection_s": (med("genchar.connection_coefficient"), "s"),
        "starcount.star_count_s": (med("starcount.star_count"), "s"),
        "starcount.closed_s": (med("starcount.star_count_closed"), "s"),
        "starcount.class_s": (med("starcount.star_count_class"), "s"),
        "starcount.cycles_s": (med("starcount.star_count_by_cycle_count"), "s"),
        "characters.character_table_s": (med("characters.character_table"), "s"),
        "characters.chi.hits": (counters["chi"]["hits"], "count"),
        "characters.chi.misses": (counters["chi"]["misses"], "count"),
        "characters.chi.hit_ratio": (ratio("chi"), "ratio"),
        "tableaux.enumerate_syt_s": (med("tableaux.enumerate_syt"), "s"),
        "tableaux.dimension.misses": (counters["dimension"]["misses"], "count"),
        "partitions.enumerate_s": (med("partitions.enumerate_partitions"), "s"),
        "oracle.idempotent_s": (med("oracle.z1_idempotent"), "s"),
        "oracle.dense_multiply_s": (med("oracle.ga_multiply", under="answer.dense_product"), "s"),
        "oracle.sparse_multiply_s": (med("oracle.ga_multiply", under="answer.sparse_product"), "s"),
        "oracle.term_products": (term_products, "count"),
        "oracle.term_products_per_s": (term_products / sum(s["self"] for s in products), "1/s"),
        "oracle.products": (len(products), "count"),
        "cli.interpreter_ms": (med("cli.interpreter") * 1e3, "ms"),
        "cli.import_ms": ((med("cli.import") - med("cli.interpreter")) * 1e3, "ms"),
        "cli.run_ms": (med("cli.run") * 1e3, "ms"),
        "cli.spawn_overhead_ms": (statistics.median(
            (p["self"] - r["self"]) * 1e3 for p, r in zip(spawns, runs, strict=True)), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (len(spans), "count"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def stamp() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            corrupt: int | None = None) -> dict:
    """Runs the benchmark and returns the full stamped result.

    corrupt replaces the expected summary of that query index, so that a
    test can see a wrong answer counted.
    """
    if not (ROOT / "src" / "nearcentral" / "__init__.py").is_file():
        raise BenchError(f"no nearcentral sources under {ROOT / 'src'}")

    def graded_batch(w: str, k: int, mode: str) -> dict:
        want = checks.expected(workloads.build(w, seed, k, size))
        if corrupt is not None and w == workload:
            want[corrupt] = "corrupted"
        batch = run_batch(w, seed, k, size, mode)
        graded.append((batch, want))
        return batch

    graded: list[tuple[dict, list]] = []
    batches = []
    start = time.perf_counter()
    while not batches or (time.perf_counter() - start) * (len(batches) + 1) / len(batches) <= seconds:
        batches.append(graded_batch(workload, len(batches), "run"))
        if trace:
            break
    traced = {w: graded_batch(w, 0, "trace") for w in workloads.WORKLOADS} if trace else {}
    failed = sum(grade(b, want) for b, want in graded)
    attempted = sum(len(b["answers"]) for b, _ in graded)
    result = {"stamp": stamp(), "workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "size": size, "batches": len(batches),
              "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
              "pace_ms": statistics.median(sample * 1e3 for b, _ in graded for sample in b["paces"]),
              "failures": [(k, a["op"], a["error"] or a["summary"])
                           for b, _ in graded for k, a in enumerate(b["answers"]) if not a["ok"]][:20]}
    if trace:
        overhead = batch_seconds(traced[workload]) - batch_seconds(batches[0])
        result["metrics"] = layer_metrics(traced, overhead)
        result["spans"] = [s for b in traced.values() for s in b["spans"]]
    else:
        result["metrics"] = end_to_end(batches)
    return result


def report(result: dict) -> str:
    lines = [f"nearcentral bench: workload={result['workload']} seed={result['seed']} "
             f"trace={result['trace']} batches={result['batches']} {json.dumps(result['stamp'])}",
             f"  reference loop {result['pace_ms']:.4g} ms (median), {pace.REF_S * 1e3:.4g} ms at "
             "reference speed; end-to-end times are in reference seconds"]
    for name, m in result["metrics"].items():
        spread = f"  q1 {m['q1']:.6g} q3 {m['q3']:.6g}" if "q1" in m else ""
        count = f"  ({m['samples']} samples)" if "samples" in m else ""
        lines.append(f"  {name:32s} {m['value']:.6g} {m['unit']}{spread}{count}")
    lines.append(f"  {'failed_frac':32s} {result['failed_frac']:.6g} "
                 f"({result['failed']} of {result['attempted']} answers)")
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(result, indent=1))
    print(report(result), file=sys.stderr)
    print(json.dumps({"stamp": result["stamp"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
