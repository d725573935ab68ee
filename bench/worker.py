"""One batch of one workload, in a fresh interpreter with cold caches.

Usage: python3 bench/worker.py ROOT WORKLOAD SEED BATCH SIZE MODE

The worker imports nearcentral from ROOT/src, builds the inputs of batch
BATCH of the seed and prints "ready".  With MODE "run" or "trace" it then
answers every query in order while timing each call, and prints one JSON
document: per-answer latency, the scale from wall to reference seconds (bench/pace.py,
sampled between answers), a summary the runner (run.py) compares with its
expected value (computed outside the timed region), peak memory, cache
counters and, with "trace", the spans.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402


class Tracer:
    """Spans kept in memory: name, start, end, parent span and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, work: int | None = None):
        sid = len(self.spans)
        record = {"id": sid, "name": name, "parent": self._open[-1] if self._open else None,
                  "run": self.run_id}
        self.spans.append(record)
        self._open.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if work is not None:
                record["work"] = work


class NoTracer:
    spans: list[dict] = []
    _null = contextlib.nullcontext()

    def span(self, name: str, work: int | None = None):
        return self._null


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    root, workload, seed, batch, size, mode = argv
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import nearcentral as nc
    from nearcentral import cli

    if not Path(nc.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"nearcentral was imported from {nc.__file__}, not from {src}")

    P = nc.Partition

    def mp(pair):
        return P(pair[0]), pair[1]

    def gammas(tr, indices):
        # a cold column or row runs for seconds, so the host's speed is
        # sampled between its genchar calls too
        out = []
        for m, args in indices:
            pacer.between()
            out.append((m.shape, m.mark, _call(tr, "genchar.genchar", nc.genchar, *args)))
        return out

    def column(tr, lam, i):
        lam = P(lam)
        return gammas(tr, [(m, (m.shape, m.mark, lam, i)) for m in marked_n[lam.n]])

    def row(tr, mu, j):
        mu = P(mu)
        return gammas(tr, [(m, (mu, j, m.shape, m.mark)) for m in marked_n[mu.n]])

    def gamma_oracle(tr, sup, sub):
        (mu, j), (lam, i) = mp(sup), mp(sub)
        g = _call(tr, "oracle.z1_idempotent", nc.z1_idempotent, mu, j)
        c = _call(tr, "oracle.extract_marked_coefficient", nc.extract_marked_coefficient, g, lam, i)
        return Fraction(math.factorial(mu.n), nc.dimension(mu)) * c

    def dense_product(tr, a, b):
        ga, gb = nc.z1_idempotent(*mp(a)), nc.z1_idempotent(*mp(b))
        return ga, _call(tr, "oracle.ga_multiply", nc.ga_multiply, ga, gb, work=len(ga) * len(gb))

    def sparse_product(tr, a, b):
        ka = _call(tr, "oracle.class_sum", nc.class_sum, *mp(a))
        kb = _call(tr, "oracle.class_sum", nc.class_sum, *mp(b))
        return _call(tr, "oracle.ga_multiply", nc.ga_multiply, ka, kb, work=len(ka) * len(kb))

    env = dict(os.environ, PYTHONPATH=str(src))

    def run_cli(tr, *argv):
        with tr.span("cli.subprocess"):
            done = subprocess.run([sys.executable, "-m", "nearcentral.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
        return done.returncode, done.stdout

    ops = {
        "column": column,
        "star_count": lambda tr, lam, i, r: _call(tr, "starcount.star_count", nc.star_count, P(lam), i, r),
        "connection": lambda tr, a, b, c: _call(
            tr, "genchar.connection_coefficient", nc.connection_coefficient, *mp(a), *mp(b), *mp(c)),
        "strahov": lambda tr, sup, sub: _call(
            tr, "genchar.genchar_strahov", nc.genchar_strahov, *mp(sup), *mp(sub)),
        "row": row,
        "subscript_sum": lambda tr, mu, j, lam: _call(
            tr, "genchar.subscript_sum_chi", nc.subscript_sum_chi, P(mu), j, P(lam)),
        "weighted_sum": lambda tr, mu, j, m: _call(tr, "genchar.weighted_sum", nc.weighted_sum, P(mu), j, m),
        "orthogonality": lambda tr, a, b: _call(
            tr, "genchar.orthogonality_check", nc.orthogonality_check, *mp(a), *mp(b)),
        "character_table": lambda tr, n: _call(tr, "characters.character_table", nc.character_table, n),
        "enumerate_syt": lambda tr, lam: _call(tr, "tableaux.enumerate_syt", nc.enumerate_syt, P(lam)),
        "enumerate_partitions": lambda tr, n: _call(
            tr, "partitions.enumerate_partitions", nc.enumerate_partitions, n),
        "star_class": lambda tr, lam, r: _call(tr, "starcount.star_count_class", nc.star_count_class, P(lam), r),
        "star_cycles": lambda tr, n, k, r: _call(
            tr, "starcount.star_count_by_cycle_count", nc.star_count_by_cycle_count, n, k, r),
        "star_closed": lambda tr, case, n, r: _call(
            tr, "starcount.star_count_closed", nc.star_count_closed, nc.StarClosedCase(case), n, r),
        "gamma_oracle": gamma_oracle,
        "dense_product": dense_product,
        "sparse_product": sparse_product,
        "jm_power": lambda tr, n, r: _call(tr, "oracle.jm_power_coefficients", nc.jm_power_coefficients, n, r),
        "cli": run_cli,
    }

    queries = workloads.build(workload, int(seed), int(batch), size)
    marked_n = {n: nc.enumerate_marked_partitions(n) for n in range(1, 9)}
    print("ready", flush=True)

    tracer = Tracer(f"{workload}:{seed}") if mode == "trace" else NoTracer()
    answers = []
    pacer = pace.Pacer()
    # per answer, the samples from the last before it to the first after it
    windows = []
    for op, args in queries:
        pacer.between()
        first, spent = len(pacer.samples) - 1, pacer.spent
        error = value = None
        start = time.perf_counter()
        try:
            with tracer.span("answer." + op):
                value = ops[op](tracer, *args)
        except Exception as exc:  # every failure is an answer the gate counts
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start - (pacer.spent - spent)
        windows.append((first, len(pacer.samples)))
        answers.append({"op": op, "latency_s": latency, "error": error,
                        "summary": None if error else summarize(op, args, value)})
    pacer.samples.append(pace.sample())
    for answer, window in zip(answers, windows):
        answer["scale"] = pacer.scale(*window)
    peak = _rss_mb(resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF)
    # read before the CLI probes and verdicts below, which call the library themselves
    counters = {}
    for name, fn in (("genchar", nc.genchar), ("chi", nc.chi), ("dimension", nc.dimension)):
        info = fn.cache_info()
        counters[name] = {"hits": info.hits, "misses": info.misses}

    if workload == "cli_cold":
        if mode == "trace":
            _cli_probes(tracer, cli, queries, env)
        for answer, (op, args) in zip(answers, queries):
            if answer["error"] is None:
                answer["summary"] = _cli_verdict(nc, args, answer["summary"])

    json.dump({"answers": answers, "paces": pacer.samples, "peak_rss_mb": peak, "counters": counters,
               "spans": tracer.spans}, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _call(tr, name, fn, *args, work=None):
    with tr.span(name, work):
        return fn(*args)


def summarize(op: str, args, value):
    """A small exact digest of an answer, compared with the expected one."""
    if op == "column":
        sums: dict[str, Fraction] = {}
        for mu, _, g in value:
            key = checks.label(mu.parts)
            sums[key] = sums.get(key, Fraction(0)) + g
        return {k: str(v) for k, v in sums.items()}
    if op == "row":
        sums = {}
        for lam, i, g in value:
            key = checks.label(lam.parts)
            sums[key] = sums.get(key, Fraction(0)) + checks.marked_class_size(lam.parts, i) * g
        return {k: str(v) for k, v in sums.items()}
    if op == "character_table":
        return [[str(r[-1]) for r in value], [str(sum(r[c] ** 2 for r in value)) for c in range(len(value))],
                [str(v) for v in value[0]]]
    if op == "enumerate_syt":
        return checks.digest(sorted(tab.rows for tab in value))
    if op == "enumerate_partitions":
        return checks.digest([p.parts for p in value])
    if op == "dense_product":
        left, product = value
        return "left" if product == left else "zero" if not product else "other"
    if op == "sparse_product":
        return _class_coefficients(value)
    if op == "jm_power":
        return {str(k): str(v) for k, v in value.items()}
    if op == "cli":
        return list(value)
    return str(value)


def _class_coefficients(g) -> dict[str, str] | str:
    # the coefficient of a near-central element on each marked class it meets
    seen: dict[tuple, tuple[Fraction, int]] = {}
    for perm, c in g.items():
        key = checks.marked_type(perm.images)
        first, count = seen.get(key, (c, 0))
        if first != c:
            return f"not constant on {checks.label(*key)}"
        seen[key] = (c, count + 1)
    for key, (_, count) in seen.items():
        if count != checks.marked_class_size(*key):
            return f"{checks.label(*key)} only partly present"
    return {checks.label(*key): str(c) for key, (c, _) in seen.items()}


def _cli_probes(tracer, cli, queries, env) -> None:
    # in-process runs and bare interpreter starts, to split a cold call's time
    for _, argv in queries:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with tracer.span("cli.run"):
                cli.run(list(argv))
    for name, code in (("cli.interpreter", "pass"), ("cli.import", "import nearcentral.cli")):
        for _ in range(10):
            with tracer.span(name):
                subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def _cli_verdict(nc, argv, outcome) -> str:
    """'ok' when the CLI's exit code and parsed output equal the library value."""
    code, out = outcome
    if code != 0:
        return f"exit {code}"
    expected = _library_doc(nc, list(argv))
    if isinstance(expected, list):
        got = list(csv.reader(io.StringIO(out)))
    else:
        got = json.loads(out)
    return "ok" if got == expected else f"mismatch: {out[:200]}"


def _library_doc(nc, argv: list[str]):
    head = list(itertools.takewhile(lambda w: not w.startswith("--"), argv))
    cmd, rest = " ".join(head), argv[len(head):]
    opts: dict[str, str] = {}
    for k, word in enumerate(rest):
        if word.startswith("--"):
            follows = rest[k + 1] if k + 1 < len(rest) else "--"
            opts[word] = "" if follows.startswith("--") else follows
    P = nc.parse_partition
    if cmd == "partitions":
        n = int(opts["--n"])
        if "--marked" in opts:
            return {"n": n, "marked_partitions": [nc.format_marked_partition(m)
                                                  for m in nc.enumerate_marked_partitions(n)]}
        return {"n": n, "partitions": [nc.format_partition(p) for p in nc.enumerate_partitions(n)]}
    if cmd == "tableaux":
        shape = P(opts["--shape"])
        doc = {"shape": nc.format_partition(shape)}
        if "--mark" in opts:
            doc["mark"] = int(opts["--mark"])
            tabs = nc.enumerate_syt_marked(shape, doc["mark"])
        else:
            tabs = nc.enumerate_syt(shape)
        doc["count"] = len(tabs)
        doc["tableaux"] = [[list(row) for row in tab.rows] for tab in tabs]
        return doc
    if cmd == "chartable":
        n = int(opts["--n"])
        labels = [nc.format_partition(p) for p in nc.enumerate_partitions(n)]
        table = [[str(v) for v in row] for row in nc.character_table(n)]
        if opts.get("--format") == "csv":
            return [[""] + labels] + [[label] + row for label, row in zip(labels, table)]
        return {"n": n, "partitions": labels, "table": table}
    if cmd == "genchar":
        value = nc.genchar(P(opts["--mu"]), int(opts["--j"]), P(opts["--lambda"]), int(opts["--i"]))
        return {"value": str(value), "method": opts.get("--method", "auto")}
    if cmd == "connection":
        value = nc.connection_coefficient(P(opts["--lambda"]), int(opts["--i"]), P(opts["--mu"]),
                                          int(opts["--j"]), P(opts["--nu"]), int(opts["--k"]))
        return {"value": str(value)}
    if cmd == "starfact count":
        return {"count": str(nc.star_count(P(opts["--lambda"]), int(opts["--i"]), int(opts["--r"])))}
    if cmd == "starfact class":
        return {"count": str(nc.star_count_class(P(opts["--lambda"]), int(opts["--r"])))}
    if cmd == "starfact cycles":
        return {"count": str(nc.star_count_by_cycle_count(int(opts["--n"]), int(opts["--k"]), int(opts["--r"])))}
    if cmd == "starfact closed":
        return {"count": str(nc.star_count_closed(nc.StarClosedCase(opts["--case"]), int(opts["--n"]),
                                                   int(opts["--r"])))}
    if cmd == "oracle verify":
        m = int(opts["--max-n"])
        return {"status": "ok", "max_n": m, "checks": len(nc.run_verify(m))}
    raise ValueError(f"no library route for {argv}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
