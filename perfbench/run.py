#!/usr/bin/env python3
"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload serve_tiny --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload cold_build --seed 1 --smoke   # seconds
    python3 perfbench/run.py --self-test

Builds bmh_engine and bmh_trace from the checkout (perfbench/CMakeLists.txt,
into .bench_build/), generates the workload's job lines from --seed, and
drives `bmh_engine --serve` as a single closed-loop client. With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a separate traced replay (bmh_trace). The
line before it is a context record (host, layout, tail percentile). Exits
non-zero, after printing correct=false, when any record is not ok and valid
or any other correctness check fails. See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import time
import unittest
from pathlib import Path

import stats
from client import BenchError, Server, host_cpu_ticks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
WORK_DIR = ROOT / ".bench_work"

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_job": "ms",
    "quality_mean": "ratio",
    "rss_peak_mb": "MiB",
}

PER_LAYER = {
    "engine.parse.us_per_job": "us",
    "engine.encode.us_per_job": "us",
    "engine.submit.us_per_call": "us",
    "engine.queue_wait.p50_ms": "ms",
    "engine.overhead.us_per_job": "us",
    "graph_cache.hit_ratio": "ratio",
    "graph_cache.hits": "count",
    "graph_cache.lookups": "count",
    "graph_cache.hit.us_per_call": "us",
    "graph_cache.evictions": "count",
    "graph.build.ms_per_graph": "ms",
    "graph.build.medges_per_s": "Medges/s",
    "graph_store.spill.ms_per_graph": "ms",
    "graph_store.spill.mb_per_s": "MiB/s",
    "graph_store.load.ms_per_graph": "ms",
    "graph_store.load.mb_per_s": "MiB/s",
    "graph_store.hit_ratio": "ratio",
    "scaling.sinkhorn_knopp.ms_per_call": "ms",
    "scaling.sinkhorn_knopp.medges_per_s": "Medges/s",
    "scaling.sinkhorn_knopp.speedup_4t": "x",
    "core.two_sided.ms_per_call": "ms",
    "core.two_sided.speedup_4t": "x",
    "core.one_sided.ms_per_call": "ms",
    "core.one_sided.speedup_4t": "x",
    "core.k_out.ms_per_call": "ms",
    "core.k_out.speedup_4t": "x",
    "matching.karp_sipser.ms_per_call": "ms",
    "matching.validate.ms_per_call": "ms",
    "matching.sprank.ms_per_call": "ms",
    "matching.sprank.share_of_job": "ratio",
    "trace.unaccounted_share": "ratio",
    "trace.overhead_share": "ratio",
}

# The paper's guarantees, checked per algorithm on large_warm.
PAPER_BOUNDS = {"one_sided": 1.0 - 1.0 / math.e, "two_sided": 0.86}
# Replayed layer self-times must sum to the replayed jobs' wall time within
# this share, in aggregate and for 95% of the jobs one by one.
CLOSURE_LIMIT = 0.05
# A timed phase during which other tenants stole more than this share of the
# host's CPU time (and more than a few ticks) is run again, once; the run
# keeps the phase with less steal.
STEAL_LIMIT = 0.02
STEAL_MIN_TICKS = 10
MAX_TIMED_PHASES = 2


def build():
    """Configures (once) and builds the two binaries; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources beside perfbench/ in {ROOT}")
    steps = [["cmake", "--build", str(BUILD_DIR), "--target", "bmh_engine", "bmh_trace",
              "-j", str(os.cpu_count() or 1)]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}\n{done.stdout[-3000:]}"
                             f"{done.stderr[-3000:]}")
    return BUILD_DIR / "bmh" / "bmh_engine", BUILD_DIR / "bmh_trace"


def server_env(w):
    """The server's OpenMP environment, pinned rather than inherited. The
    spin count is libgomp's default, written out: OMP_WAIT_POLICY=passive
    made large_warm ~20% slower and ~4x noisier, =active spun idle threads
    through the serial sprank stage."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "GOMP_", "KMP_"))}
    env.update(OMP_NUM_THREADS=str(w.build_team), OMP_DYNAMIC="false",
               OMP_PROC_BIND="false", GOMP_SPINCOUNT="300000")
    return env


class Run:
    """State of one benchmark run: servers started, records checked."""

    def __init__(self, w, engine_bin, work):
        self.w = w
        self.engine_bin = engine_bin
        self.work = work
        self.env = server_env(w)
        self.live = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def spawn(self, tag, store_dir):
        args = ["--quiet", "--no-timings", "--seed", "1",
                "--threads", str(self.w.workers),
                "--threads-per-job", str(self.w.tpj),
                "--graph-cache-mb", str(self.w.cache_mb),
                "--metrics-out", str(self.work / f"{tag}.metrics.jsonl")]
        if store_dir is not None:
            args += ["--graph-store", str(store_dir)]
        server = Server(str(self.engine_bin), args, self.env, self.work / f"{tag}.stderr")
        self.live.append(server)
        return server

    def finish(self, server):
        """Stops `server` and checks every record it emitted."""
        text = server.close()
        self.live.remove(server)
        summary = [json.loads(line) for line in text.splitlines()
                   if line.startswith('{"record":"serve_metrics"')]
        if not summary or summary[-1]["jobs"] != server.index:
            self.problems.append(f"serve_metrics disagrees with {server.index} lines sent")
        records = {}
        for index, raw in server.records.items():
            record = json.loads(raw)
            records[index] = record
            self.attempted += 1
            if not (record.get("ok") and record.get("valid")):
                self.failed += 1
        missing = server.index - len(records)
        if missing:
            self.attempted += missing
            self.failed += missing
        return records

    def kill_all(self):
        for server in self.live:
            server.kill()


def digest(records_by_index):
    h = hashlib.sha256()
    for index in sorted(records_by_index):
        h.update(records_by_index[index].rstrip(b"\n") + b"\n")
    return h.hexdigest()


def read_counters(path):
    """Counters of the server's final metrics snapshot, by (domain, metric)."""
    counters = {}
    with open(path) as f:
        for line in f:
            entry = json.loads(line)
            if entry["type"] == "counter":
                counters[(entry["domain"], entry["metric"])] = entry["value"]
    return counters


def host_context():
    steal, total = host_cpu_ticks()
    return {"nproc": len(os.sched_getaffinity(0)), "loadavg_1m": os.getloadavg()[0],
            "steal_ticks": steal, "total_ticks": total}


def timed_phase(server, lines, window):
    """One timed pass of `lines`, with the server's CPU and the host's steal
    over it."""
    before = host_context()
    cpu0 = server.cpu_seconds()
    first = server.index
    start_ns, done_ns, latency_ns = server.run(lines, window)
    cpu_s = server.cpu_seconds() - cpu0
    after = host_context()
    steal = after["steal_ticks"] - before["steal_ticks"]
    total = after["total_ticks"] - before["total_ticks"]
    return {"first": first, "start_ns": start_ns, "done_ns": done_ns, "latency_ns": latency_ns,
            "cpu_s": cpu_s,
            "host": {"before": before, "after": after, "steal_ticks_delta": steal,
                     "total_ticks_delta": total,
                     "steal_share": steal / total if total > 0 else 0.0}}


def stolen(phase):
    """Whether other tenants took too much of the host during `phase`."""
    host = phase["host"]
    return host["steal_ticks_delta"] > max(STEAL_MIN_TICKS,
                                           STEAL_LIMIT * host["total_ticks_delta"])


def serve(run, plan, trace):
    """Set-up, warm-up run and timed phase on the server. Returns the
    measured server's records and the timing figures."""
    w, work = run.w, run.work
    store = work / "store"
    if w.store == "prespilled":
        prespill = run.spawn("prespill", store)
        prespill.run(plan.prespill, 1)
        run.finish(prespill)
    setups = []
    n_setups = 1 if trace else w.setups
    for k in range(n_setups):
        store_dir = {"none": None, "prespilled": store}.get(w.store, work / f"store{k}")
        start = time.perf_counter()
        server = run.spawn(f"setup{k}", store_dir)
        warm = plan.warm or plan.probes[k:k + 1]
        server.run(warm, w.window)
        setups.append(time.perf_counter() - start)
        if k < n_setups - 1:
            run.finish(server)
            if w.store == "fresh":
                shutil.rmtree(store_dir)
    server.run(plan.discard, w.window)
    phases = [timed_phase(server, plan.timed, w.window)]
    while not trace and len(phases) < MAX_TIMED_PHASES and stolen(phases[-1]):
        phases.append(timed_phase(server, plan.retry, w.window))
    rss_mb = server.peak_rss_mb()
    records = run.finish(server)
    raw = dict(server.records)
    timing = min(phases, key=lambda phase: phase["host"]["steal_share"])
    timing.update(setups=setups, rss_mb=rss_mb, warm=warm, store_dir=store_dir,
                  metrics_path=work / f"setup{n_setups - 1}.metrics.jsonl",
                  phases=[{"steal_share": phase["host"]["steal_share"],
                           "kept": phase is timing} for phase in phases])
    return records, raw, timing


def blocks(timed, timing, block, is_ok):
    """Diagnostics only: rate, p50 and tail per block of `block` consecutive
    jobs, and their medians. A host stall moves a few blocks; the spread of
    the blocks shows how steady the phase was."""
    tail_p = stats.tail_percentile(block)
    rates, p50s, tails = [], [], []
    block_start = timing["start_ns"]
    for i in range(0, len(timed) - block + 1, block):
        block_end = max(timing["done_ns"][i:i + block])
        latency_ms = [ns / 1e6 for ns in timing["latency_ns"][i:i + block]]
        rates.append(sum(map(is_ok, timed[i:i + block])) / ((block_end - block_start) / 1e9))
        p50s.append(stats.median(latency_ms))
        tails.append(stats.percentile(latency_ms, tail_p))
        block_start = block_end
    quartiles = lambda v: [round(q, 4) for q in statistics.quantiles(v, n=4)]
    return {"block": block, "percentile": tail_p, "count": len(rates),
            "jobs_per_s_quartiles": quartiles(rates), "p50_ms_quartiles": quartiles(p50s),
            "tail_ms_quartiles": quartiles(tails)}


def end_to_end(run, plan, records, timing):
    w = run.w
    timed = [records[timing["first"] + i] for i in range(len(plan.timed))]
    is_ok = lambda r: bool(r.get("ok") and r.get("valid"))
    ok = [r for r in timed if is_ok(r)]
    wall_s = (max(timing["done_ns"]) - timing["start_ns"]) / 1e9
    latency_ms = [ns / 1e6 for ns in timing["latency_ns"]]
    tail_p = stats.tail_percentile(len(latency_ms))
    if w.quality == "sprank":
        quality = [r["quality"] for r in ok]
    else:  # planted instances have a perfect matching: sprank = rows
        quality = [r["cardinality"] / r["rows"] for r in ok]
    if w.paper_bounds:
        for algo, bound in PAPER_BOUNDS.items():
            q = [r["quality"] for r in ok if r["algorithm"] == algo]
            if not q or sum(q) / len(q) < bound:
                run.problems.append(f"{algo} quality_mean {q and sum(q) / len(q)} "
                                    f"below the paper's {bound:.4f}")
    values = {
        "setup_s": stats.median(timing["setups"]),
        "jobs_per_s": len(ok) / wall_s,
        "latency_p50_ms": stats.median(latency_ms),
        "latency_tail_ms": stats.percentile(latency_ms, tail_p),
        "cpu_ms_per_job": timing["cpu_s"] * 1e3 / len(timed),
        "quality_mean": sum(quality) / max(len(quality), 1),
        "rss_peak_mb": timing["rss_mb"],
    }
    tail = {"percentile": tail_p, "samples": len(latency_ms),
            "beyond": len(latency_ms) - math.ceil(len(latency_ms) * tail_p / 100),
            "ladder_ms": {p: round(stats.percentile(latency_ms, p), 4)
                          for p in stats.TAIL_LADDER}}
    if w.block:
        tail["blocks"] = blocks(timed, timing, w.block, is_ok)
    return values, tail


def traced(run, plan, raw, timing, trace_bin):
    """The traced run: bmh_trace replays the jobs the server just ran."""
    w, work = run.w, run.work
    jobs_file = work / "jobs.tsv"
    phases = ([("warm", line) for line in timing["warm"]] +
              [("discard", line) for line in plan.discard] +
              [("timed", line) for line in plan.timed])
    with open(jobs_file, "w") as f:
        for i, (phase, line) in enumerate(phases):
            f.write(f"{phase}\t{i}\t{line}\n")
    stores = {"none": (None, None),
              "fresh": (work / "replay_store", work / "engine_store"),
              "prespilled": (timing["store_dir"], timing["store_dir"])}[w.store]
    cmd = [str(trace_bin), "--jobs", str(jobs_file), "--sweep-spec", plan.sweep,
           "--tpj", str(w.tpj), "--workers", str(w.workers), "--window", str(w.window),
           "--cache-mb", str(w.cache_mb), "--sweep-dir", str(work / "sweep"),
           "--records-out", str(work / "replay.jsonl"), "--trace-out", str(work / "trace.json")]
    if stores[0] is not None:
        cmd += ["--replay-store", str(stores[0]), "--engine-store", str(stores[1])]
    done = subprocess.run(cmd, env=run.env, capture_output=True, text=True, timeout=120)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"bmh_trace exited {done.returncode}")
    out = json.loads(done.stdout.strip().splitlines()[-1])

    with open(work / "replay.jsonl", "rb") as f:
        replay_lines = f.read().splitlines()
    replay_digest = digest(dict(enumerate(replay_lines)))
    if w.quality == "sprank" and w.tpj == 1 and replay_digest != digest(raw):
        run.problems.append("replay digest differs from the server's records")
    layers = out["metrics"]
    if layers["trace.unaccounted_share"] > CLOSURE_LIMIT:
        run.problems.append(f"closure: {layers['trace.unaccounted_share']:.4f} of replayed "
                            f"job time outside the layer spans")
    if out["replay"]["unaccounted_p95"] > CLOSURE_LIMIT:
        run.problems.append(f"closure: 5% of replayed jobs have more than "
                            f"{out['replay']['unaccounted_p95']:.4f} of their time outside "
                            f"the layer spans")
    counters = read_counters(timing["metrics_path"])
    hits = counters.get(("graph_cache", "hits"), 0)
    lookups = hits + counters.get(("graph_cache", "misses"), 0)
    store_hits = counters.get(("graph_store", "hits"), 0)
    store_lookups = store_hits + counters.get(("graph_store", "misses"), 0)
    layers.update({
        "graph_cache.hits": hits,
        "graph_cache.lookups": lookups,
        "graph_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "graph_cache.evictions": counters.get(("graph_cache", "evictions"), 0),
        "graph_store.hit_ratio": store_hits / store_lookups if store_lookups else 0.0,
    })
    context = {"sources": out["sources"], "replay": out["replay"], "engine": out["engine"],
               "sweep_spec": out["sweep_spec"],
               "replay_digest": replay_digest,
               "trace_file": str((work / "trace.json").relative_to(ROOT))}
    return layers, context


def run_workload(args):
    w = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if w.threads_needed() > nproc:
        raise BenchError(f"{w.name} needs {w.threads_needed()} cores "
                         f"(client + {w.workers} x max({w.tpj}, {w.build_team})), "
                         f"this host has {nproc}")
    engine_bin, trace_bin = build()
    work = WORK_DIR / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = w.plan(args.seed, args.seconds, args.smoke, args.trace)
    run = Run(w, engine_bin, work)
    try:
        records, raw, timing = serve(run, plan, args.trace)
        values, tail = end_to_end(run, plan, records, timing)
        context = {"workload": w.name, "seed": args.seed, "smoke": args.smoke,
                   "layout": {"workers": w.workers, "threads_per_job": w.tpj,
                              "build_team": w.build_team, "client_window": w.window,
                              "cores_needed": w.threads_needed(), "nproc": nproc,
                              "omp_env": {k: v for k, v in run.env.items()
                                          if k.startswith(("OMP_", "GOMP_"))}},
                   "jobs": {"warm": len(timing["warm"]), "discard": len(plan.discard),
                            "timed": len(plan.timed)},
                   "setups_s": timing["setups"], "tail": tail, "host": timing["host"],
                   "timed_phases": timing["phases"],
                   "server_digest": digest(raw)}
        if args.trace:
            layers, trace_context = traced(run, plan, raw, timing, trace_bin)
            context.update(trace_context)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
        else:
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        run.kill_all()
        for store in work.glob("*store*"):
            shutil.rmtree(store, ignore_errors=True)
    stats.check_metrics(metrics)
    if run.failed:
        run.problems.append(f"{run.failed} of {run.attempted} records not ok and valid")
    context["problems"] = run.problems
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if not run.problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny job counts")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
        return 0 if unittest.TextTestRunner().run(suite).wasSuccessful() else 1
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run_workload(args)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
