"""The perfbench workloads: thread layout, server flags, and the job lines
each generates from its seed.

Every run's work is a job list fixed by (workload, seed, --seconds): the
number of timed jobs is --seconds times the workload's nominal rate, never
"as many as fit". Instance seeds are pinned inside the graph specs and job
seeds on the job lines, so a line denotes the same job however the server
numbers it.
"""

import random
from dataclasses import dataclass, field

ALGOS = ("two_sided", "one_sided", "karp_sipser", "k_out")
BIG_N = 1 << 17     # large instances: n = 2^17 rows and columns
SMOKE_N = 1 << 11   # the same families, shrunk for --smoke
MIN_TIMED = 50      # leaves 10 samples beyond p80
MAX_SETUPS = 5


@dataclass
class Plan:
    warm: list = field(default_factory=list)      # set-up pass (warm workloads)
    discard: list = field(default_factory=list)   # untimed warm-up run
    timed: list = field(default_factory=list)
    retry: list = field(default_factory=list)     # timed lines of a repeated timed phase
    prespill: list = field(default_factory=list)  # store_restart's earlier process
    probes: list = field(default_factory=list)    # set-up k's readiness job (cold)
    sweep: str = ""                               # the traced run's pinned sweep instance


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int       # engine worker threads (--threads)
    tpj: int           # OpenMP threads inside each job (--threads-per-job)
    build_team: int    # ambient OpenMP team (OMP_NUM_THREADS); graph builds use it
    window: int        # client jobs in flight (closed loop)
    cache_mb: int      # --graph-cache-mb
    store: str         # "none" | "fresh" | "prespilled"
    rate: float        # nominal timed jobs per second of --seconds
    setups: int        # set-ups per run; setup_s is their median
    block: int         # jobs per block of the context record's per-block
                       # diagnostics (0: none)
    quality: str       # how quality_mean is read: "sprank" | "planted"
    paper_bounds: bool # check the paper's per-algorithm quality bounds
    generate: object   # (rng, n_timed, n) -> Plan

    def threads_needed(self):
        """Cores the layout occupies: the client plus every worker's widest
        team (its job team or the ambient build team)."""
        return 1 + self.workers * max(self.tpj, self.build_team)

    def plan(self, seed, seconds, smoke, trace):
        """The run's job lines. Trace runs replay a third of the list; smoke
        runs a token 20 jobs, or 4 blocks. `retry` repeats the timed work:
        the same lines, or on cold_build as many fresh instances."""
        least = max(20, 4 * self.block)
        if smoke:
            n_timed = least
        elif trace:
            n_timed = max(least, round(seconds * self.rate / 3))
        else:
            n_timed = max(MIN_TIMED, round(seconds * self.rate))
        rng = random.Random(f"{self.name}:{seed}")
        return self.generate(rng, n_timed, SMOKE_N if smoke else BIG_N)


def _seed(rng):
    return rng.randrange(1, 1 << 31)


def _line(spec, algo, rng, quality=True):
    return f"input={spec} algo={algo} seed={_seed(rng)}" + ("" if quality else " quality=0")


def _tiny_instances(rng, count):
    """`count` instances cycling er, planted, mesh and powerlaw, with sizes
    on a fixed grid over n = 256..1024, so every seed's mix weighs the same;
    the seed picks the instances' random structure."""
    specs = []
    for i in range(count):
        n = 256 + 768 * (i // 4) // max(1, count // 4 - 1)
        family = ("er", "planted", "mesh", "powerlaw")[i % 4]
        if family == "er":
            specs.append(f"gen:er:n={n},deg={3 + i % 3},seed={_seed(rng)}")
        elif family == "planted":
            specs.append(f"gen:planted:n={n},extra={2 + i % 3},seed={_seed(rng)}")
        elif family == "mesh":
            nx = int(n ** 0.5)
            specs.append(f"gen:mesh:nx={nx},ny={n // nx}")
        else:
            specs.append(f"gen:powerlaw:n={n},avg={4 + i % 5},seed={_seed(rng)}")
    return specs


def _balanced(rng, specs, algos, count):
    """`count` job lines cycling through every (instance, algorithm) pair in
    shuffled rounds, so each pair runs equally often."""
    pairs = [(s, a) for s in specs for a in algos]
    order = []
    while len(order) < count:
        rng.shuffle(pairs)
        order.extend(pairs)
    return [_line(s, a, rng) for s, a in order[:count]]


def _serve_tiny(rng, n_timed, n):
    specs = _tiny_instances(rng, 100 if n == BIG_N else 8)
    jobs = _balanced(rng, specs, ALGOS, n_timed // 10 + n_timed)
    warm = [_line(s, ALGOS[i % 4], rng) for i, s in enumerate(specs)]
    timed = jobs[n_timed // 10:]
    return Plan(warm=warm, discard=jobs[:n_timed // 10], timed=timed, retry=timed,
                sweep=warm[0])


def _large_warm(rng, n_timed, n):
    specs = [f"gen:er:n={n},deg=8,seed={_seed(rng)}",
             f"gen:powerlaw:n={n},avg=8,seed={_seed(rng)}",
             f"gen:planted:n={n},extra=7,seed={_seed(rng)}"]
    # Whole rounds only: every (instance, algorithm) pair runs equally often,
    # so the median and quality_mean do not hinge on which pairs a seed's
    # shuffle leaves out. Their job times differ tenfold.
    pairs = len(specs) * len(ALGOS)
    timed = _balanced(rng, specs, ALGOS, -(-n_timed // pairs) * pairs)
    warm = [_line(s, "karp_sipser", rng, quality=False) for s in specs]
    return Plan(warm=warm, discard=_balanced(rng, specs, ALGOS, 4), timed=timed, retry=timed,
                sweep=warm[0])


def _planted(rng, n):
    return f"gen:planted:n={n},extra=3,seed={_seed(rng)}"


def _cold_build(rng, n_timed, n):
    jobs = [_line(_planted(rng, n), "two_sided", rng, quality=False)
            for _ in range(MAX_SETUPS + 4 + 2 * n_timed)]
    timed = MAX_SETUPS + 4
    return Plan(probes=jobs[:MAX_SETUPS], discard=jobs[MAX_SETUPS:timed],
                timed=jobs[timed:timed + n_timed], retry=jobs[timed + n_timed:],
                sweep=jobs[0])


def _store_restart(rng, n_timed, n):
    specs = [_planted(rng, n) for _ in range(24 if n == BIG_N else 4)]
    pick = lambda: _line(rng.choice(specs), "two_sided", rng, quality=False)
    prespill = [_line(s, "greedy", rng, quality=False) for s in specs]
    probes = [pick() for _ in range(MAX_SETUPS)]
    discard = [pick() for _ in range(4)]
    timed = [pick() for _ in range(n_timed)]
    return Plan(prespill=prespill, probes=probes, discard=discard, timed=timed, retry=timed,
                sweep=prespill[0])


WORKLOADS = {w.name: w for w in (
    Workload("serve_tiny",
             workers=2, tpj=1, build_team=1, window=4, cache_mb=256, store="none",
             rate=5000.0, setups=9, block=100, quality="sprank", paper_bounds=False,
             generate=_serve_tiny),
    Workload("large_warm",
             workers=1, tpj=3, build_team=3, window=1, cache_mb=256, store="none",
             rate=4.5, setups=5, block=0, quality="sprank", paper_bounds=True,
             generate=_large_warm),
    Workload("cold_build",
             workers=1, tpj=3, build_team=3, window=1, cache_mb=256, store="fresh",
             rate=12.0, setups=5, block=0, quality="planted", paper_bounds=False,
             generate=_cold_build),
    Workload("store_restart",
             workers=1, tpj=3, build_team=3, window=1, cache_mb=1, store="prespilled",
             rate=18.0, setups=5, block=0, quality="planted", paper_bounds=False,
             generate=_store_restart),
)}
