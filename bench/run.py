"""Benchmark of shapewilf: four workloads, independent output checks, a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``.
Workloads (README.md says why each is there and what it is made of):

  tables     every cell of published tables 1-4 and the eight word counts; an op is one count
  sweep      equivalence and conjecture scans over a ladder of bounds; an op is one scan
  bijection  round trips of both equivalence maps and of alpha; an op is one round trip
  cli        ``python -m shapewilf`` as users run it; an op is one process

A run sets up several times (fresh imports and inputs; the median is
``setup_s``), then runs whole rounds of the workload's operations, one after
another on one client, until another round would overrun ``--seconds``, and
then checks every output against checks.py.  Every time it reports is scaled
to a reference machine speed, measured while it runs by speed.py.  With
``--trace 1`` it runs one round untraced and one round with tracing.py's
wrappers installed, and reports the per-layer metrics instead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import checks
import tracing
from speed import Speedometer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up is repeated at least MIN_SETUPS times, and until SETUP_SECONDS have
# been spent (at most MAX_SETUPS times), so that a cheap set-up has a steady median.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 20, 3.0


@dataclass(frozen=True)
class Failure:
    """An operation that raised instead of returning."""

    error: str


@dataclass
class Op:
    name: object
    run: object
    prepare: object = None  # runs before the op's clock starts


@dataclass
class Round:
    elapsed: float  # wall time of the whole round, probes included
    times: list  # each op's wall time, scaled to reference speed
    cpus: list  # each op's CPU time (own and children's), scaled alike
    outputs: dict  # op name -> output, kept for the first round only
    differs: list  # ops whose output differs from the first round's
    failed: int

    @property
    def wall(self):
        return sum(self.times)

    @property
    def cpu(self):
        return sum(self.cpus)


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def import_program():
    """Import shapewilf from scratch, so that set-up time includes the imports."""
    for name in [n for n in sys.modules if n == "shapewilf" or n.startswith("shapewilf.")]:
        del sys.modules[name]
    return importlib.import_module("shapewilf")


class Workload:
    in_children = False  # whether the ops' work runs in child processes

    def failed(self, name, output):
        return isinstance(output, Failure)

    def run_round(self, speed, reference=None):
        """Run every op once, under ``speed``'s probes.

        Keeps the outputs, or with ``reference`` (the first round's outputs)
        only the names of the ops whose output differs from it.
        """
        spans, outputs, differs, failed = [], {}, [], 0
        round_start = perf_counter()
        for op in self.ops:
            if op.prepare is not None:
                op.prepare()
            speed.between()
            cpu0, start = cpu_seconds(), perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # counted as a failed operation, reported by main
                output = Failure(f"{type(exc).__name__}: {exc}")
            end, cpu1 = perf_counter(), cpu_seconds()
            spans.append((start, end, cpu1 - cpu0))
            if reference is None:
                outputs[op.name] = output
            elif output != reference[op.name]:
                differs.append(op.name)
            if self.failed(op.name, output):
                failed += 1
        speed.between()
        elapsed = perf_counter() - round_start
        times, cpus = [], []
        for start, end, cpu in spans:
            probe_wall, probe_cpu = speed.own_time(start, end)
            k = speed.scale(start, end)
            times.append((end - start - probe_wall) * k)
            cpus.append((cpu - probe_cpu) * k)
        return Round(elapsed, times, cpus, outputs, differs, failed)

    def check_rounds(self, rounds):
        """Check the first round in full; every later round must repeat it exactly."""
        first = rounds[0].outputs
        errors = self.check({k: v for k, v in first.items() if not self.failed(k, v)})
        for number, later in enumerate(rounds[1:], start=2):
            errors += [f"round {number}: {name} differs from round 1" for name in later.differs]
        return errors


# --- tables ----------------------------------------------------------------


def _count_cell(sw, shape, content, patterns):
    return sw.counted(shape, content, patterns).count


def _count_words(sw, n, m, pattern):
    return sw.count_words(n, m, [pattern])


class Tables(Workload):
    """Every published cell of tables 1-4 through ``counted``, plus the eight word counts."""

    def __init__(self, sw, seed):
        self.ops = []
        for table, shape, content, pattern, _ in checks.table_cells():
            parsed = content if content == sw.POSITIVE_ROWS else sw.parse_composition(content)
            args = (sw.parse_shape(shape), parsed, (sw.parse_word(pattern),))
            self.ops.append(Op((table, shape, content, pattern), partial(_count_cell, sw, *args)))
        for n, m, pattern, _ in checks.word_counts():
            count = partial(_count_words, sw, n, m, sw.parse_word(pattern))
            self.ops.append(Op((n, m, pattern), count))
        random.Random(seed).shuffle(self.ops)

    def check(self, outputs):
        cells = {k: v for k, v in outputs.items() if len(k) == 4}
        words = {k: v for k, v in outputs.items() if len(k) == 3}
        return checks.check_tables(cells, words)


# --- sweep -----------------------------------------------------------------

# (omega, sigma, verdict the paper proves or None): the two theorem pairs and 231/312.
EQUIVALENCES = [
    ("231+221", "312+212", "equal"),
    ("231+121", "312+211", "equal"),
    ("231", "312", None),
]
EQUIVALENCE_BOUNDS = [(5, 4), (6, 3), (5, 5), (6, 4)]  # (max_cols, max_rows)
CONJECTURE1_BOUNDS = [(5, 5), (6, 4), (7, 4)]
# (beta, max_length, max_alphabet)
CONJECTURE2_RUNS = [("", 6, 5), ("", 7, 5), ("1", 6, 5), ("1", 7, 5)]
RECOUNT_SAMPLE, RECOUNT_LIMIT = 12, 2000  # records recounted, fillings each may have


def _equivalence(sw, omega, sigma, max_cols, max_rows):
    omega, sigma = sw.parse_patterns(omega), sw.parse_patterns(sigma)
    return sw.check_equivalence(omega, sigma, max_cols, max_rows)


def _conjecture1(sw, max_cols, max_rows):
    return sw.scan_conjecture1(max_cols, max_rows)


def _conjecture2(sw, beta, max_length, max_alphabet):
    return sw.scan_conjecture2(sw.parse_word(beta), max_length, max_alphabet)


class Sweep(Workload):
    """Thousands of small counts through the harness scans."""

    def __init__(self, sw, seed):
        self.seed = seed
        self.ops = [
            Op(("equivalence", a, b, expect, c, r), partial(_equivalence, sw, a, b, c, r))
            for a, b, expect in EQUIVALENCES
            for c, r in EQUIVALENCE_BOUNDS
        ]
        self.ops += [
            Op(("conjecture1", c, r), partial(_conjecture1, sw, c, r))
            for c, r in CONJECTURE1_BOUNDS
        ]
        self.ops += [
            Op(("conjecture2", beta, n, m), partial(_conjecture2, sw, beta, n, m))
            for beta, n, m in CONJECTURE2_RUNS
        ]
        random.Random(seed).shuffle(self.ops)

    def check(self, outputs):
        errors, records = [], []
        for name, report in outputs.items():
            doc = report.to_json_dict()
            records += doc["records"]
            if name[0] == "equivalence":
                found = checks.check_equivalence(doc, *name[4:], expect=name[3])
            elif name[0] == "conjecture1":
                found = checks.check_conjecture1(doc, *name[1:])
            else:
                beta = checks.word(name[1]) if name[1] else ()
                found = checks.check_conjecture2(doc, beta, *name[2:])
            errors += [f"{name}: {e}" for e in found]
        recount = checks.check_sample_recount(records, self.seed, RECOUNT_SAMPLE, RECOUNT_LIMIT)
        return errors + recount


# --- bijection -------------------------------------------------------------

# (source patterns, target patterns) of the two content-preserving equivalences.
VARIANT_PATTERNS = {
    "11": (((2, 3, 1), (2, 2, 1)), ((3, 1, 2), (2, 1, 2))),
    "12": (((2, 3, 1), (1, 2, 1)), ((3, 1, 2), (2, 1, 1))),
}
# (shape, content) strata; widths 8-10.  Each round trip blows up to a
# width x width placement, so the width sets what alpha's reconstruct does.
VARIANT_STRATA = [
    ((8, 8, 8, 6, 4), (2, 2, 2, 1, 1)),
    ((8, 8, 8, 8, 8), (2, 2, 2, 1, 1)),
    ((8, 8, 6, 6, 4, 4), (2, 2, 1, 1, 1, 1)),
    ((9, 9, 9, 7, 5), (2, 2, 2, 2, 1)),
    ((9, 9, 8, 8, 6, 4, 4), (2, 2, 1, 1, 1, 1, 1)),
    ((10, 10, 10, 7, 4, 4), (2, 2, 3, 1, 1, 1)),
    ((10, 10, 8, 8, 6, 4), (2, 2, 2, 2, 1, 1)),
]
SAMPLED_SHARE = 3  # each round trips a third of every stratum's avoiders, chosen by the seed
SQUARES = {8: 150, 9: 30}  # n: number of 231-avoiding n x n placements


def _variant_round_trip(variant, filling, content):
    image = variant.forward(filling, content)
    return image.col_to_row, variant.inverse(image, content).col_to_row


def _alpha_round_trip(sw, placement):
    image = sw.alpha(placement)
    return image.col_to_row, sw.alpha_inverse(image).col_to_row


class Bijection(Workload):
    """Forward-then-inverse round trips on seeded, stratified avoiders."""

    def __init__(self, sw, seed):
        rng = random.Random(seed)
        self.ops = []
        for rows, content in VARIANT_STRATA:
            shape = sw.make_shape(rows)
            for name, (source, _) in VARIANT_PATTERNS.items():
                population = checks.avoiders(rows, content, source)
                variant = sw.VARIANTS[name]
                for cols in rng.sample(population, len(population) // SAMPLED_SHARE):
                    trip = partial(_variant_round_trip, variant, sw.Filling(shape, cols), content)
                    self.ops.append(Op((name, rows, content, cols), trip))
        for n, size in SQUARES.items():
            square = sw.make_shape((n,) * n)
            chosen = set()
            while len(chosen) < size:
                chosen.add(checks.random_231_avoider(n, rng))
            for cols in sorted(chosen):
                placement = sw.FullRookPlacement(sw.Filling(square, cols))
                trip = partial(_alpha_round_trip, sw, placement)
                self.ops.append(Op(("alpha", (n,) * n, (1,) * n, cols), trip))
        rng.shuffle(self.ops)

    def check(self, outputs):
        errors = []
        strata = {}
        for (kind, rows, content, source), (image, back) in outputs.items():
            targets = ((3, 1, 2),) if kind == "alpha" else VARIANT_PATTERNS[kind][1]
            errors += checks.check_round_trip(rows, content, targets, source, image, back)
            sources, images = strata.setdefault((kind, rows, content), ([], []))
            sources.append(source)
            images.append(image)
        for sources, images in strata.values():
            errors += checks.check_distinct(sources, images)
        return errors


# --- cli -------------------------------------------------------------------

WORKED_EXAMPLE = ("10,10,10,7,4,4", "2,2,3,1,1,1", "1465213233")  # shape, content, filling
WORKED_IMAGE = "5116242333"  # the example's image under variant 11, checked by hand
ENUMERATED = ("6,6,6,6", "231")  # shape, pattern: 2168 avoiding fillings
COUNTED_WORDS = (8, 5, "2314")  # length, alphabet, pattern: a criterion-3 word count
COUNTED_CELL = (1, "5,5,4", "2,2,1", "231")  # a table-1 cell
EQUIVALENCE = ["check-equiv", "231+221", "312+212", "--max-cols", "5", "--max-rows", "4"]


class Cli(Workload):
    """``python -m shapewilf`` processes, one at a time."""

    in_children = True

    def __init__(self, sw, seed, workdir):
        self.workdir = workdir
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env = {**os.environ, "PYTHONPATH": path}
        self.tracer = None
        valid = workdir / "valid-cache.jsonl"
        valid.unlink(missing_ok=True)
        self._shapewilf(["table", "2", "--cache", str(valid)], check=True)
        # Cut the last record (a cheap table-2 cell) in half, as a crash while appending would.
        lines = valid.read_bytes().splitlines(keepends=True)
        torn_bytes = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        cache = workdir / "equiv-cache.jsonl"
        torn = workdir / "torn-cache.jsonl"
        equiv = EQUIVALENCE + ["--cache", str(cache), "--out", "json"]
        shape, content, filling = WORKED_EXAMPLE
        n, m, pattern = COUNTED_WORDS
        units = [
            [("table1", ["table", "1"])],
            [("table2", ["table", "2", "--out", "json"])],
            [("equiv_cold", equiv, partial(cache.unlink, missing_ok=True)), ("equiv_warm", equiv)],
            [("enumerate", ["enumerate", "--shape", ENUMERATED[0], "--patterns", ENUMERATED[1]])],
            [("bijection", ["bijection", "--theorem", "11", "--shape", shape,
                            "--content", content, "--filling", filling])],
            [("count_words", ["count-words", "--length", str(n), "--alphabet", str(m),
                              "--patterns", pattern])],
            [("count_jobs2", ["count", "--shape", COUNTED_CELL[1], "--content", COUNTED_CELL[2],
                              "--patterns", COUNTED_CELL[3], "--jobs", "2"])],
            [("torn_cache", ["table", "2", "--cache", str(torn), "--out", "json"],
              partial(torn.write_bytes, torn_bytes))],
        ]
        random.Random(seed).shuffle(units)
        self.ops = [
            Op(name, partial(self._shapewilf, argv), *prepare)
            for unit in units
            for name, argv, *prepare in unit
        ]

    def _shapewilf(self, argv, check=False):
        if self.tracer is None:
            command = [sys.executable, "-m", "shapewilf", *argv]
        else:
            totals = self.workdir / "trace-totals.json"
            command = [sys.executable, str(BENCH / "trace_cli.py"), str(totals), *argv]
        done = subprocess.run(
            command, capture_output=True, text=True, env=self.env, timeout=120, check=check
        )
        if self.tracer is not None:
            self.tracer.merge(json.loads(totals.read_text()))
        return done.returncode, done.stdout, done.stderr

    def startup_seconds(self, times=5):
        """Median wall time of a shapewilf process that parses its arguments and counts nothing."""
        walls = []
        for _ in range(times):
            start = perf_counter()
            subprocess.run(
                [sys.executable, "-m", "shapewilf", "--help"],
                capture_output=True, env=self.env, timeout=120, check=True,
            )
            walls.append(perf_counter() - start)
        return statistics.median(walls)

    def failed(self, name, output):
        return isinstance(output, Failure) or output[0] != (1 if name == "table1" else 0)

    def check(self, outputs):
        cold = outputs.get("equiv_cold", (None, None, None))[1]
        return [
            f"{name}: {error}"
            for name, (_, stdout, _) in outputs.items()
            for error in check_cli_output(name, stdout, cold)
        ]


def check_cli_output(name, stdout, cold_stdout):
    """Errors in one cli operation's standard output; ``cold_stdout`` is equiv_cold's."""
    if name == "table1":
        ((_, shape, content, _), (printed, recount)), = checks.erratum_recounts().items()
        lines = stdout.splitlines()
        mismatches = [line for line in lines if line.startswith("MISMATCH")]
        want = f"MISMATCH shape={shape} content={content} {recount} vs {printed}"
        if (
            len(mismatches) != 1
            or not mismatches[0].startswith(want)
            or lines[-1:] != ["verdict: unequal (40 counts)"]
        ):
            return [f"expected one erratum line {want!r} and the unequal verdict, got {stdout!r}"]
        return []
    if name in ("table2", "torn_cache"):
        return checks.check_table_report(json.loads(stdout), 2)
    if name == "equiv_cold":
        return checks.check_equivalence(json.loads(stdout), 5, 4, expect="equal")
    if name == "equiv_warm":
        return [] if stdout == cold_stdout else ["warm-cache output differs from cold-cache output"]
    if name == "enumerate":
        rows, pattern = checks.ints(ENUMERATED[0]), checks.word(ENUMERATED[1])
        fillings = checks.brute_fillings(rows, checks.UNCONSTRAINED, (pattern,))
        want = [checks.word_text(cols) for cols in fillings]
        got = stdout.split()
        return [] if got == want else [f"{len(got)} fillings streamed, {len(want)} wanted in order"]
    if name == "bijection":
        image = json.loads(stdout)["image"]
        errors = [] if image == WORKED_IMAGE else [f"image {image}, expected {WORKED_IMAGE}"]
        rows, content, source = (checks.ints(WORKED_EXAMPLE[0]), checks.ints(WORKED_EXAMPLE[1]),
                                 checks.word(WORKED_EXAMPLE[2]))
        targets, image = VARIANT_PATTERNS["11"][1], checks.word(image)
        return errors + checks.check_round_trip(rows, content, targets, source, image, source)
    if name == "count_words":
        want = next(v for *key, v in checks.word_counts() if tuple(key) == COUNTED_WORDS)
    elif name == "count_jobs2":
        want = checks.published_cell(*COUNTED_CELL)
    else:
        return [f"no check for {name}"]
    return [] if stdout.strip() == str(want) else [f"{stdout.strip()} != {want} (published)"]


WORKLOADS = {"tables": Tables, "sweep": Sweep, "bijection": Bijection, "cli": Cli}


# --- running a workload ----------------------------------------------------


def set_up(name, seed, workdir):
    start = perf_counter()
    sw = import_program()
    make = WORKLOADS[name]
    workload = make(sw, seed, workdir) if make is Cli else make(sw, seed)
    return workload, perf_counter() - start


def measure(workload, speed, seconds):
    """Whole rounds, one after another, until another round would overrun ``seconds``."""
    start = perf_counter()
    rounds = [workload.run_round(speed)]
    while perf_counter() - start + statistics.median(r.elapsed for r in rounds) <= seconds:
        rounds.append(workload.run_round(speed, rounds[0].outputs))
    return rounds


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def end_to_end(rounds, setups):
    # Every time is scaled to reference speed (speed.py).  Each op counts at
    # its median over the run's rounds; wall and CPU time of a round are the
    # sums of those medians.
    times = [statistics.median(op) for op in zip(*(r.times for r in rounds))]
    return {
        "wall_s": (sum(times), "s"),
        "cpu_s": (sum(statistics.median(op) for op in zip(*(r.cpus for r in rounds))), "s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[8] * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(workload, plain, traced, tracer):
    if isinstance(workload, Bijection):
        tracer.calls["bijection.round_trip"] = len(workload.ops)
    metrics = tracer.metrics()
    startup = workload.startup_seconds() if isinstance(workload, Cli) else 0.0
    metrics["cli.startup_s"] = (startup, "s")
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    return metrics


def run(args, workdir):
    """(workload, rounds, metrics) of one run."""
    with Speedometer(timer=not WORKLOADS[args.workload].in_children) as speed:
        if args.trace:
            workload, _ = set_up(args.workload, args.seed, workdir)
            plain = workload.run_round(speed)
            tracer = tracing.install(tracing.Tracer())
            if isinstance(workload, Cli):
                workload.tracer = tracer
            traced = workload.run_round(speed, plain.outputs)
            return workload, [plain, traced], per_layer(workload, plain, traced, tracer)
        spans = []
        while len(spans) < MIN_SETUPS or (
            sum(end - start for start, end in spans) < SETUP_SECONDS and len(spans) < MAX_SETUPS
        ):
            # A set-up can be far shorter than the timer's period, and all of
            # them together shorter than two probe windows.
            speed.probe()
            start = perf_counter()
            workload, _ = set_up(args.workload, args.seed, workdir)
            spans.append((start, perf_counter()))
        speed.probe()
        rounds = measure(workload, speed, args.seconds)
    setups = [(end - start - speed.own_time(start, end)[0]) * speed.scale(start, end)
              for start, end in spans]
    return workload, rounds, end_to_end(rounds, setups)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shapewilf" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload, rounds, metrics = run(args, workdir)
        errors = workload.check_rounds(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    for name, output in rounds[0].outputs.items():
        if workload.failed(name, output):
            if isinstance(output, Failure):
                detail = output.error
            else:
                detail = f"exit {output[0]}: {output[2][:200].strip()}"
            print(f"failed operation: {name}: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(r.times) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
