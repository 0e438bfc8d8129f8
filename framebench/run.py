#!/usr/bin/env python3
"""The framelab benchmark.

Run from the root of a checkout:

    python3 framebench/run.py --workload sweep-n5-homs --seed 1 --seconds 25 --trace 0

It imports framelab from the checkout's ``src/`` directory, runs one
workload in this process (single-threaded), checks every output against
pinned values and prints one JSON object as its last line. With
``--trace 0`` that object holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of one traced pass, measured by wrapping
framelab's public functions from outside (see layertrace.py).

Workloads (the reasons are recorded in BENCHMARK.json and NOTES.md):

* ``build-n6``: ``gen_corpus(6)``, ``corpus_to_json`` and
  ``corpus_from_json`` in memory. Deterministic; the seed is recorded only.
* ``sweep-n5-homs``: set-up ``gen_corpus(5)``; timed: a warm-up pre-pass
  filling each lattice's caches, then ``validate_all`` on every entry with
  the corpus lattices as hom partners.
* ``sweep-n6-local``: set-up ``gen_corpus(6)``; timed: the same warm-up and
  ``validate_all(..., corpus=None)`` on every entry.

The seed permutes the order of the entries and of the hom partners.

A run repeats passes while another one is expected to fit in
``--seconds`` (with a per-workload minimum). Every sweep pass gets a fresh
corpus from its own set-up, because validators fill per-lattice caches that
would make a second pass over the same objects measure less work.

Every time is reported at a nominal machine pace: between corpus entries
the run samples a fixed kernel (pace.py) and scales each entry's measured
time by the kernel's nominal over its mean duration around that entry.
The measured wall times and their scales are printed above the result line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from layertrace import Tracer
from pace import Meter, scale_now

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Corpus manifest (hash, entry count) by max poset size, at this commit.
PINS = {
    0: ("0c2ad6e57a93866e", 1),
    1: ("2bf397948b9da3a3", 2),
    2: ("2d808a36a9b4c6c8", 4),
    3: ("f22127bc442b3cd4", 9),
    4: ("d3adaaa0e0e88956", 25),
    5: ("d76e4c6f5c6df0ab", 88),
    6: ("09a19ce8176a0d1b", 406),
}

# Pace samples taken right after the import, to scale its time.
IMPORT_PACE_SAMPLES = 20

# Statuses that count as a completed check; anything else is a failure.
OK_STATUSES = ("pass", "vacuous")

# Validators that get a per-layer time metric (duality.VALIDATOR_NAMES at
# this commit). The sweep itself checks against the module's own list.
VALIDATORS = (
    "coreChain",
    "compactCharacterization",
    "algebraicEquivalence",
    "scottExtensions",
    "properCoherent",
    "scottStable",
    "arithmeticEquivalence",
    "coherentEquivalence",
    "cenSubReg",
    "stoneCollapse",
    "zeroDimEquivalence",
    "stoneEquivalence",
)

# Per-layer metrics reported as span self time, `<span>_s`.
SELF_TIME_SPANS = (
    "posets.enumerate",
    "posets.canonical",
    "posets.upset_masks",
    "lattices.birkhoff",
    "duality.priestley_fast",
    "duality.prime_filter_oracle",
    "duality.content_id",
    "corpus.to_json",
    "corpus.from_json",
    "lattices.enumerate_homs",
    "lattices.hom_predicate",
    "lattices.join_irreducibles",
    "lattices.ideals",
    "lattices.way_below_oracle",
    "lattices.prime_filters",
    "lattices.frame_predicate",
    "spaces.kernel",
    "spaces.core",
    "spaces.scott_upsets",
    "spaces.lspace_predicate",
    "spaces.point_space_predicate",
    "spaces.center_reg",
)

# Per-layer metrics reported as span call counts, `<span>_calls`.
CALL_COUNT_SPANS = (
    "posets.canonical",
    "lattices.enumerate_homs",
    "lattices.hom_predicate",
)

# Stage spans opened by the benchmark itself; reported inclusive, so a
# validator's time includes the layers it calls.
STAGE_SPANS = ("duality.warmup",) + tuple(f"duality.validate.{v}" for v in VALIDATORS)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("entries_per_s", "1/s"),
    ("entry_p50_ms", "ms"),
    ("entry_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "build" or "sweep"
    size: int
    homs: bool = False
    min_passes: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("build-n6", "build", 6, min_passes=1),
        Workload("sweep-n5-homs", "sweep", 5, homs=True, min_passes=3),
        Workload("sweep-n6-local", "sweep", 6, min_passes=2),
    )
}


@dataclass
class PassResult:
    setup_s: float  # set-up time at the nominal pace
    wall_s: float  # timed phase at the nominal pace
    raw_wall_s: float  # timed phase as measured
    entry_s: list  # one latency per entry completed, at the nominal pace
    attempted: int
    failed: int
    records: list  # outputs compared between passes (order as run)

    @property
    def scale(self):
        """Nominal over measured time of the timed phase."""
        return self.wall_s / self.raw_wall_s if self.raw_wall_s else 1.0


class MissingProgram(Exception):
    """The checkout holds no framelab sources to benchmark."""


now = time.perf_counter


def load_framelab():
    """Import framelab from the checkout; returns (modules, import seconds)."""
    package = SRC / "framelab"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no framelab package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    started = now()
    fl = SimpleNamespace(
        **{
            name: importlib.import_module(f"framelab.{name}")
            for name in ("posets", "lattices", "spaces", "duality", "corpus")
        }
    )
    import_s = now() - started
    if Path(fl.corpus.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"framelab was imported from {fl.corpus.__file__}")
    return fl, import_s


def report_exception(where):
    print(f"framebench: exception in {where}:", file=sys.stderr)
    traceback.print_exc(limit=4, file=sys.stderr)


# -- tracing -------------------------------------------------------------------


def install_layers(tracer, fl):
    """Wrap every traced framelab function; counters ride on the wrappers."""
    ideal_lattices = {}

    def on_ideals(tr, index, args, result):
        lattice = args[0]
        if id(lattice) not in ideal_lattices:
            ideal_lattices[id(lattice)] = lattice
            tr.count("lattices.ideals_count", len(result))

    def on_hom_predicate(tr, index, args, result):
        if tr.parent_name(index) == "lattices.enumerate_homs":
            tr.count("lattices.hom_candidates")

    def on_enumerate_homs(tr, index, args, result):
        tr.count("lattices.homs_found", len(result))

    def on_subset_oracle(tr, index, args, result):
        if result is not None:
            tr.count("duality.oracle_checked")

    def on_prime_filters(tr, index, args, result):
        if tr.parent_name(index) == "duality.priestley_fast":
            tr.count("duality.oracle_checked")

    def on_to_json(tr, index, args, result):
        tr.count("corpus.json_bytes", len(result.encode()))

    posets, lattices, spaces, duality, corpus = (
        fl.posets, fl.lattices, fl.spaces, fl.duality, fl.corpus
    )
    specs = (
        (posets, "enumerate_posets", "posets.enumerate", None),
        (posets.Poset, "canonical_key", "posets.canonical", None),
        (posets.Poset, "canonical", "posets.canonical", None),
        (posets, "upset_masks", "posets.upset_masks", None),
        (lattices, "birkhoff_lattice", "lattices.birkhoff", None),
        (duality, "priestley_space_of", "duality.priestley_fast", None),
        (duality, "prime_filter_subset_oracle", "duality.prime_filter_oracle",
         on_subset_oracle),
        (duality, "poset_content_id", "duality.content_id", None),
        (corpus, "corpus_to_json", "corpus.to_json", on_to_json),
        (corpus, "corpus_from_json", "corpus.from_json", None),
        (lattices, "enumerate_homs", "lattices.enumerate_homs", on_enumerate_homs),
        (lattices, "hom_predicate", "lattices.hom_predicate", on_hom_predicate),
        (lattices, "join_irreducibles", "lattices.join_irreducibles", None),
        (lattices, "all_ideals", "lattices.ideals", on_ideals),
        (lattices, "way_below_rows_oracle", "lattices.way_below_oracle", None),
        (lattices, "prime_filters", "lattices.prime_filters", on_prime_filters),
        (lattices, "frame_predicate", "lattices.frame_predicate", None),
        (lattices, "frame_predicate_witness", "lattices.frame_predicate", None),
        (spaces, "kernel", "spaces.kernel", None),
        (spaces, "_kernel_mask", "spaces.kernel", None),
        (spaces, "core", "spaces.core", None),
        (spaces, "_core_mask", "spaces.core", None),
        (spaces, "clop_scott_upset_masks", "spaces.scott_upsets", None),
        (spaces, "is_scott_upset", "spaces.scott_upsets", None),
        (spaces, "lspace_predicate", "spaces.lspace_predicate", None),
        (spaces, "lspace_predicate_witness", "spaces.lspace_predicate", None),
        (spaces, "point_space_predicate", "spaces.point_space_predicate", None),
        (spaces, "point_space_predicate_witness", "spaces.point_space_predicate",
         None),
        (spaces, "center", "spaces.center_reg", None),
        (spaces, "reg_part", "spaces.center_reg", None),
        (duality, "validate", lambda args: f"duality.validate.{args[0]}", None),
    )
    for owner, attr, name, hook in specs:
        tracer.install(owner, attr, name, hook)
    for name in tracer.missing:
        print(f"framebench: {name} not found; its layer reads 0", file=sys.stderr)


@contextmanager
def traced(tracer, fl):
    if tracer is None:
        yield
        return
    install_layers(tracer, fl)
    try:
        yield
    finally:
        tracer.uninstall()


@contextmanager
def marking_entries(corpus_module, meter):
    """End a meter unit whenever a corpus entry is built or reloaded.

    Both gen_corpus and corpus_from_json finish an entry by constructing
    its CorpusEntry, so the units are per-entry latencies.
    """
    entry_type = corpus_module.CorpusEntry

    def marked(*args, **kwargs):
        entry = entry_type(*args, **kwargs)
        meter.mark()
        return entry

    corpus_module.CorpusEntry = marked
    try:
        yield
    finally:
        corpus_module.CorpusEntry = entry_type


# -- output checks ------------------------------------------------------------


def manifest_ok(corpus, size):
    pin_hash, pin_count = PINS[size]
    return (
        corpus is not None
        and corpus.manifest == {"max_size": size, "count": pin_count, "hash": pin_hash}
        and len(corpus.entries) == pin_count
    )


def entry_failures(entry_id, reports, names):
    """Misses among one entry's reports: one passing report per validator."""
    failed = 0
    for name in names:
        mine = [r for r in reports if r.validator == name]
        ok = (
            len(mine) == 1
            and mine[0].status in OK_STATUSES
            and mine[0].lattice_id == entry_id
        )
        failed += not ok
    return failed


def record_of(report):
    witness = json.dumps(report.witness, sort_keys=True, default=str)
    return (report.lattice_id, report.validator, report.status, witness)


def record_mismatches(first, second):
    """Outputs present in one pass and not the other (order ignored)."""
    a, b = Counter(first), Counter(second)
    return sum(((a - b) + (b - a)).values())


# -- passes -------------------------------------------------------------------


def warm_up(fl, entry):
    lattice = entry.lattice
    fl.lattices.join_irreducibles(lattice)
    fl.lattices.all_ideals(lattice)
    fl.lattices.way_below_rows_oracle(lattice)
    fl.lattices.prime_filters(lattice)
    fl.spaces.clop_scott_upset_masks(entry.space)
    fl.spaces.spatial_mask(entry.space)


def sweep_pass(fl, workload, rng, tracer=None):
    """Set-up gen_corpus, then the timed warm-up and validate_all sweep."""
    names = tuple(fl.duality.VALIDATOR_NAMES)
    pin_count = PINS[workload.size][1]
    gc.collect()
    with traced(tracer, fl):
        setup = Meter(tracer)
        with marking_entries(fl.corpus, setup):
            try:
                corpus = fl.corpus.gen_corpus(workload.size)
            except Exception:
                report_exception(f"gen_corpus({workload.size})")
                corpus = None
        setup.mark()
        setup_s = sum(setup.scaled())
        entries = list(corpus.entries) if corpus is not None else []
        rng.shuffle(entries)
        partners = None
        if workload.homs:
            partners = [e.lattice for e in entries]
            rng.shuffle(partners)
        gc.collect()

        meter = Meter(tracer)
        warm_failed = set()
        for entry in entries:
            span = tracer.begin("duality.warmup") if tracer else None
            try:
                warm_up(fl, entry)
            except Exception:
                report_exception(f"warm-up of {entry.entry_id}")
                warm_failed.add(entry.entry_id)
            if tracer:
                tracer.end(span)
            meter.mark()
        reports = []
        for entry in entries:
            try:
                got = fl.duality.validate_all(entry.lattice, partners, entry.entry_id)
            except Exception:
                report_exception(f"validate_all on {entry.entry_id}")
                got = []
            reports.append(got)
            meter.mark()

    attempted = 1 + len(names) * max(pin_count, len(entries))
    failed = (not manifest_ok(corpus, workload.size)) + len(names) * max(
        0, pin_count - len(entries)
    )
    records = []
    for entry, got in zip(entries, reports):
        if entry.entry_id in warm_failed:
            failed += len(names)
        else:
            failed += entry_failures(entry.entry_id, got, names)
        records.extend(record_of(r) for r in got)
    units = meter.scaled()
    n = len(entries)
    entry_s = [w + v for w, v in zip(units[:n], units[n:])]
    return PassResult(setup_s, sum(units), sum(meter.measured()), entry_s,
                      attempted, failed, records)


def build_pass(fl, workload, rng, tracer=None):
    """Timed gen_corpus, corpus_to_json and corpus_from_json, in memory."""
    size = workload.size
    pin_count = PINS[size][1]
    built = reloaded = None
    gc.collect()
    with traced(tracer, fl):
        meter = Meter(tracer)
        with marking_entries(fl.corpus, meter):
            try:
                built = fl.corpus.gen_corpus(size)
                reloaded = fl.corpus.corpus_from_json(fl.corpus.corpus_to_json(built))
            except Exception:
                report_exception(f"build round trip at n={size}")
        meter.mark()  # the work after the last entry

    built_entries = list(built.entries) if built is not None else []
    reloaded_entries = list(reloaded.entries) if reloaded is not None else []
    attempted = 2 + 2 * pin_count
    failed = (not manifest_ok(built, size)) + (not manifest_ok(reloaded, size))
    ids = [e.entry_id for e in built_entries]
    for i in range(pin_count):
        if i >= len(built_entries):
            failed += 2
            continue
        entry = built_entries[i]
        failed += ids.count(entry.entry_id) != 1 or entry.space.size != entry.poset.size
        again = reloaded_entries[i] if i < len(reloaded_entries) else None
        failed += (
            again is None
            or again.entry_id != entry.entry_id
            or again.lattice.size != entry.lattice.size
        )
    records = [("built", i) for i in ids] + [
        ("reloaded", e.entry_id) for e in reloaded_entries
    ]
    units = meter.scaled()
    return PassResult(0.0, sum(units), sum(meter.measured()), units[:-1],
                      attempted, failed, records)


# -- metrics ------------------------------------------------------------------


def end_to_end_metrics(workload, passes, import_s):
    walls = [p.wall_s for p in passes]
    pooled = [s for p in passes for s in p.entry_s]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    setup = import_s
    if workload.kind == "sweep":
        setup += statistics.median(p.setup_s for p in passes)
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "entries_per_s": statistics.median(
            len(p.entry_s) / p.wall_s if p.wall_s else 0.0 for p in passes
        ),
        "entry_p50_ms": 1000 * statistics.median(pooled) if pooled else 0.0,
        "entry_p90_ms": (
            1000 * statistics.quantiles(pooled, n=10)[-1] if len(pooled) > 1 else 0.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    summary = (
        f"{len(passes)} passes; per pass: measured wall s, pace scale = "
        + ", ".join(f"{p.raw_wall_s:.3f} x {p.scale:.3f}" for p in passes)
        + f"; entry percentiles over {len(pooled)} entry samples"
    )
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END}, summary


def per_layer_metrics(tracer, plain, traced_pass):
    folded = tracer.fold()
    counters = tracer.counters

    def span(name):
        return folded.get(name, (0, 0.0, 0.0))

    scale = traced_pass.scale
    metrics = {}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}_s"] = (span(name)[1] * scale, "s")
    for name in CALL_COUNT_SPANS:
        metrics[f"{name}_calls"] = (span(name)[0], "count")
    candidates = counters.get("lattices.hom_candidates", 0)
    found = counters.get("lattices.homs_found", 0)
    built = span("lattices.birkhoff")[0]
    metrics.update(
        {
            "lattices.hom_candidates": (candidates, "count"),
            "lattices.homs_found": (found, "count"),
            "lattices.hom_accept_ratio": (found / candidates if candidates else 0.0,
                                          "ratio"),
            "lattices.ideals_count": (counters.get("lattices.ideals_count", 0), "count"),
            "duality.oracle_coverage": (
                counters.get("duality.oracle_checked", 0) / built if built else 0.0,
                "ratio",
            ),
            "corpus.json_bytes": (counters.get("corpus.json_bytes", 0), "bytes"),
        }
    )
    for name in STAGE_SPANS:
        metrics[f"{name}_s"] = (span(name)[2] * scale, "s")
    metrics["trace.overhead_s"] = (traced_pass.wall_s - plain.wall_s, "s")
    summary = (
        f"untraced pass wall_s {plain.wall_s:.3f}, traced pass wall_s "
        f"{traced_pass.wall_s:.3f} (pace scale {scale:.3f}); per-layer values "
        f"from the traced pass; "
    ) + ", ".join(
        f"{k}={v[0]}" for k, v in metrics.items() if v[1] == "count"
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, summary


# -- entry point --------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, fl, import_s):
    """Run passes and return the result object printed as the last line."""
    rng = random.Random(seed)
    run_pass = sweep_pass if workload.kind == "sweep" else build_pass
    started = now()
    if trace:
        tracer = Tracer()
        plain = run_pass(fl, workload, rng)
        traced_pass = run_pass(fl, workload, rng, tracer)
        mismatches = record_mismatches(plain.records, traced_pass.records)
        metrics, summary = per_layer_metrics(tracer, plain, traced_pass)
        attempted = plain.attempted + traced_pass.attempted + len(plain.records)
        failed = plain.failed + traced_pass.failed + mismatches
    else:
        passes = []
        while True:
            passes.append(run_pass(fl, workload, rng))
            elapsed = now() - started
            if (
                len(passes) >= workload.min_passes
                and elapsed * (len(passes) + 1) / len(passes) > seconds
            ):
                break
        metrics, summary = end_to_end_metrics(workload, passes, import_s)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description="framelab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        fl, import_s = load_framelab()
    except MissingProgram as exc:
        print(f"framebench: {exc}", file=sys.stderr)
        return 2
    import_s *= scale_now(IMPORT_PACE_SAMPLES)
    workload = WORKLOADS[args.workload]
    result, summary = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), fl, import_s
    )
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {summary}")
    for name, metric in result["metrics"].items():
        print(f"#   {name:40s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
