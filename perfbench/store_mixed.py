"""``store-mixed``: interleaved ingest and slicing queries on one store.

One closed loop in this process: a seeded synthetic corpus is put into
a fresh v2 ``CampaignStore`` one record at a time, and after every
put the four tracked query shapes run through ``run_query``, followed
by one ``get`` and one ``summaries``.  Writes and reads both go
through the SQLite index, so a change that speeds reads by taxing
ingest shows up in the same run.  The corpus (``RECORDS`` x
``INJECTIONS`` index rows) outgrows SQLite's default 2 MiB page cache
part-way through the loop.  No vision work happens.  Loops and puts
are charged the CPU time of this process; set-up processes theirs,
from ``wait4``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from pathlib import Path

import common

RECORDS = 150
INJECTIONS = 500
#: Set-up processes after each loop.
SETUP_REPEATS = 3
MIN_LOOPS = 2

TRACKED = {
    "outcome_mix": ({}, ("outcome",)),
    "sdc_by_stage": ({"outcome": ("sdc",)}, ("stage",)),
    "cell_grid": ({"outcome": ("sdc", "crash")}, ("register_class", "bit_octet")),
    "crash_kind_by_kind": ({"outcome": ("crash",)}, ("kind", "crash_kind")),
}


def tracked_queries() -> dict:
    """The four query shapes the paper's figures slice by."""
    from repro.forensics.query import StoreQuery

    return {
        name: StoreQuery(filters=dict(filters), group_by=group_by)
        for name, (filters, group_by) in TRACKED.items()
    }


def corpus_for(seed: int, records: int = RECORDS, injections: int = INJECTIONS) -> list[dict]:
    from repro.forensics.synth import synthesize_corpus

    return synthesize_corpus(
        records, seed=seed * 100_003, n_injections=injections, stratified_every=6
    )


def one_loop(root: Path, corpus: list[dict], queries: dict):
    """Run the loop once on a fresh store; returns timings and a digest.

    The digest covers every query answer and read, in schedule order,
    so two loops over the same corpus must produce the same one.
    """
    from repro.forensics.query import run_query
    from repro.forensics.store import LAYOUT_V2, CampaignStore

    digest = hashlib.sha256()
    query_ms: list[float] = []
    put_cpu_s = 0.0
    rows = 0
    ids: list[str] = []
    start = time.perf_counter()
    start_cpu = time.process_time()
    with CampaignStore(common.fresh_dir(root), layout=LAYOUT_V2) as store:
        for index, record in enumerate(corpus):
            t0 = time.process_time()
            ids.append(store.put(record))
            put_cpu_s += time.process_time() - t0
            rows += len(record["injections"])
            for query in queries.values():
                t0 = time.perf_counter()
                answer = run_query(store, query)
                query_ms.append((time.perf_counter() - t0) * 1000.0)
                digest.update(json.dumps(answer, sort_keys=True).encode())
            fetched = store.get(ids[(index * 7919) % len(ids)])
            listed = store.summaries()
            digest.update(f"{fetched['counts']['total']}:{len(listed)}".encode())
    cpu_s = time.process_time() - start_cpu
    wall_s = time.perf_counter() - start
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "put_cpu_s": put_cpu_s,
        "rows": rows,
        "query_ms": query_ms,
        "digest": digest.hexdigest(),
        "ids": ids,
    }


def cross_check(root: Path, queries: dict, ledger: common.Ledger) -> None:
    """Index answers must equal the brute-force scan's (reference engine)."""
    from repro.forensics.query import run_query, scan_query
    from repro.forensics.store import CampaignStore

    with CampaignStore(root) as store:
        for name, query in queries.items():
            ledger.op(
                run_query(store, query) == scan_query(store, query),
                f"{name}: index != scan on {root}",
            )


def check_loop(
    loop: dict, corpus: list[dict], first: dict | None, pinned: str | None, ledger: common.Ledger
) -> None:
    """A loop must keep every record and answer like the first loop and the pin."""
    ledger.expect("records stored", len(set(loop["ids"])), len(corpus))
    if first is not None:
        ledger.expect("loop digest vs first loop", loop["digest"], first["digest"])
    if pinned is not None:
        ledger.expect("query digest vs reference", loop["digest"], pinned)


def run(seed: int, seconds: float, trace: bool, refs: dict, work: Path, ledger: common.Ledger):
    """Returns the end-to-end (or, traced, per-layer) metrics."""
    corpus = corpus_for(seed)
    queries = tracked_queries()
    pinned = refs.get("digest", {}).get(str(seed))

    def check(loop: dict, first: dict | None) -> None:
        check_loop(loop, corpus, first, pinned, ledger)

    if trace:
        import layers

        # Two untraced loops give the untraced wall and enough query
        # latencies for a supported 99th percentile.
        untraced = [one_loop(work / "store", corpus, queries) for _ in range(2)]
        for loop in untraced:
            check(loop, untraced[0])
        clock = layers.LayerClock()
        layers.install(clock)
        traced = one_loop(work / "store", corpus, queries)
        check(traced, untraced[0])
        snapshot = layers.snapshot(clock, None, 0.0)
        return layers.layer_metrics(
            snapshot,
            0,
            traced["wall_s"],
            common.median([loop["wall_s"] for loop in untraced]),
            [sample for loop in untraced for sample in loop["query_ms"]],
        )

    # Set-ups follow every loop, on the store that loop just finished,
    # so they sample the whole run rather than its last seconds.
    loops, setups = [], []
    window_start = time.perf_counter()
    while True:
        loop = one_loop(work / "store", corpus, queries)
        check(loop, loops[0] if loops else None)
        if not loops:
            cross_check(work / "store", queries, ledger)
        loops.append(loop)
        print(
            f"sample: store-mixed seed={seed} wall_s={loop['wall_s']:.3f} "
            f"cpu_s={loop['cpu_s']:.3f} put_cpu_s={loop['put_cpu_s']:.3f} "
            f"digest={loop['digest']}"
        )
        for _ in range(SETUP_REPEATS):
            child = common.run_child(
                common.python_argv(
                    "-m", "repro.cli", "report", "query", str(work / "store"),
                    "--group-by", "outcome",
                ),
                work / "setup.log",
            )
            if ledger.op(child.returncode == 0, f"report query exited {child.returncode}"):
                setups.append(child)
        elapsed = time.perf_counter() - window_start
        if elapsed + loop["wall_s"] > seconds and len(loops) >= MIN_LOOPS:
            break
    print("sample: store-mixed setup cpu_s " + " ".join(f"{c.cpu_s:.3f}" for c in setups))

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "cpu_s": (common.median([loop["cpu_s"] for loop in loops]), "s"),
        "setup_s": (common.median([child.cpu_s for child in setups]), "s"),
        "work_per_s": (
            common.median([loop["rows"] / loop["put_cpu_s"] for loop in loops]), "1/s"
        ),
        "peak_rss_mb": (max([self_rss] + [child.maxrss_mb for child in setups]), "MB"),
    }
