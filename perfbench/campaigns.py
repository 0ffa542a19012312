"""The two CLI campaign workloads: ``repro campaign`` to a stored record.

Each measured operation is one ``repro campaign ... --store DIR``
process, run one after another (a closed loop with one client) and
charged the CPU time it and its pool workers used, from ``wait4``.
Set-up is the same command at zero budget.
Every stored record is read back and its tracked query answers are
cross-checked against the brute-force scan.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import common
import store_mixed

FRAMES = 48
#: Measured campaigns per run, at least; more while the window lasts.
#: A set-up twin runs before each of the first ``MIN_CAMPAIGNS``.
MIN_CAMPAIGNS = 3
#: Budget of the untimed verification campaign (stratified: one round).
VERIFY_INJECTIONS = 24

STORED = re.compile(r"stored campaign ([0-9a-f]{16}) in")


@dataclass(frozen=True)
class Workload:
    input: str
    algorithm: str
    workers: int
    #: Injections per campaign (stratified: the draw budget).
    injections: int
    #: Extra flags of the measured command (not of its set-up twin).
    flags: tuple = ()
    observed: bool = False


WORKLOADS = {
    # The paper's Fig. 10 cell on the default execution path: serial,
    # fast-forward and boundary fan-out on, match_ratio matching.
    "campaign-uniform": Workload(
        input="input1", algorithm="VS", workers=1, injections=96
    ),
    # A Fig. 11a approximation cell on the steady-sweep input, the
    # paper-budget route: stratified rounds, a pool per round, fsync'd
    # round checkpoints, status rewrites, match_simple matching.  The
    # CI-width target is never met at this budget, so every seed draws
    # exactly the budget in the same number of rounds.
    "campaign-stratified": Workload(
        input="input2",
        algorithm="VS_SM",
        workers=2,
        injections=48,
        flags=(
            "--sampling", "stratified",
            "--ci-width", "0.05",
            "--strata", "1x2x4",
            "--round-size", "3",
        ),
        observed=True,
    ),
}


#: Campaign ``--seed`` of every measured campaign and set-up twin.  The
#: injection plans are part of the workload, not of the benchmark seed:
#: with plans drawn per benchmark seed, one run's median wall time
#: differed from another's by up to 40%, because the plans decide how
#: many injections run their whole suffix.  With three fixed plans
#: cycled in a run, the median of three unlike campaigns jumped between
#: plans as the machine's speed changed; one plan makes the samples of
#: a run alike.  The benchmark seed labels the stored records and draws
#: the plans of the untimed verification campaign.
PLAN_SEED = 1


def command(
    spec: Workload, seed: int, label: str, run_dir: Path, budget: int
) -> list[str]:
    """``repro campaign`` arguments; ``budget`` 0 gives the set-up twin."""
    args = [
        "campaign",
        "--input", spec.input,
        "--algorithm", spec.algorithm,
        "--kind", "gpr",
        "--frames", str(FRAMES),
        "--workers", str(spec.workers),
        "--seed", str(seed),
        "--label", label,
        "--store", str(run_dir / "store"),
        "--quiet",
    ]
    if spec.observed:
        args += [
            "--journal", str(run_dir / "journal.jsonl"),
            "--status", str(run_dir / "status.json"),
        ]
    if budget and spec.flags:
        args += [*spec.flags, "--max-injections", str(budget)]
    else:
        args += ["-n", str(budget)]
    return args


def golden_check(spec: Workload, refs: dict, ledger: common.Ledger) -> int:
    """Pin the golden run's modelled cycles and Fig. 5 estimate.

    Wall-time work must never move them.  Returns the golden cycles.
    """
    from repro.perfmodel.energy import estimate_from_profile
    from repro.summarize.approximations import config_for
    from repro.summarize.golden import golden_run
    from repro.video.synthetic import make_input

    golden = golden_run(
        make_input(spec.input, n_frames=FRAMES), config_for(spec.algorithm), use_cache=False
    )
    estimate = estimate_from_profile(golden.profile)
    actual = {
        "total_cycles": golden.total_cycles,
        "instructions": round(estimate.instructions, 6),
        "ipc": round(estimate.ipc, 12),
        "energy_j": round(estimate.energy_j, 12),
    }
    ledger.expect("golden run", actual, refs["golden"])
    return golden.total_cycles


def verify_campaign(
    spec: Workload, child: common.ChildRun, run_dir: Path, seed: int, label: str,
    budget: int, pinned: str | None, ledger: common.Ledger,
) -> str | None:
    """Check one campaign process; returns its record id when it passed."""
    from repro.forensics.store import CampaignStore, StoreError

    if not ledger.op(child.returncode == 0, f"campaign seed {seed} exited {child.returncode}"):
        print(child.output[-2000:])
        return None
    found = STORED.search(child.output)
    if not ledger.op(found is not None, f"campaign seed {seed} stored no record"):
        return None
    cid = found.group(1)
    try:
        with CampaignStore(run_dir / "store") as store:
            record = store.get(cid)  # verifies CRC and content address
    except StoreError as exc:
        ledger.op(False, f"campaign seed {seed}: {exc}")
        return None
    ok = ledger.expect(f"seed {seed} injections", record["counts"]["total"], budget)
    ok &= ledger.expect(f"seed {seed} fingerprint seed", record["fingerprint"]["seed"], seed)
    ok &= ledger.expect(f"seed {seed} label", record["label"], label)
    if spec.observed and budget:
        from repro.observe.status import read_status, validate_status

        status = read_status(run_dir / "status.json")
        ok &= ledger.expect(f"seed {seed} status errors", validate_status(status), [])
        ok &= ledger.expect(f"seed {seed} status state", status.get("state"), "finished")
        ok &= ledger.expect(
            f"seed {seed} draws", record.get("sampling", {}).get("draws"), budget
        )
    if pinned is not None:
        ok &= ledger.expect(f"record id for seed {seed}", cid, pinned)
    return cid if ok else None


def run(name: str, seed: int, seconds: float, trace: bool, refs: dict, work: Path, ledger):
    """Returns the end-to-end (or, traced, per-layer) metrics."""
    spec = WORKLOADS[name]
    label = f"perfbench-{seed}"
    pinned_id = refs["record_ids"].get(str(seed))
    golden_cycles = golden_check(spec, refs, ledger)
    queries = store_mixed.tracked_queries()

    def campaign(tag: str, cseed: int, budget: int, pinned=None, traced_out=None):
        run_dir = common.fresh_dir(work / tag)
        args = command(spec, cseed, label, run_dir, budget)
        if traced_out is None:
            argv = common.python_argv("-m", "repro.cli", *args)
        else:
            argv = common.python_argv(
                str(common.BENCH_DIR / "traced_cli.py"), str(traced_out), "--", *args
            )
        child = common.run_child(argv, run_dir / "out.log")
        cid = verify_campaign(spec, child, run_dir, cseed, label, budget, pinned, ledger)
        print(
            f"sample: {name} {tag} seed={cseed} budget={budget} wall_s={child.wall_s:.3f} "
            f"cpu_s={child.cpu_s:.3f} rss_mb={child.maxrss_mb:.1f} id={cid}"
        )
        if budget and cid is not None:
            store_mixed.cross_check(run_dir / "store", queries, ledger)
        return child, cid

    # Untimed: plans drawn from the benchmark seed (offset clear of
    # PLAN_SEED), so a held-out seed checks injections that the timed
    # campaigns never run.
    campaign(
        "verify", 1000 + seed, VERIFY_INJECTIONS, pinned=refs["verify_ids"].get(str(seed))
    )

    if trace:
        untraced, cid = campaign("untraced", PLAN_SEED, spec.injections)
        out = work / "trace.json"
        traced, traced_cid = campaign("traced", PLAN_SEED, spec.injections, traced_out=out)
        ledger.expect("traced record id", traced_cid, cid)
        snapshot = json.loads(out.read_text()) if out.exists() else None
        if not ledger.op(snapshot is not None, "traced run wrote no layer snapshot"):
            return {}
        import layers

        return layers.layer_metrics(snapshot, golden_cycles, traced.wall_s, untraced.wall_s)

    # Set-up and measured campaigns alternate, so slow and fast spells
    # of a shared machine fall on both alike.
    setups, cpus, rss = [], [], []
    measured_s = 0.0
    while len(cpus) < MIN_CAMPAIGNS or measured_s * (len(cpus) + 1) / len(cpus) <= seconds:
        index = len(cpus)
        if index < MIN_CAMPAIGNS:
            child, cid = campaign(f"setup-{index}", PLAN_SEED, 0)
            if cid is not None:
                setups.append(child.cpu_s)
        child, cid = campaign(f"run-{index}", PLAN_SEED, spec.injections, pinned_id)
        measured_s += child.wall_s
        if cid is None:
            break
        cpus.append(child.cpu_s)
        rss.append(child.maxrss_mb)
    if not cpus or not setups:
        return {"cpu_s": (None, "s")}
    cpu_s, setup_s = common.median(cpus), common.median(setups)
    return {
        "cpu_s": (cpu_s, "s"),
        "setup_s": (setup_s, "s"),
        "work_per_s": (spec.injections / (cpu_s - setup_s), "1/s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
