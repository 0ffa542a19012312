"""Durable campaign checkpoint journal: crash-safe, resumable campaigns.

Large campaigns (thousands of injections per cell) must not lose hours
of completed work to one crashed worker, an OOM kill, or a power cut.
The journal is a schema-versioned JSONL file the campaign engine
appends to as chunks complete:

* line 1 — a ``header`` record: schema version, a fingerprint of every
  config field that affects results, the golden identity (cycle count
  and a SHA-256 of the golden output), and the dispatch layout — the
  ``groups`` (lists of plan indices, one per chunk) for uniform
  campaigns, or the ``stratification`` grid for adaptive stratified
  campaigns — so a resume can detect config drift and re-dispatch
  exactly as the original run did (boundary groups depend on the tape,
  contiguous index groups on the original worker count, stratified
  rounds on the accumulated statistics);
* then one ``chunk`` record per completed injection chunk (or one
  ``round`` record per completed stratified sampling round), carrying
  the fully serialized :class:`InjectionResult` list plus a CRC32
  of the payload.  Every append is flushed **and fsync'd**, so a record
  that made it into the file survives the process.

``repro campaign --resume PATH`` (and ``run_campaign(...,
journal_path=..., resume=True)``) opens the journal through
:func:`open_journal`, replays its journaled chunks and executes only
the remainder — bit-identical to an uninterrupted run, because
results are reassembled in plan order before statistics are computed
and every per-run RNG derives from ``(seed, index)`` alone.

A torn final record (truncated line, or a line whose CRC does not match
— the write raced the crash) is detected on load and **discarded**; its
chunk simply re-runs.  Payload arrays (SDC outputs) round-trip through
base64 with dtype and shape, so restored corrupted outputs are
byte-identical to freshly computed ones.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.faultinject.injector import InjectionPlan, InjectionRecord
from repro.faultinject.monitor import InjectionResult
from repro.faultinject.outcomes import CrashKind, HangKind, Outcome
from repro.faultinject.registers import FlipEffect, RegKind, Role
from repro.forensics.divergence import DivergenceRecord
from repro.observe import events as observe_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faultinject.campaign import CampaignConfig

#: Bump when a record's shape changes incompatibly; loaders reject
#: journals from other schema versions rather than misreading them.
#: v2: boundary-group checkpointing (the header's ``groups`` form).
#: v3: stratified campaigns (see :mod:`repro.faultinject.sampling`)
#: checkpoint at **round** granularity — the header carries the
#: ``stratification`` grid instead of a dispatch layout, followed by one
#: ``round`` record per completed sampling round — and the fingerprint
#: gained ``sampling`` (plus the stratified knobs when active), so a
#: journal written in one sampling mode cannot be resumed in the other.
#: v4: the ``chunk_bounds`` header form is gone — campaigns without a
#: snapshot tape record contiguous index ``groups`` instead — leaving
#: ``groups`` and ``stratification`` as the two header forms.
#: v5: the header records the ``golden`` identity, so a resume against
#: another workload (input, frame count, algorithm) is refused.
JOURNAL_SCHEMA_VERSION = 5

#: Test/CI hook: abort the campaign after this many journal appends, to
#: exercise the interrupt->resume path deterministically.
ABORT_AFTER_ENV = "REPRO_JOURNAL_ABORT_AFTER"


class JournalError(ValueError):
    """The journal file cannot be used (bad schema, config mismatch)."""


class CampaignInterrupted(RuntimeError):
    """The campaign stopped early on purpose (the abort-after test hook).

    Everything journaled so far is durable; re-run with ``--resume`` to
    finish the remainder.
    """

    def __init__(self, journal_path: Path, chunks_done: int) -> None:
        self.journal_path = Path(journal_path)
        self.chunks_done = chunks_done
        super().__init__(
            f"campaign interrupted after {chunks_done} journaled chunk(s); "
            f"resume with --resume {journal_path}"
        )


# ---------------------------------------------------------------------------
# Result (de)serialization
# ---------------------------------------------------------------------------


def _plan_to_dict(plan: InjectionPlan) -> dict:
    return {
        "target_cycle": plan.target_cycle,
        "kind": plan.kind.value,
        "register": plan.register,
        "bit": plan.bit,
    }


def _plan_from_dict(data: dict) -> InjectionPlan:
    return InjectionPlan(
        target_cycle=data["target_cycle"],
        kind=RegKind(data["kind"]),
        register=data["register"],
        bit=data["bit"],
    )


def _array_to_dict(array: np.ndarray) -> dict:
    contiguous = np.ascontiguousarray(array)
    return {
        "dtype": contiguous.dtype.str,
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def _array_from_dict(data: dict) -> np.ndarray:
    raw = base64.b64decode(data["data"])
    return np.frombuffer(raw, dtype=np.dtype(data["dtype"])).reshape(data["shape"]).copy()


def serialize_result(result: InjectionResult) -> dict:
    """One injection result as a JSON-serializable dict (lossless)."""
    record = result.record
    return {
        "plan": _plan_to_dict(result.plan),
        "record": {
            "fired": record.fired,
            "fired_cycle": record.fired_cycle,
            "site": record.site,
            "binding_name": record.binding_name,
            "role": record.role.value if record.role is not None else None,
            "effect": record.effect.value if record.effect is not None else None,
            "in_study": record.in_study,
        },
        "outcome": result.outcome.value,
        "crash_kind": result.crash_kind.value if result.crash_kind is not None else None,
        "hang_kind": result.hang_kind.value if result.hang_kind is not None else None,
        "cycles": result.cycles,
        "output": _array_to_dict(result.output) if result.output is not None else None,
        "divergence": result.divergence.to_dict() if result.divergence is not None else None,
    }


def deserialize_result(data: dict) -> InjectionResult:
    """Rebuild an :class:`InjectionResult` from :func:`serialize_result`."""
    plan = _plan_from_dict(data["plan"])
    rec = data["record"]
    record = InjectionRecord(
        plan=plan,
        fired=rec["fired"],
        fired_cycle=rec["fired_cycle"],
        site=rec["site"],
        binding_name=rec["binding_name"],
        role=Role(rec["role"]) if rec["role"] is not None else None,
        effect=FlipEffect(rec["effect"]) if rec["effect"] is not None else None,
        in_study=rec["in_study"],
    )
    return InjectionResult(
        plan=plan,
        record=record,
        outcome=Outcome(data["outcome"]),
        crash_kind=CrashKind(data["crash_kind"]) if data["crash_kind"] is not None else None,
        hang_kind=HangKind(data["hang_kind"]) if data["hang_kind"] is not None else None,
        output=_array_from_dict(data["output"]) if data["output"] is not None else None,
        cycles=data["cycles"],
        divergence=(
            DivergenceRecord.from_dict(data["divergence"])
            if data.get("divergence") is not None
            else None
        ),
    )


# ---------------------------------------------------------------------------
# Config fingerprinting
# ---------------------------------------------------------------------------


def config_fingerprint(config: "CampaignConfig") -> dict:
    """Every config field that affects campaign *results*.

    Execution knobs (workers, retry policy) are deliberately excluded —
    the engine guarantees they never change results — but the watchdog
    soft deadline is included because it can reclassify a stalled run.
    ``probe`` is also included: probing never changes outcomes, but it
    does determine whether results carry divergence records, and a
    resume that silently mixed probed and unprobed chunks would leave a
    campaign whose attribution tables cover an arbitrary subset.
    A resume whose fingerprint differs from the journal's header is
    refused: mixing results from two different campaigns would be
    silently wrong.
    """
    watchdog = config.watchdog
    return {
        "n_injections": config.n_injections,
        "kind": config.kind.value,
        "seed": config.seed,
        "hang_factor": config.hang_factor,
        "site_filter": config.site_filter,
        "keep_sdc_outputs": config.keep_sdc_outputs,
        "watchdog_soft_deadline_s": watchdog.soft_deadline_s if watchdog else None,
        "probe": config.probe,
        # One execution route is left, but stored record ids hash these two keys.
        "fast_forward": True,
        "boundary_batch": True,
        # Sampling mode decides what the journal even records (index
        # chunks / boundary groups vs adaptive rounds) and which plans
        # exist at all, so uniform and stratified journals are different
        # campaigns by construction.  The stratified knobs join only in
        # stratified mode: changing them must invalidate stratified
        # journals without perturbing every uniform fingerprint.
        "sampling": config.sampling,
        **(
            {
                "stratified": {
                    "ci_width": config.ci_width,
                    "round_size": config.round_size,
                    "max_injections": config.max_injections,
                    "strata": list(config.strata),
                }
            }
            if config.sampling == "stratified"
            else {}
        ),
    }


def golden_identity(golden_output: np.ndarray, golden_cycles: int) -> dict:
    """The workload a journal was written for: golden cycles and output hash.

    Kept out of :func:`config_fingerprint`, which stored record ids
    hash: the identity guards resume, not record identity.
    """
    output = np.ascontiguousarray(golden_output)
    digest = hashlib.sha256(f"{output.dtype.str}{list(output.shape)}".encode("ascii"))
    digest.update(output.tobytes())
    return {"golden_cycles": int(golden_cycles), "sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _abort_after_from_env() -> int | None:
    raw = os.environ.get(ABORT_AFTER_ENV)
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{ABORT_AFTER_ENV} must be an integer chunk count, got {raw!r}"
        ) from None
    return value if value >= 1 else None


class CampaignJournal:
    """Append-only writer for one campaign's checkpoint journal.

    Opened by :func:`open_journal`, which writes a fresh journal's header
    or validates an existing one.  Every append writes one complete JSON
    line, flushes, and fsyncs before returning — once it returns, that
    chunk (or round) survives any crash of this process.
    """

    def __init__(self, path: Path, handle, chunks_written: int = 0) -> None:
        self.path = Path(path)
        self._handle = handle
        self.chunks_written = chunks_written
        self._abort_after = _abort_after_from_env()

    def _write_line(self, record: dict) -> None:
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_chunk(self, chunk_index: int, results: list[InjectionResult]) -> None:
        """Durably record one completed chunk's results."""
        self._append("chunk", chunk_index, results)

    def append_round(self, round_index: int, results: list[InjectionResult]) -> None:
        """Durably record one completed stratified sampling round."""
        self._append("round", round_index, results)

    def _append(self, unit: str, index: int, results: list[InjectionResult]) -> None:
        # Rounds count toward the abort-after test hook exactly as chunks
        # do, so one environment knob interrupts either sampling mode.
        payload = [serialize_result(result) for result in results]
        encoded = json.dumps(payload, separators=(",", ":"))
        self._write_line(
            {
                "type": unit,
                f"{unit}_index": index,
                "n_results": len(results),
                "crc32": zlib.crc32(encoded.encode("utf-8")),
                "results": payload,
            }
        )
        self.chunks_written += 1
        observe_events.emit(
            "journal_checkpoint",
            unit=unit,
            index=index,
            n_results=len(results),
            written=self.chunks_written,
        )
        if self._abort_after is not None and self.chunks_written >= self._abort_after:
            self.close()
            raise CampaignInterrupted(self.path, self.chunks_written)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _truncate_to_complete_lines(path: Path) -> None:
    """Drop any trailing bytes after the last newline (a torn record)."""
    data = path.read_bytes()
    if data.endswith(b"\n"):
        return
    keep = data.rfind(b"\n") + 1  # 0 when no newline at all
    with open(path, "r+b") as handle:
        handle.truncate(keep)


def open_journal(
    path: Path,
    config: "CampaignConfig",
    golden_output: np.ndarray,
    golden_cycles: int,
    *,
    resume: bool,
    groups: list[list[int]] | None = None,
    stratification: dict | None = None,
) -> tuple[CampaignJournal, "JournalState"]:
    """Start (or reopen) a campaign's journal; return it with its replay.

    Exactly one of ``groups`` (plan indices per chunk: a uniform
    campaign, checkpointed per chunk) or ``stratification`` (the cell
    grid of a stratified campaign, checkpointed per round) is the
    dispatch layout.  A fresh journal records it in its header, next to
    the config fingerprint and the golden identity, and replays nothing.

    A resume refuses a journal written by another campaign — another
    schema, sampling mode, config fingerprint, golden workload or
    layout (groups that do not cover the plans, a changed
    stratification) — before writing a byte.  The returned state then
    carries the journal's own ``groups`` (index chunking depends on the
    original worker count, so the original dispatch replays verbatim)
    and, as ``chunks``, the completed chunks or the contiguous prefix of
    completed rounds: round ``k``'s draws depend on the rounds before
    it, so a gap invalidates every later round, which simply re-runs.
    """
    path = Path(path)
    fingerprint = config_fingerprint(config)
    golden = golden_identity(golden_output, golden_cycles)
    if not resume:
        layout = (
            {"groups": [list(group) for group in groups]}
            if groups is not None
            else {"stratification": stratification}
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        journal = CampaignJournal(path, open(path, "w", encoding="utf-8"))
        journal._write_line(
            {
                "type": "header",
                "schema": JOURNAL_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "golden": golden,
                **layout,
            }
        )
        state = JournalState(
            path, fingerprint, golden, groups=groups, stratification=stratification
        )
        return journal, state

    state = load_journal(path)
    # Mode mixing gets its own targeted error before the generic
    # fingerprint comparison, whose message would bury the one field
    # that matters.
    journal_mode = state.fingerprint.get("sampling")
    if journal_mode != config.sampling:
        raise JournalError(
            f"journal {path} was written by a sampling={journal_mode!r} "
            f"campaign and cannot be resumed with sampling={config.sampling!r}: "
            f"the modes draw different plans and checkpoint at different "
            f"granularities, so their results cannot be mixed"
        )
    if state.fingerprint != fingerprint:
        raise JournalError(
            f"journal {path} was written by a different campaign "
            f"configuration (journal {state.fingerprint} vs requested "
            f"{fingerprint}); refusing to mix results"
        )
    if state.golden != golden:
        raise JournalError(
            f"journal {path} was written for a different workload (journal "
            f"golden {state.golden} vs requested {golden}); the input, frame "
            f"count or algorithm changed, refusing to mix results"
        )
    if groups is not None:
        n_plans = sum(len(group) for group in groups)
        covered = sorted(index for group in state.groups or [] for index in group)
        if covered != list(range(n_plans)):
            raise JournalError(
                f"journal {path} dispatch groups do not cover the "
                f"campaign's {n_plans} injections"
            )
    else:
        if state.stratification != stratification:
            raise JournalError(
                f"journal {path} records a different stratification "
                f"({state.stratification!r} vs {stratification!r}); "
                f"the golden run or strata grid drifted since it was written"
            )
        rounds = state.chunks
        state.chunks = {}
        while len(state.chunks) in rounds:
            state.chunks[len(state.chunks)] = rounds[len(state.chunks)]
    # The loader dropped a torn trailing record from its view only; cut
    # its bytes from the file before appending after it.
    _truncate_to_complete_lines(path)
    handle = open(path, "a", encoding="utf-8")
    return CampaignJournal(path, handle, chunks_written=len(state.chunks)), state


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


@dataclass
class JournalState:
    """Everything recovered from an existing journal file."""

    path: Path
    fingerprint: dict
    #: The workload the journal was written for (see
    #: :func:`golden_identity`).
    golden: dict | None = None
    #: Plan indices per chunk for uniform journals; None for stratified
    #: ones.
    groups: list[list[int]] | None = None
    #: The stratification grid (see ``Stratification.to_dict``) for
    #: stratified journals; None otherwise.
    stratification: dict | None = None
    #: Completed checkpoint units keyed by index: chunks, or sampling
    #: rounds in a stratified journal.
    chunks: dict[int, list[InjectionResult]] = field(default_factory=dict)
    #: True when a torn/corrupt record was found and dropped.
    discarded_partial: bool = False


def load_journal(path: Path) -> JournalState:
    """Read a journal, validating schema and integrity.

    Raises :class:`JournalError` for a missing/empty file or an
    unreadable or wrong-schema header.  A torn or CRC-failing record at
    the *end* of the file — the expected shape of a crash — is silently
    discarded and flagged via ``discarded_partial``; corruption anywhere
    earlier also discards that record (its chunk just re-runs) since
    records are independent.
    """
    path = Path(path)
    if not path.exists():
        raise JournalError(f"journal {path} does not exist")
    raw_lines = path.read_bytes().split(b"\n")
    # A well-formed file ends with "\n": the final split element is "".
    # Anything non-empty there is a torn trailing record.
    torn_tail = raw_lines[-1] != b""
    lines = [line for line in raw_lines if line]
    if not lines:
        raise JournalError(f"journal {path} is empty")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise JournalError(f"journal {path}: unreadable header: {exc}") from None
    if header.get("type") != "header":
        raise JournalError(f"journal {path}: first record is not a header")
    if header.get("schema") != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"journal {path}: schema {header.get('schema')!r} is not "
            f"supported (expected {JOURNAL_SCHEMA_VERSION})"
        )
    groups: list[list[int]] | None = None
    if "stratification" in header:
        unit, lengths = "round", None
    elif "groups" in header:
        groups = [[int(index) for index in group] for group in header["groups"]]
        unit, lengths = "chunk", [len(group) for group in groups]
    else:
        raise JournalError(f"journal {path}: header records no dispatch layout")

    state = JournalState(
        path=path,
        fingerprint=header["fingerprint"],
        golden=header.get("golden"),
        groups=groups,
        stratification=header.get("stratification"),
        discarded_partial=torn_tail,
    )
    for line in lines[1:]:
        record = _parse_record(line, unit, lengths)
        if record is None:
            # Torn or corrupt record: drop it (and keep scanning — later
            # records are independent and may be intact).
            state.discarded_partial = True
            continue
        index, results = record
        state.chunks[index] = results
    return state


def _parse_record(
    line: bytes, unit: str, lengths: list[int] | None
) -> tuple[int, list[InjectionResult]] | None:
    """Parse one ``chunk`` or ``round`` line; None for anything torn or corrupt.

    A chunk must carry as many results as its header group
    (``lengths[index]``).  A round's length is not fixed by the header —
    each round samples however many cells were still unresolved — so it
    is checked against the record's own ``n_results``.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict) or record.get("type") != unit:
        return None
    index = record.get(f"{unit}_index")
    if not isinstance(index, int) or index < 0:
        return None
    if lengths is None:
        expected = record.get("n_results")
    elif index < len(lengths):
        expected = lengths[index]
    else:
        return None
    payload = record.get("results")
    if not isinstance(payload, list) or len(payload) != expected:
        return None
    encoded = json.dumps(payload, separators=(",", ":"))
    if zlib.crc32(encoded.encode("utf-8")) != record.get("crc32"):
        return None
    try:
        return index, [deserialize_result(item) for item in payload]
    except (KeyError, ValueError, TypeError):
        return None
