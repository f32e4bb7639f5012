"""The determinism-lint rule catalogue.

Each rule documents *what breaks* when it is violated, because every
suppression (inline pragma or per-file allowlist entry) must name the
rule id it is waiving -- a reviewer reading ``# det: allow[DET101]``
should be able to look the id up here and decide whether the waiver is
justified.

The three artifacts a violation can poison:

* **cache keys** -- the sweep engine (PR 2) addresses results by
  SHA-256(source tree, experiment, params, seed).  A result that also
  depends on hidden inputs (wall clock, OS entropy, interpreter hash
  seed) makes the cache serve values that a recomputation would not
  reproduce, which turns "warm runs are byte-identical" into a lie.
* **trace digests** -- the seeded trace-digest tests (PR 1) assert that
  a run's event history is bit-identical across processes and across
  scheduler implementations.  Nondeterministic ordering or timing shifts
  the digest even when aggregate results look fine.
* **ledgers** -- charging amounts derived from host time (instead of
  simulated time) break the conservation invariant the sanitizer
  enforces: charged + unaccounted no longer equals busy CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One lint rule: id, short name, and the rationale for enforcing it."""

    id: str
    name: str
    #: What the rule flags.
    flags: str
    #: Which artifact a violation poisons, and how.
    breaks: str


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in [
        Rule(
            id="DET101",
            name="wall-clock",
            flags="calls to time.time/monotonic/perf_counter/process_time "
            "(and *_ns variants) or datetime.now/utcnow/today",
            # Host time is not an input of the simulation: any value read
            # from it differs between runs and between machines.
            breaks="cache keys and ledgers: a result or charge derived "
            "from host time cannot be reproduced from (tree, params, "
            "seed), so cached sweep points go stale-but-served and "
            "conservation checks see phantom time.  Simulated time is "
            "Simulation.now; host-side *reporting* (bench harnesses, "
            "progress wall-clocks) is the one legitimate use and must be "
            "allowlisted per file.",
        ),
        Rule(
            id="DET102",
            name="global-random",
            flags="any use of the module-level `random` module (imports "
            "from it, attribute access on it) outside sim/rng.py",
            # random.* draws from one process-global Mersenne Twister,
            # seeded from OS entropy at import; any consumer perturbs
            # every other consumer's stream.
            breaks="cache keys and trace digests: draws outside the "
            "forkable SeededRng tree are unseeded (differ per process) "
            "and unordered (adding a consumer shifts every later draw). "
            "All randomness must flow through sim/rng.py's SeededRng, "
            "whose fork() streams are stable by construction.",
        ),
        Rule(
            id="DET103",
            name="os-entropy",
            flags="os.urandom, uuid.uuid1/uuid4, and the secrets module",
            breaks="cache keys and trace digests: OS entropy is "
            "different on every call, so anything it reaches (ids, "
            "seeds, tie-breakers) differs between the run that populated "
            "the cache and the run that would verify it.",
        ),
        Rule(
            id="DET104",
            name="builtin-hash",
            flags="calls to the builtin hash()",
            # str/bytes hashing is salted per process (PYTHONHASHSEED).
            breaks="cache keys, trace digests, and ledgers: hash() of a "
            "string differs between processes, so using it for ordering, "
            "bucketing, or seeding makes parallel sweep workers disagree "
            "with serial runs.  Use zlib.crc32/adler32 (see "
            "SeededRng.fork) or hashlib for stable digests.",
        ),
        Rule(
            id="DET106",
            name="stray-heapq",
            flags="importing heapq (or calling heapq.*) outside the "
            "sim/ and sched/ subtrees",
            # The engine's timer queues (sim/events.py) and the
            # scheduler's decay buckets (sched/) are the only sanctioned
            # homes for binary heaps; both pair every entry with an
            # explicit monotonically-assigned sequence number so equal
            # keys pop in insertion order.
            breaks="trace digests: a heap ordered by a key without a "
            "total-order tie-breaker resolves ties by comparing whatever "
            "the payload objects compare by (often id()-dependent or "
            "error-raising), so equal-priority entries pop in "
            "process-dependent order.  Route timers through "
            "Simulation.at/after (which uses the pooled timer queue) or "
            "add the subsystem to the sim/sched exemption with a seq "
            "tie-breaker, reviewed.",
        ),
        Rule(
            id="DET107",
            name="module-counter",
            flags="itertools.count(...) evaluated at import time: at "
            "module level, or in a class body outside any function",
            # One such stream serves every simulation in the process.
            breaks="trace digests: ids drawn from a process-wide counter "
            "(and the entity names built from them) depend on how many "
            "objects earlier runs in the process created, so a second "
            "run diverges from a fresh one.  Draw ids from "
            "Simulation.id_stream(name), or keep the counter on an "
            "instance.",
        ),
        Rule(
            id="CHG201",
            name="uncharged-subsystem",
            flags="a registered resource-consuming primitive (see "
            "repro.analysis.charging.PRIMITIVES) from which no ledger "
            "charge, Scheduler.note_charge, or explicit unaccounted_* "
            "sink is reachable over the call graph",
            breaks="ledgers: consumption that never reaches a ledger is "
            "invisible to billing, caps, and the sanitizer's "
            "conservation checks -- exactly the unattributed-work hole "
            "resource containers exist to close.  Every consuming "
            "subsystem must charge a container or book to an "
            "unaccounted sink.",
        ),
        Rule(
            id="CHG202",
            name="uncharged-path",
            flags="a control-flow path through a consuming primitive "
            "that consumes and then returns (or falls off the end) "
            "without a ledger charge or unaccounted_* booking; falsy "
            "returns and raises count as rejection paths",
            breaks="ledgers: a single uncharged branch (a cache-miss "
            "path, an anonymous-owner path) leaks consumption on "
            "inputs the sanitizer's seeds never exercised, so "
            "conservation holds in CI and fails in the field.",
        ),
        Rule(
            id="SMP301",
            name="discarded-pick",
            flags="a pick_for_cpu(...) call whose result is thrown away "
            "(bare expression statement)",
            breaks="trace digests and ledgers: pick_for_cpu dequeues "
            "the winner from its per-core shard; discarding it leaks "
            "the entity out of every run queue, so it is never "
            "scheduled or charged again and per-seed schedules "
            "diverge from the reference.",
        ),
        Rule(
            id="SMP302",
            name="unpaired-pick",
            flags="a function that calls pick_for_cpu but from which no "
            "on_slice_end call is reachable within its module",
            breaks="trace digests and ledgers: the dequeue-on-dispatch "
            "protocol requires every picked entity to be handed back "
            "via on_slice_end when its slice ends; a caller that "
            "cannot reach the hand-back starves the entity and the "
            "charges it would have accrued.",
        ),
        Rule(
            id="SMP303",
            name="unmediated-global-write",
            flags="writes to global stride/vtime/cap scheduler state "
            "(pass_value, _group_vtime, charged_us_total, "
            "window_usage_us) outside sched/, core/container.py, or "
            "io/scheduler.py",
            breaks="ledgers and trace digests: shares only hold "
            "machine-wide because stride state is mutated at known "
            "mediation points; an outside write skews vtime or cap "
            "windows, so charged totals stop reconciling and "
            "schedules become order-dependent.",
        ),
        Rule(
            id="SMP304",
            name="shard-trespass",
            flags="any access to per-core shard internals (_shards, "
            "layer_heaps, gpos) outside sched/",
            breaks="trace digests: shard heap order and gpos indices "
            "are only consistent between scheduler entry points; "
            "outside mutation corrupts the ready index, and outside "
            "reads observe mid-protocol state, both of which make "
            "schedules (and hence digests) irreproducible.",
        ),
        Rule(
            id="UNIT401",
            name="mixed-units-arith",
            flags="addition/subtraction (incl. +=/-=) between operands "
            "of different inferred dimensions (_us vs _bytes vs _kb "
            "...)",
            breaks="ledgers: microseconds added to bytes still sums, "
            "so a mixed charge silently corrupts a ledger cell in a "
            "way conservation totals can fail to catch; billing then "
            "reports garbage with full confidence.",
        ),
        Rule(
            id="UNIT402",
            name="unit-dropping-assign",
            flags="assignment binding a value of one dimension to a "
            "name suffixed with a different one (total_us = "
            "size_bytes)",
            breaks="ledgers: the name is the unit contract every "
            "reader and every ledger field relies on; a mismatched "
            "bind launders bytes into a *_us cell (or vice versa) and "
            "poisons every downstream charge computed from it.",
        ),
        Rule(
            id="UNIT403",
            name="mixed-units-compare",
            flags="ordering/equality comparison between operands of "
            "different inferred dimensions (timeout_ms < deadline_us)",
            breaks="trace digests and ledgers: a threshold compared in "
            "the wrong unit flips scheduling/admission decisions by "
            "factors of 1e3, so runs take different control-flow paths "
            "than intended and charge accordingly.",
        ),
        Rule(
            id="DET105",
            name="set-iteration",
            flags="iterating a bare set/frozenset (literal, set() call, "
            "set comprehension, or a local name only ever bound to one) "
            "in a for loop, comprehension, or list()/tuple()/enumerate()",
            # Set iteration order follows the salted string hash for str
            # members and id()-derived hashes for objects.
            breaks="trace digests and cache keys: set order can differ "
            "between processes, so any set-ordered walk that reaches "
            "scheduling decisions or trace output desynchronises "
            "parallel sweep workers from serial runs.  Wrap the set in "
            "sorted() with a deterministic key, or keep an ordered "
            "container (dict preserves insertion order).",
        ),
    ]
}


def describe(rule_id: str) -> str:
    """One-paragraph human description of a rule (CLI `lint --rules`)."""
    rule = RULES[rule_id]
    return (
        f"{rule.id} ({rule.name})\n"
        f"  flags:  {rule.flags}\n"
        f"  breaks: {rule.breaks}"
    )
