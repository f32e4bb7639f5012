"""Static and runtime verification of the reproduction's invariants.

Two checkers keep the repo's flagship properties honest:

* :mod:`repro.analysis.analyze` -- the **static gate**, ``python -m
  repro check``.  Four rule passes run off one shared single-parse
  module graph (:mod:`repro.analysis.graph`), and their findings go
  through one suppression path (pragmas, one reasoned per-file
  allowlist, one unwaivable map) and one reasoned baseline:

  - a **determinism** pass (:mod:`repro.analysis.lint`, DET1xx).  The
    sweep engine's content-addressed cache and the seeded trace-digest
    tests are only sound if a simulation run is a pure function of
    (source tree, params, seed).  Any wall-clock read, global-RNG draw,
    ``hash()``-derived value, or hash-ordered set iteration that
    reaches simulation state silently breaks that contract;
  - a **charging-completeness** dataflow pass
    (:mod:`repro.analysis.charging`, CHG2xx) proving every registered
    resource-consuming primitive routes into a ledger charge or an
    explicit unaccounted sink on every path;
  - an **SMP shard-protocol** conformance pass
    (:mod:`repro.analysis.smp_rules`, SMP3xx) enforcing the
    ``pick_for_cpu``/``on_slice_end`` dequeue-on-dispatch pairing and
    the mediation points for global stride/vtime/cap state;
  - a **units** checker (:mod:`repro.analysis.units`, UNIT4xx) that
    lifts the ``_us``/``_bytes``/``_kb`` naming convention into a
    checked dimension discipline.

* :mod:`repro.analysis.sanitizer` -- an opt-in runtime
  **charging-conservation sanitizer**.  The paper's central claim is
  that every unit of kernel work is charged to exactly one explicit
  resource principal; the sanitizer hooks the CPU dispatcher's single
  accounting choke point and asserts, at every slice and at end of run,
  that charged CPU + unaccounted interrupt time equals busy CPU time,
  that no ledger goes negative, that no charge lands on a destroyed
  container, and that scheduler-side charges reconcile with container
  ledgers.  Its :data:`~repro.analysis.sanitizer.DIMENSION_CHECKS` map
  is cross-checked against the static pass's primitive registry, so the
  static and dynamic checkers agree on the charging surface.
  ``python -m repro sanitize <experiment>`` runs it.
"""

from repro.analysis.rules import RULES, Rule

__all__ = ["RULES", "Rule"]
