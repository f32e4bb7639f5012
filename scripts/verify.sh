#!/usr/bin/env bash
# Repo verification: the static gate, tier-1 tests, perf smoke, and a
# parallel-sweep smoke.
#
# Usage: scripts/verify.sh
#
# Runs, in order:
#   0. the static gate (`python -m repro check`), with a 10s wall
#      budget -- the shared-parse graph keeps all four passes in the
#      hundreds of ms: determinism DET1xx (no wall clocks, global RNG,
#      OS entropy, hash(), bare-set iteration, or module-level id
#      counters), charging-flow CHG2xx, shard-protocol SMP3xx and
#      units UNIT4xx over src/repro, against the one reasoned baseline
#   0b. trace determinism: a traced fig11 smoke run twice must export
#      byte-identical artifacts, and the Chrome trace must be
#      schema-valid JSON; the SYN-flood packet path (the benchmark's
#      synflood point, RC and an LRP twin) must hash its demux,
#      enqueue, dispatch and slice records to the pinned digests
#   0c. disk-path trace determinism: the same gate over a traced
#      fig_disk_isolation smoke point (exercises repro.io end-to-end)
#   0e. SMP charging conservation: a 4-core multi-threaded server run
#      under the sanitizer must conserve CPU time per core
#      (accounting-core-busy, core-busy-split, overcommitted-core), and
#      its slice, dispatch and steal records must hash to the pinned
#      4-core schedule digest (a schedule change fails here)
#   0g. monitor determinism: the fig_overload_onset monitored run twice
#      must export byte-identical dashboards + monitor JSONL, and the
#      unmodified host must carry a burn-rate alert
#   0h. cluster byte-determinism: a 5-host cluster run (balancer + 4
#      backends, global principals, SYN flood) hashed over every
#      host's trace must be identical across two same-seed runs in
#      one process (no reset between them: ids are per-simulation) and
#      equal to the pinned digest (a schedule change fails here)
#   0i. benchmark outputs: a short perfbench run of each workload must
#      report "correct": true, i.e. the simulated outputs still match
#      perfbench/expected.json
#   1. tier-1 unit/integration/property tests (the hard gate)
#   2. the perf-marker smokes: self-normalising in-process ratios (pick
#      cost growth from 10 to 1000 containers at 1 and 8 cores, warm vs
#      cold sweep cache) plus the analyzer-speed and observability-
#      overhead pins
#   3. a Figure 11 regeneration through the parallel sweep engine
#      (--jobs 2); re-runs hit the content-addressed .sweepcache/
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-0: static gate =="
CHECK_START="$(date +%s)"
python -m repro check
CHECK_ELAPSED="$(( $(date +%s) - CHECK_START ))"
if [ "$CHECK_ELAPSED" -ge 10 ]; then
  echo "static gate FAILED its 10s wall budget (took ${CHECK_ELAPSED}s)"
  exit 1
fi
echo "static gate OK (${CHECK_ELAPSED}s, budget 10s)"

echo "== tier-0b: trace determinism =="
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
python -m repro trace fig11 --smoke --trace-out "$TRACE_TMP/run1" >/dev/null
python -m repro trace fig11 --smoke --trace-out "$TRACE_TMP/run2" >/dev/null
for artifact in trace.jsonl trace-events.json flame.txt metrics.json; do
  cmp "$TRACE_TMP/run1/$artifact" "$TRACE_TMP/run2/$artifact" \
    || { echo "trace determinism FAILED: $artifact differs"; exit 1; }
done
python - "$TRACE_TMP/run1" <<'PYEOF'
import json, pathlib, sys
out = pathlib.Path(sys.argv[1])
from repro.obs.export import validate_chrome_trace
document = json.loads((out / "trace-events.json").read_text())
problems = validate_chrome_trace(document)
for line in (out / "trace.jsonl").read_text().splitlines():
    record = json.loads(line)
    if record.get("type") not in ("slice", "span"):
        problems.append(f"jsonl record of unknown type: {record}")
json.loads((out / "metrics.json").read_text())
if problems:
    print("trace schema FAILED:")
    for problem in problems[:10]:
        print(" ", problem)
    raise SystemExit(1)
print(f"trace determinism OK ({len(document['traceEvents'])} events, "
      "byte-identical across runs)")
PYEOF
python - <<'PYEOF'
from repro import SystemMode
from tests.net.test_flood_digest import EXPECTED, flood_path_digest

for mode in (SystemMode.RC, SystemMode.LRP):
    digest, count = flood_path_digest(mode)
    if digest != EXPECTED[mode]:
        raise SystemExit(
            f"flood path FAILED ({mode.value}): digest {digest} != pinned "
            f"{EXPECTED[mode]}"
        )
    print(f"flood path OK ({mode.value}: {count} records match the pin)")
PYEOF

echo "== tier-0c: disk-path trace determinism =="
python -m repro trace fig_disk_isolation --smoke --trace-out "$TRACE_TMP/run3" >/dev/null
python -m repro trace fig_disk_isolation --smoke --trace-out "$TRACE_TMP/run4" >/dev/null
for artifact in trace.jsonl trace-events.json flame.txt metrics.json; do
  cmp "$TRACE_TMP/run3/$artifact" "$TRACE_TMP/run4/$artifact" \
    || { echo "disk trace determinism FAILED: $artifact differs"; exit 1; }
done
grep -q '"subsystem":"disk"' "$TRACE_TMP/run3/trace.jsonl" \
  || { echo "disk trace FAILED: no disk slices in trace.jsonl"; exit 1; }
echo "disk trace determinism OK (byte-identical across runs)"

echo "== tier-0e: SMP charging conservation (4 cores) =="
python - <<'PYEOF'
import hashlib

from repro import Host, SystemMode, ip_addr
from repro.apps.httpserver import MultiThreadedServer
from repro.apps.webclient import HttpClient
from repro.kernel.kernel import KernelConfig

config = KernelConfig(mode=SystemMode.RC, n_cpus=4)
host = Host(mode=SystemMode.RC, seed=19, config=config, sanitize=True)
host.kernel.fs.add_file("/index.html", 2048)
host.kernel.fs.warm("/index.html")
records = host.sim.trace.record(["cpu.slice", "sched.steal", "sched.dispatch"])
MultiThreadedServer(host.kernel, n_threads=8).install()
for i in range(16):
    HttpClient(host.kernel, ip_addr(10, 0, 0, i + 1), f"c{i}").start(
        at_us=2_000.0 + i * 120.0
    )
host.run(seconds=0.5)
violations = host.kernel.sanitizer.finish()
if violations:
    print("SMP conservation FAILED:")
    for violation in violations[:10]:
        print(" ", violation)
    raise SystemExit(1)
cpu = host.kernel.cpu
split = sum(cpu.core_busy_us)
total = cpu.accounting.total_cpu_us
if abs(split - total) > 1e-6:
    raise SystemExit(f"core-busy split {split} != accounting total {total}")
h = hashlib.sha256()
for record in records:
    fields = "|".join(f"{k}={v!r}" for k, v in sorted(record.data.items()))
    h.update(f"{record.time:.6f}|{record.category}|{fields}\n".encode())
# Re-pin only for a deliberate schedule change, and say why in CHANGES.md
# (tests/kernel/test_smp_sched.py pins the same digest).
PINNED = "af688c7a9a0c2d655dde1b1439bd9779c8c8c10c3ddbc82c5b3e48ce0c95ec86"
if h.hexdigest() != PINNED:
    raise SystemExit(
        f"4-core schedule FAILED: digest {h.hexdigest()} != pinned {PINNED}"
    )
print(f"SMP conservation OK (4 cores, {total / 1e6:.3f}s CPU charged, "
      f"{host.kernel.scheduler.steals} steals, 0 violations, "
      f"{len(records)} records match the pinned digest)")
PYEOF

echo "== tier-0g: monitor determinism =="
python -m repro monitor fig_overload_onset --trace-out "$TRACE_TMP/mon1" >/dev/null
python -m repro monitor fig_overload_onset --trace-out "$TRACE_TMP/mon2" >/dev/null
for host in host-000 host-001; do
  for artifact in dashboard.txt monitor.jsonl; do
    cmp "$TRACE_TMP/mon1/$host/$artifact" "$TRACE_TMP/mon2/$host/$artifact" \
      || { echo "monitor determinism FAILED: $host/$artifact differs"; exit 1; }
  done
done
grep -q '"kind":"burn_rate"' "$TRACE_TMP/mon1/host-000/monitor.jsonl" \
  || { echo "monitor FAILED: no burn-rate alert on the unmodified host"; exit 1; }
echo "monitor determinism OK (dashboards byte-identical across runs)"

echo "== tier-0h: cluster byte-determinism =="
python - <<'PYEOF'
import hashlib

from repro.experiments.fig_cluster_isolation import _start_clients, build_cluster


def digest(seed):
    cluster, _balancer, _principals = build_cluster("bound", 4, seed=seed)
    records = cluster.sim.trace.record(
        ["cpu.slice", "lb.forward", "lb.splice", "cluster.window"]
    )
    _start_clients(cluster, 4, True, [])
    cluster.run(seconds=0.1)
    h = hashlib.sha256()
    for record in records:
        data = record.data
        h.update(
            (
                f"{record.time:.6f}|{record.category}|{data.get('host')}"
                f"|{data.get('kind')}|{data.get('amount_us')}"
                f"|{data.get('charge')}|{data.get('tenant')}"
                f"|{data.get('backend')}|{data.get('cpu_us')}\n"
            ).encode()
        )
    return h.hexdigest()


# Re-pin only for a deliberate schedule change, and say why in CHANGES.md.
PINNED = "14da0cb5e2edacf1d0f898a4eda729770aad80fd974dcb05162d433020dd891b"

first = digest(seed=31)
if digest(seed=31) != first:
    raise SystemExit("cluster determinism FAILED: same seed diverged")
if first != PINNED:
    raise SystemExit(
        f"cluster schedule FAILED: digest {first} != pinned {PINNED}"
    )
print(f"cluster determinism OK (5-host digest {first[:12]} stable "
      "across runs, matches the pin)")
PYEOF

echo "== tier-0i: benchmark outputs match perfbench/expected.json =="
for workload in synflood cluster disk spinner; do
  python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 1 \
    > "$TRACE_TMP/perfbench-$workload.txt"
  tail -n 1 "$TRACE_TMP/perfbench-$workload.txt" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
sys.exit(0 if result.get("correct") is True else 1)
' || { echo "perfbench $workload FAILED: outputs drifted from expected.json"
         tail -n 2 "$TRACE_TMP/perfbench-$workload.txt"; exit 1; }
  echo "perfbench $workload OK (correct: true)"
done

echo "== tier-1: pytest =="
python -m pytest -x -q

echo "== tier-2: perf smoke =="
python -m pytest -m perf -q benchmarks/

echo "== sweep smoke: fig11 --jobs 2 =="
python -m repro fig11 --jobs 2

echo "verify: OK"
