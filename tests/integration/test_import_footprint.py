"""Import footprint: building and running a kernel or a cluster loads
only what the run turns on.

With both opt-in switches off, a host and a cluster run without
importing numpy, the observability facade, the analysis package or any
figure harness they did not name.  With ``REPRO_TRACE=1`` and
``REPRO_SANITIZE=1`` the same script gets its Observability, its
charging sanitizer and the cluster's conservation checker.  Each half
runs in a fresh interpreter, since this test process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

SCRIPT = """
import json
import sys

import repro
import repro.experiments.fig_disk_isolation
import repro.experiments.fig_cluster_isolation
from repro import Host
from repro.experiments.fig_cluster_isolation import build_cluster

host = Host(seed=1)
host.run(seconds=0.001)
cluster, _balancer, principals = build_cluster("bound", n_backends=8, seed=1)
cluster.run(seconds=0.001)
kernels = [host.kernel] + [cluster.kernel(name) for name in cluster.hosts]
print(json.dumps({
    "modules": sorted(sys.modules),
    "sanitizers": [type(k.sanitizer).__name__ for k in kernels],
    "observabilities": [type(k.observability).__name__ for k in kernels],
    "checker": type(principals.checker).__name__,
}))
"""

#: Loaded only by a run that turns observability or sanitizing on, or
#: by code that names them; the script above does neither.
OPTIONAL = (
    "numpy",
    "repro.obs.observe",
    "repro.obs.timeseries",
    "repro.analysis",
    "repro.experiments.fig11_priority",
)


def _run(**flags: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_SANITIZE", None)
    env.update(flags)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_flags_off_load_no_optional_layer():
    report = _run()
    loaded = set(report["modules"])
    assert [name for name in OPTIONAL if name in loaded] == []
    assert set(report["sanitizers"]) == {"NoneType"}
    assert set(report["observabilities"]) == {"NoneType"}
    assert report["checker"] == "NoneType"


def test_flags_on_attach_every_layer():
    report = _run(REPRO_TRACE="1", REPRO_SANITIZE="1")
    assert set(report["sanitizers"]) == {"ChargingSanitizer"}
    assert set(report["observabilities"]) == {"Observability"}
    assert report["checker"] == "ClusterConservationChecker"


def test_every_lazy_obs_name_resolves():
    import repro.obs as obs

    assert sorted(obs._LAZY) == sorted(obs.__all__)
    for name in obs.__all__:
        module, attr = obs._LAZY[name]
        assert getattr(obs, name) is getattr(sys.modules[module], attr)
