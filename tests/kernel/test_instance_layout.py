"""The scheduler keeps CPython's fast attribute layout.

CPython 3.11 stores up to 29 instance attributes inline (shared-key
inline values).  An instance that grows a 30th falls back to a plain
dict, and every attribute load on it slows down: a 30th attribute on
``ContainerScheduler`` read +5% wall on the spinner workload, so the
scheduler folds new state into existing fields.
"""

from repro import SystemMode
from repro.apps.httpserver import EventDrivenServer, ListenSpec
from repro.experiments.common import make_host, static_clients

#: Attributes CPython 3.11 keeps in an instance's inline values.
INLINE_ATTRIBUTE_LIMIT = 29


def test_scheduler_fits_inline_values():
    host = make_host(SystemMode.RC, seed=3)
    EventDrivenServer(
        host.kernel, specs=[ListenSpec("default")], use_containers=True
    ).install()
    clients = static_clients(host, 2)
    host.run(seconds=0.02)
    assert sum(c.stats_completed for c in clients) > 0  # the scheduler ran
    assert len(vars(host.kernel.scheduler)) <= INLINE_ATTRIBUTE_LIMIT
