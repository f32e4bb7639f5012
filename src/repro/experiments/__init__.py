"""Experiment harnesses: one module per table/figure of the paper.

Each module exposes ``run(...)`` returning a structured result and a
``main()`` that prints the paper-style table.  ``run_all()`` regenerates
everything (used by ``examples`` and the EXPERIMENTS.md refresh).

| Module                  | Paper result                                |
|-------------------------|---------------------------------------------|
| table1_primitives       | Table 1: container primitive costs          |
| baseline                | Section 5.3/5.4: baseline throughput        |
| fig11_priority          | Fig. 11: prioritised client response time   |
| fig12_cgi               | Figs. 12+13: CGI throughput and CPU share   |
| fig14_synflood          | Fig. 14: SYN-flood resilience               |
| fig_disk_isolation      | Disk-bandwidth isolation (FIFO vs. WFQ)     |
| virtual_servers         | Section 5.8: guest-server isolation         |
| ablations               | DESIGN.md's design-choice ablations         |

Importing this package loads no harness: ``from repro.experiments
import fig11_priority`` is a plain submodule import, so a run pays only
for the harnesses it uses, and ``run_all()`` imports the ones it runs.
"""

__all__ = ["run_all"]


def run_all(fast: bool = True, jobs: int = 1, cache: bool = True) -> dict:
    """Run every experiment; ``fast`` shrinks windows for CI use.

    ``jobs``/``cache`` reach each harness's sweep grid: points fan out
    to ``jobs`` worker processes and finished points are served from the
    content-addressed cache.
    """
    from repro.experiments import (
        baseline,
        fig11_priority,
        fig12_cgi,
        fig14_synflood,
        fig_disk_isolation,
        table1_primitives,
        virtual_servers,
    )

    return {
        "table1": table1_primitives.run(),
        "baseline": baseline.run(fast=fast, jobs=jobs, cache=cache),
        "fig11": fig11_priority.run(fast=fast, jobs=jobs, cache=cache),
        "fig12_13": fig12_cgi.run(fast=fast, jobs=jobs, cache=cache),
        "fig14": fig14_synflood.run(fast=fast, jobs=jobs, cache=cache),
        "fig_disk": fig_disk_isolation.run(fast=fast, jobs=jobs, cache=cache),
        "virtual_servers": virtual_servers.run(fast=fast, jobs=jobs, cache=cache),
    }
