"""Measuring harness of the sweep-stack benchmark (``sweepbench/run.py``).

* :mod:`harness.workloads` — the four workloads: inputs generated from a
  seed, one request through the public entry points, output checks;
* :mod:`harness.load` — the closed-loop HTTP client load on the daemon;
* :mod:`harness.tracing` — spans recorded from outside the program around
  each layer's public functions, and their self-time aggregation;
* :mod:`harness.trial` — the measured child process of a sweep workload,
  and of every traced pass;
* :mod:`harness.stats` — medians, quartiles, percentiles and verdicts.

Nothing here changes the measured program: every hook is installed on
public classes, module bindings and the kernel backend registry, and is
removed again on exit.
"""
