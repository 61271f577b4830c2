"""Starts the benchmark's layer probe in every process of a traced run.

This directory is on ``PYTHONPATH`` only in traced runs, and the probe
starts only when ``PERFBENCH_PROBE_OUT`` names its output directory.
"""

import os

if os.environ.get("PERFBENCH_PROBE_OUT"):
    import perfbench_probe

    perfbench_probe.install(os.environ["PERFBENCH_PROBE_OUT"])
