"""The repository's benchmark: three closed-loop workloads through the public
:class:`repro.SimilaritySearchEngine` API, with a separate traced run that
splits each operation's time across the library's layers.

Run it from the repository root::

    python3 perfbench/run.py --workload rcz-sharded-flat-1nn --seed 1 --seconds 40 --trace 0
"""
