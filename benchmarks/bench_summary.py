"""The reproduction's bottom line: every paper claim, checked at once.

Each stage benchmark (``bench_hot_path``, ``bench_serving``,
``bench_cluster``, ``bench_dse``, ``bench_placement``) holds its own
acceptance floor; this one checks the paper's claims.
"""

from repro.experiments.summary import run


def test_bench_summary(benchmark, print_table):
    table = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(table)
    assert all(table.column("holds")), "a paper claim no longer holds"
