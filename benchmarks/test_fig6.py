"""Benchmark: regenerate Fig. 6 (algorithmic-choice threshold sweep)."""

from repro.bench import fig6


def test_fig6_density_threshold(benchmark, choice_config):
    rows = benchmark.pedantic(lambda: fig6.run(choice_config),
                              rounds=1, iterations=1)
    for r in rows:
        # Every sweep point produced a full solve.
        assert set(r["work"]) == set(fig6.SETTINGS)
        for v in r["work"].values():
            assert v > 0
    # The paper's point: the threshold matters — work varies across phi on
    # graphs with dense candidate subgraphs.
    dense = [r for r in rows if r["graph"] == "HS-CX"][0]
    works = [dense["work"][str(t)] for t in fig6.THRESHOLDS]
    assert max(works) > 1.02 * min(works), works
    # On the dense graph some sub-solves landed in high-density buckets.
    assert any(b >= 5 for b in dense.get("density_buckets", {}))
