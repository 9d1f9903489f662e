"""Kernel backend selection: config plumbing, end-to-end equivalence.

``LazyMCConfig.kernel_backend`` routes the filter funnel's MC arm to the
sets kernel or the bit-parallel kernel.  These tests pin the contract:
both backends return the same omega with valid cliques, the default
stays bit-identical to the sets-only code path (``words_scanned == 0``),
the knob threads through the service job layer and the CLI unchanged,
and every layer rejects the retired ``"auto"`` value.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import LazyMCConfig, lazymc
from repro.service.jobs import JobSpec
from tests.conftest import brute_force_max_clique, random_graph


class TestConfigValidation:
    def test_defaults(self):
        cfg = LazyMCConfig()
        assert cfg.kernel_backend == "sets"

    @pytest.mark.parametrize("backend", ["sets", "bits"])
    def test_valid_backends(self, backend):
        assert LazyMCConfig(kernel_backend=backend).kernel_backend == backend

    def test_bad_backend_rejected(self):
        for backend in ("simd", "auto"):
            with pytest.raises(ValueError):
                LazyMCConfig(kernel_backend=backend)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_backends_agree_random(self, seed):
        g = random_graph(40, 0.25 + 0.1 * (seed % 3), seed=seed * 13 + 1)
        results = {backend: lazymc(g, LazyMCConfig(kernel_backend=backend))
                   for backend in ("sets", "bits")}
        omegas = {b: r.omega for b, r in results.items()}
        assert len(set(omegas.values())) == 1, omegas
        for r in results.values():
            assert r.verify(g)

    @given(n=st.integers(4, 22), p=st.floats(0.1, 0.9),
           seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_bits_backend_exact(self, n, p, seed):
        g = random_graph(n, p, seed=seed)
        r = lazymc(g, LazyMCConfig(kernel_backend="bits"))
        assert r.omega == len(brute_force_max_clique(g))
        assert r.verify(g)

    def test_default_path_never_touches_words(self):
        g = random_graph(50, 0.3, seed=9)
        r = lazymc(g)
        assert r.counters.words_scanned == 0

    def test_bits_backend_charges_words(self):
        g = random_graph(50, 0.5, seed=9)
        r = lazymc(g, LazyMCConfig(kernel_backend="bits"))
        if r.funnel.searched:
            assert r.counters.words_scanned > 0


class TestServicePlumbing:
    def test_jobspec_accepts_kernel(self):
        spec = JobSpec(target="CAroad", config={"kernel_backend": "bits"})
        assert spec.solver_config().kernel_backend == "bits"

    def test_jobspec_rejects_bad_kernel(self):
        for kernel in ("gpu", "auto"):
            with pytest.raises(ValueError):
                JobSpec(target="CAroad", config={"kernel_backend": kernel})

    @pytest.mark.parametrize("kernel", ["sets", "bits"])
    def test_solve_graph_passes_kernel(self, kernel):
        from repro.datasets import load
        from repro.service.worker import solve_graph

        record = solve_graph(load("WormNet"),
                             config=LazyMCConfig(kernel_backend=kernel))
        assert record["omega"] == 24


class TestCLI:
    @pytest.mark.parametrize("kernel", ["bits"])
    def test_solve_kernel_flag(self, kernel, capsys):
        from repro.cli import main

        assert main(["solve", "WormNet", "--kernel", kernel]) == 0
        assert "omega      = 24" in capsys.readouterr().out

    def test_bad_kernel_flag_exits(self):
        from repro.cli import main

        for kernel in ("gpu", "auto"):
            with pytest.raises(SystemExit):
                main(["solve", "WormNet", "--kernel", kernel])
