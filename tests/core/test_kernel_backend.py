"""The retired ``kernel_backend`` knob is a typed error on every surface.

The bit kernel left LazyMC's solve path (it stays a ``bench micro``
subject), and with it the config field, the service knob and the CLI
flag.  A caller still passing one gets a typed rejection, never a crash
or a silent default: ``TypeError`` from ``LazyMCConfig``, a
``ValueError`` naming the key from ``JobSpec``, and a usage error (exit
2) from the CLI.  The wire form is checked in ``tests/service``.
"""

import pytest

from repro import LazyMCConfig
from repro.service.jobs import JobSpec

RETIRED_VALUES = ("sets", "bits", "auto")


class TestConfigValidation:
    def test_bad_backend_rejected(self):
        for backend in RETIRED_VALUES:
            with pytest.raises(TypeError, match="kernel_backend"):
                LazyMCConfig(kernel_backend=backend)
            with pytest.raises(TypeError, match="kernel_backend"):
                LazyMCConfig().replace(kernel_backend=backend)


class TestServicePlumbing:
    def test_jobspec_rejects_bad_kernel(self):
        for kernel in RETIRED_VALUES:
            with pytest.raises(ValueError,
                               match="unknown config keys: kernel_backend;"):
                JobSpec(target="CAroad", config={"kernel_backend": kernel})


class TestCLI:
    def test_bad_kernel_flag_exits(self, capsys):
        from repro.cli import main

        for command in ("solve", "query"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "WormNet", "--kernel", "bits"])
            assert exit_info.value.code == 2
            assert "--kernel" in capsys.readouterr().err
