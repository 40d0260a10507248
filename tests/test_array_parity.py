"""The array tier reproduces every figure and sweep row bit-exactly.

Every figure builder, device stage (fig6/8/9) and sim stage (fig17/18/19)
alike, resolves its kernel through the process-default execution policy,
so each is compared under ``kernel_policy="scalar"`` vs. ``"array"``.
The CLI sweep's persisted JSON rows must be byte-identical between
``--kernel-policy scalar`` and ``--kernel-policy array``.  No tolerances
anywhere: the array tier ships only because it changes nothing.
"""

import pytest

from repro.analysis.figures import (
    fig6_nrh_boxes,
    fig8_row_scatter,
    fig9_ber_boxes,
    fig17_18_performance_energy,
    fig19_periodic,
)
from repro.cli import main
from repro.exec import ExecutionPolicy, set_default_policy
from repro.exec.parity import assert_parity
from repro.runtime import REPORT_NAME

#: Small grids: enough rows/points to exercise every kernel path, small
#: enough that the whole module stays CI-fast.
_DEVICE_BUILDERS = {
    "fig6": lambda: fig6_nrh_boxes(("H5",), tras_factors=(0.45, 0.27),
                                   per_region=6, seed=11),
    "fig8": lambda: fig8_row_scatter(("H5",), reduced_factor=0.45,
                                     per_region=8, seed=11),
    "fig9": lambda: fig9_ber_boxes(("S6",), tras_factors=(0.45,),
                                   per_region=6, seed=11),
}


def _under(policy, build):
    """``build()`` under the ``policy`` kernel policy."""
    set_default_policy(ExecutionPolicy(kernel_policy=policy))
    return build()


@pytest.mark.parametrize("figure", sorted(_DEVICE_BUILDERS))
def test_device_figures_identical_under_array_policy(figure):
    build = _DEVICE_BUILDERS[figure]
    assert_parity(lambda: _under("scalar", build),
                  lambda: _under("array", build),
                  label=f"{figure} under the array policy")


@pytest.mark.parametrize("policy", ("array",))
def test_fig17_18_identical_across_sim_kernels(policy):
    def build():
        return fig17_18_performance_energy(
            mitigations=("PARA",), vendors=("H",), nrh_values=(64,),
            workloads=("spec06.mcf",), requests=300)

    assert_parity(lambda: _under("scalar", build),
                  lambda: _under(policy, build),
                  label=f"fig17/18 under the {policy} policy")


@pytest.mark.parametrize("policy", ("array",))
def test_fig19_identical_across_sim_kernels(policy):
    def build():
        return fig19_periodic(densities_gbit=(8,),
                              latency_factors=(1.00, 0.36), requests=300)

    assert_parity(lambda: _under("scalar", build),
                  lambda: _under(policy, build),
                  label=f"fig19 under the {policy} policy")


def test_cli_sweep_rows_byte_identical(tmp_path):
    def sweep(policy):
        out = tmp_path / policy
        assert main(["sweep", "--dir", str(out), "--jobs", "1",
                     "--mitigations", "Graphene,PARA", "--nrh", "128",
                     "--requests", "300", "--kernel-policy", policy]) == 0
        rows = {p.name: p.read_bytes() for p in sorted(out.glob("*.json"))
                if p.name != REPORT_NAME}  # run metadata, not a result row
        assert rows
        return rows

    assert sweep("scalar") == sweep("array")
