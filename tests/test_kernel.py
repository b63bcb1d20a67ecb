"""Kernel trace generation: tiling, octet duplication, scheduling."""

import numpy as np
import pytest

from repro.gpu.config import GPUConfig, KernelConfig, SimulationOptions
from repro.gpu.isa import (
    FILTER_BASE,
    LOAD_A,
    LOAD_B,
    STORE_D,
    WORKSPACE_BASE,
)
from repro.gpu.kernel import (
    gemm_geometry,
    generate_sm_trace,
    sm_cta_blocks,
)

from tests.conftest import make_spec

SMALL_GPU = GPUConfig(num_sms=2)
SMALL_KERNEL = KernelConfig(warp_runahead=2)


@pytest.fixture
def spec():
    # M = 2*6*6 = 72, K = 3*3*8 = 72, N = 16.
    return make_spec(batch=2, h=6, w=6, c=8, filters=16)


@pytest.fixture
def trace(spec):
    return generate_sm_trace(spec, SMALL_GPU, SMALL_KERNEL, SimulationOptions())


class TestGeometry:
    def test_padded_dims(self, spec):
        geom = gemm_geometry(spec)
        assert geom.m == 72 and geom.m_pad == 80
        assert geom.k == 72 and geom.k_pad == 80 and geom.lda == 80
        assert geom.n == 16 and geom.n_pad == 16
        assert geom.k_steps == 5

    def test_cta_striping(self, spec):
        geom = gemm_geometry(spec)
        blocks0, total = sm_cta_blocks(geom, SMALL_KERNEL, SMALL_GPU, 0)
        assert total == 1  # 72 rows -> one 128-row CTA; 16 cols -> one
        assert len(blocks0) == total
        # The grid leaves SM 1 idle: it is refused, not traced empty.
        with pytest.raises(ValueError, match="gets no CTAs"):
            sm_cta_blocks(geom, SMALL_KERNEL, SMALL_GPU, 1)
        with pytest.raises(ValueError, match="representative_sm"):
            sm_cta_blocks(geom, SMALL_KERNEL, SMALL_GPU, SMALL_GPU.num_sms)


class TestTraceStructure:
    def test_event_kinds_present(self, trace):
        kinds = set(trace.kind.tolist())
        assert kinds == {LOAD_A, LOAD_B, STORE_D}

    def test_a_addresses_in_workspace(self, trace, spec):
        geom = gemm_geometry(spec)
        a = trace.address[trace.kind == LOAD_A]
        assert (a >= WORKSPACE_BASE).all()
        assert (a < WORKSPACE_BASE + geom.m_pad * geom.lda * 2).all()

    def test_b_addresses_in_filter_region(self, trace):
        b = trace.address[trace.kind == LOAD_B]
        assert (b >= FILTER_BASE).all()

    def test_octet_duplication(self, trace):
        """Every A fragment address appears an even number of times:
        the octet pair fetches each fragment twice (Section II-B)."""
        a = trace.address[trace.kind == LOAD_A]
        _, counts = np.unique(a, return_counts=True)
        assert (counts % 2 == 0).all()

    def test_dual_instructions_cover_same_fragments(self, trace):
        """Consecutive octet-copy instructions load identical tiles."""
        is_a = trace.kind == LOAD_A
        addr = trace.address[is_a]
        instr = trace.instr[is_a]
        # First two instructions in the trace are the two copies of
        # the first tile.
        first = addr[instr == instr[0]]
        second = addr[instr == instr[0] + 1]
        np.testing.assert_array_equal(first, second)

    def test_instruction_groups_are_16_fragments(self, trace):
        is_a = trace.kind == LOAD_A
        _, counts = np.unique(trace.instr[is_a], return_counts=True)
        assert set(counts.tolist()) == {16}

    def test_instructions_contiguous(self, trace):
        ins = trace.instr[trace.kind != STORE_D]
        # Each instruction's fragments form one contiguous run.
        changes = np.count_nonzero(np.diff(ins))
        assert changes + 1 == len(np.unique(ins))

    def test_mma_ops_match_tiling(self, spec, trace):
        geom = gemm_geometry(spec)
        # 72x16 output: 5 m-tiles x 1 n-tile of 16x16, x k-steps.
        expected = 5 * 1 * geom.k_steps
        assert trace.mma_ops == expected

    def test_load_count_formula(self, spec, trace):
        geom = gemm_geometry(spec)
        m_tiles = -(-geom.m // 16)
        n_tiles = -(-geom.n // 16)
        # Warps sharing a row-block re-load A; warp grid is 4x2 but
        # partial CTAs clamp, so count per valid tile x copies.
        a = int((trace.kind == LOAD_A).sum())
        assert a % (16 * 2) == 0  # whole dual-instructions only

    def test_stores_once_per_output_fragment(self, spec, trace):
        geom = gemm_geometry(spec)
        stores = trace.address[trace.kind == STORE_D]
        assert len(np.unique(stores)) == len(stores)

    def test_partial_tiles_guarded(self, trace, spec):
        """No A row at or beyond the padded allocation."""
        geom = gemm_geometry(spec)
        a = trace.address[trace.kind == LOAD_A]
        rows = (a - WORKSPACE_BASE) // (geom.lda * 2)
        assert rows.max() < geom.m_pad


class TestCtaCapAndScaling:
    def test_max_ctas_caps_trace(self):
        spec = make_spec(batch=8, h=16, w=16, c=8, filters=16)
        full = generate_sm_trace(spec, SMALL_GPU, SMALL_KERNEL, SimulationOptions())
        capped = generate_sm_trace(
            spec, SMALL_GPU, SMALL_KERNEL, SimulationOptions(max_ctas=1)
        )
        assert capped.traced_ctas == 1
        assert capped.total_ctas == full.total_ctas
        assert len(capped) < len(full)
        assert capped.scale_factor == full.total_ctas / 1

    def test_counts_by_kind(self, trace):
        counts = trace.counts_by_kind()
        assert counts["load_a"] == int((trace.kind == LOAD_A).sum())
        assert set(counts) == {"load_a", "load_b", "store_d"}

    def test_concurrent_warps(self, trace):
        assert trace.concurrent_warps >= SMALL_KERNEL.warps_per_cta


class TestRunaheadOrdering:
    def test_runahead_groups_ksteps_per_warp(self):
        spec = make_spec(batch=1, h=8, w=8, c=8, filters=16)
        kern = KernelConfig(warp_runahead=4)
        trace = generate_sm_trace(spec, SMALL_GPU, kern, SimulationOptions())
        is_a = trace.kind == LOAD_A
        warp0 = trace.warp[is_a] == 0
        addrs = trace.address[is_a][warp0]
        geom = gemm_geometry(spec)
        cols = ((addrs - WORKSPACE_BASE) // 2) % geom.lda
        # Warp 0's first burst covers k-steps 0..3 before any later
        # k-step appears.
        ksteps = (cols // 16).tolist()
        first_burst = ksteps[: ksteps.index(4)] if 4 in ksteps else ksteps
        assert set(first_burst) == {0, 1, 2, 3}
