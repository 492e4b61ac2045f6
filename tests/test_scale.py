"""Paper-scale decomposition: chunked pair-list builds, memory accounting,
the lazy per-rank arena, and the strong-scaling bench plumbing.

The contract under test is the one the chunked-build refactor promises:
``max_build_bytes`` is *purely* a memory knob — capped builds produce
bit-identical trajectories (across home/halo boundaries,
through drift-triggered rebuilds) while bounding the per-rank build
working set; the accounting gauges and BenchRecord keys make that bound
auditable and separately regression-gated.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dd.engine import DDSimulator
from repro.md import make_grappa_system
from repro.md.cells import (
    BuildBudget,
    CellGrid,
    build_clusters,
    cluster_pair_candidates,
    cluster_tile_masks,
)
from repro.md.grappa import resolve_atoms
from repro.md.pairlist import VerletListBuilder
from repro.obs.bench import BenchHistory, BenchRecord
from repro.obs.metrics import METRICS
from repro.serve import SimulationSpec


def _digest(positions: np.ndarray) -> bytes:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(positions).tobytes()).digest()


def _run(ff, *, kernel: str, max_build_bytes: int | None,
         executor: str = "serial", n_atoms: int = 1400, seed: int = 11,
         ranks: int = 4, steps: int = 6, nstlist: int = 3,
         buffer: float = 0.12) -> bytes:
    system = make_grappa_system(n_atoms, seed=seed, ff=ff, dtype=np.float64)
    with DDSimulator(
        system, ff, n_ranks=ranks, backend="reference", executor=executor,
        nstlist=nstlist, buffer=buffer, kernel=kernel,
        max_build_bytes=max_build_bytes,
    ) as sim:
        sim.run(steps)
        return _digest(sim.system.positions)


def _cluster_search(pos, box, r_list, max_bytes):
    """Periodic cluster-pair search: ``(ci, cj, masks, budget)``."""
    periodic = np.ones(3, dtype=bool)
    budget = BuildBudget(max_bytes=max_bytes)
    lay = build_clusters(pos, np.zeros(3), box, 4)
    ci, cj = cluster_pair_candidates(
        lay, lay, r_list, box, periodic, True, budget=budget
    )
    masks = cluster_tile_masks(
        pos, lay, lay, ci, cj, r_list, box, periodic, True, budget=budget
    )
    return ci, cj, masks, budget


# -- chunked-build bit-identity ------------------------------------------------


class TestChunkedBuildParity:
    @pytest.mark.parametrize("kernel", ["cluster"])
    def test_capped_builds_bit_identical_across_caps(self, ff, kernel):
        """Several caps, DD ranks (home/halo boundaries), periodic rebuilds."""
        ref = _run(ff, kernel=kernel, max_build_bytes=None)
        for cap in (4096, 1 << 16, 1 << 20):
            assert _run(ff, kernel=kernel, max_build_bytes=cap) == ref, (
                f"max_build_bytes={cap} changed the {kernel} trajectory"
            )

    @pytest.mark.parametrize("kernel", ["cluster"])
    def test_capped_builds_survive_drift_rebuilds(self, ff, kernel):
        """nstlist >> steps with a thin buffer: rebuilds come from drift."""
        kw = dict(kernel=kernel, ranks=2, steps=12, nstlist=50, buffer=0.03,
                  seed=3)
        ref = _run(ff, max_build_bytes=None, **kw)
        assert _run(ff, max_build_bytes=4096, **kw) == ref

    def test_builder_level_parity_segment(self, small_system, ff):
        pos = small_system.positions
        box = small_system.box
        uncapped = VerletListBuilder(box=box, cutoff=ff.cutoff, buffer=0.12)
        capped = VerletListBuilder(box=box, cutoff=ff.cutoff, buffer=0.12,
                                   max_build_bytes=8192)
        a = uncapped.build(pos)
        b = capped.build(pos)
        assert np.array_equal(a.i, b.i)
        assert np.array_equal(a.j, b.j)

    def test_builder_level_parity_cluster(self, small_system, ff):
        pos = small_system.positions
        a = _cluster_search(pos, small_system.box, ff.cutoff + 0.12, None)
        b = _cluster_search(pos, small_system.box, ff.cutoff + 0.12, 8192)
        for x, y in zip(a[:3], b[:3]):
            assert np.array_equal(x, y)


# -- BuildBudget + memory accounting -------------------------------------------


class TestBuildBudget:
    def test_rows_respects_cap(self):
        b = BuildBudget(max_bytes=1 << 20)
        assert b.rows(bytes_per_row=1024, default_rows=10**9) == 1024
        # Uncapped keeps the tuned default.
        assert BuildBudget().rows(1024, 777) == 777
        # Degenerate cap still makes progress one row at a time.
        assert BuildBudget(max_bytes=4096).rows(10**9, 10**9) == 1

    def test_tiny_cap_rejected(self):
        with pytest.raises(ValueError, match="max_build_bytes"):
            BuildBudget(max_bytes=100)
        with pytest.raises(ValueError, match="max_build_bytes"):
            SimulationSpec(max_build_bytes=100)

    def test_peak_tracks_high_water(self):
        b = BuildBudget(max_bytes=1 << 20)
        b.note(100)
        b.note(50)
        assert b.peak_bytes == 100
        b.note_cells(30)
        b.note_cells(20)
        assert b.cells_bytes == 50

    def test_cell_grid_for_rank_covers_positions(self, small_system, ff):
        pos = small_system.positions
        grid = CellGrid.for_rank(pos, small_system.box,
                                 np.array([False, False, False]), ff.cutoff)
        i, j = grid.pairs_within(pos, ff.cutoff)
        assert i.size > 0  # non-periodic rank-local grid still finds pairs

    @pytest.mark.parametrize("kernel", ["cluster"])
    def test_memory_gauges_published_per_build(self, ff, kernel):
        system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
        with DDSimulator(
            system, ff, n_ranks=2, backend="reference", executor="serial",
            nstlist=2, buffer=0.12, kernel=kernel, max_build_bytes=1 << 20,
        ) as sim:
            sim.step()
            assert METRICS.gauge("md.pairlist.bytes").value > 0
            assert METRICS.gauge("md.cells.bytes").value > 0
            peak = METRICS.gauge("md.build.peak_bytes").value
            per_atom = METRICS.gauge("md.build.peak_bytes_per_atom").value
            assert peak > 0 and per_atom > 0
            for w in sim.workloads:
                assert w.pairlist_bytes > 0
                assert w.build_peak_bytes >= w.pairlist_bytes
                assert w.build_peak_bytes <= peak

    def test_chunk_working_set_bounded_by_cap(self, ff):
        """The cap actually bounds what the chunked stages allocate.

        The budget's peak includes per-rank outputs (pair list, layout),
        which scale with local atoms — but the *chunk* working set must
        track the cap, so a tight cap yields a much smaller peak than an
        uncapped build on the same rank.
        """
        system = make_grappa_system(3000, seed=7, ff=ff, dtype=np.float64)
        r_list = ff.cutoff + 0.12
        tight = _cluster_search(system.positions, system.box, r_list, 65536)[3]
        loose = _cluster_search(system.positions, system.box, r_list, None)[3]
        assert tight.peak_bytes < loose.peak_bytes


# -- lazy per-rank arena -------------------------------------------------------


class TestLazyArena:
    def test_slots_allocated_lazily_and_reused(self, ff):
        """One slot per rank on first dispatch; steady state never remaps."""
        allocs = METRICS.counter("par.arena.rank_allocs")
        grows = METRICS.counter("par.arena.rank_grows")
        remaps = METRICS.counter("par.arena.remaps")
        a0, g0, r0 = allocs.value, grows.value, remaps.value
        system = make_grappa_system(1400, seed=11, ff=ff, dtype=np.float64)
        with DDSimulator(
            system, ff, n_ranks=2, backend="reference", executor="process",
            nstlist=2, buffer=0.12, kernel="cluster",
        ) as sim:
            sim.run(6)  # several neighbour-search rebinds
        assert allocs.value - a0 == 2  # one lazy alloc per rank, ever
        assert grows.value - g0 == 0  # 25% slack absorbs steady-state churn
        assert remaps.value - r0 == 0
        assert METRICS.gauge("par.arena.bytes").value > 0

    def test_process_executor_bit_identical_with_cap(self, ff):
        ref = _run(ff, kernel="cluster", max_build_bytes=None, ranks=2,
                   steps=4, executor="serial")
        got = _run(ff, kernel="cluster", max_build_bytes=1 << 20, ranks=2,
                   steps=4, executor="process")
        assert got == ref


# -- bench plumbing ------------------------------------------------------------


class TestBenchPlumbing:
    REC = dict(
        git_sha="abc", timestamp="2026-08-08T00:00:00Z", system="45k",
        n_atoms=45_000, ranks=8, backend="reference", executor="process",
        overlap_comm=True, steps=3, ms_per_step=100.0, steps_per_s=10.0,
        kernel="cluster",
    )

    def test_max_build_bytes_is_part_of_baseline_key(self):
        capped = BenchRecord(**self.REC, max_build_bytes=64 << 20)
        uncapped = BenchRecord(**self.REC)
        assert capped.key() != uncapped.key()
        assert "cap64M" in capped.key_label()
        assert "cap" not in uncapped.key_label()

    def test_old_records_load_as_uncapped(self):
        d = BenchRecord(**self.REC).to_dict()
        del d["max_build_bytes"], d["memory"], d["scaling"]
        rec = BenchRecord.from_dict(d)
        assert rec.max_build_bytes is None
        assert rec.key() == BenchRecord(**self.REC).key()

    def test_memory_and_scaling_round_trip(self, tmp_path):
        rec = BenchRecord(
            **self.REC, max_build_bytes=64 << 20,
            memory={"build_peak_bytes": 123, "build_peak_bytes_per_atom": 4.5},
            scaling={"base_ranks": 8, "measured_efficiency": 0.5,
                     "model_efficiency": 0.9},
        )
        h = BenchHistory(tmp_path / "h.json", [rec])
        h.save()
        back = BenchHistory.load(h.path).records[0]
        assert back.memory["build_peak_bytes"] == 123
        assert back.scaling["base_ranks"] == 8
        assert back.key() == rec.key()

    def test_resolve_atoms_generic_suffixes(self):
        assert resolve_atoms("192k") == 192_000
        assert resolve_atoms("grappa-768k") == 768_000
        assert resolve_atoms("2.5M") == 2_500_000
        assert resolve_atoms("45k") == 45_000  # canonical labels unchanged
        with pytest.raises(ValueError, match="unknown system"):
            resolve_atoms("46q")
        with pytest.raises(ValueError, match="positive"):
            resolve_atoms("0k")


# -- trend figures -------------------------------------------------------------


class TestTrendFigures:
    def _history(self, tmp_path, n=3):
        recs = [
            BenchRecord(
                git_sha=f"sha{i}", timestamp=f"2026-08-0{i + 1}T00:00:00Z",
                system="45k", n_atoms=45_000, ranks=8, backend="reference",
                executor="process", overlap_comm=True, steps=3,
                ms_per_step=100.0 - i, steps_per_s=10.0 + 0.1 * i,
                imbalance={"process": {"overall": {
                    "mean_us": 10.0, "max_us": 12.0, "imbalance_pct": 20.0}}},
                energy={"machine": "dgx-h100", "backend": "nvshmem",
                        "watts": 700.0, "j_per_step": 1.5,
                        "ns_day_per_w": 0.1},
            )
            for i in range(n)
        ]
        h = BenchHistory(tmp_path / "BENCH_step.json", recs)
        h.save()
        return h

    def test_svg_embeds_fingerprint_and_series(self, tmp_path):
        from repro.obs.trend import history_fingerprint, render_trend_svg

        h = self._history(tmp_path)
        svg = render_trend_svg(h, "ms_per_step")
        assert history_fingerprint(h) in svg
        assert "<polyline" in svg  # 3 records -> an actual line
        assert "45k/8r/reference/process" in svg

    def test_status_cycle_missing_fresh_stale(self, tmp_path):
        from repro.obs.trend import trend_status, write_trends

        h = self._history(tmp_path)
        out = tmp_path / "trends"
        assert {s["status"] for s in trend_status(h, out)} == {"missing"}
        write_trends(h, out)
        assert {s["status"] for s in trend_status(h, out)} == {"fresh"}
        # History moves on -> committed figures grade stale, not fresh.
        h.append(BenchRecord(
            git_sha="new", timestamp="2026-08-08T00:00:00Z", system="45k",
            n_atoms=45_000, ranks=8, backend="reference", executor="process",
            overlap_comm=True, steps=3, ms_per_step=90.0, steps_per_s=11.1,
        ))
        h.save()
        fresh_h = BenchHistory.load(h.path)
        assert {s["status"] for s in trend_status(fresh_h, out)} == {"stale"}

    def test_report_check_fails_on_stale_trends(self, tmp_path):
        from repro.obs.dashboard import report_problems

        data = {
            "figures": [], "history_exists": True, "n_records": 3,
            "history_path": "BENCH_step.json", "threshold": 0.1,
            "bench_trends": [],
            "trend_figures": [
                {"figure": "trend_ms_per_step", "status": "stale",
                 "detail": "fingerprint mismatch", "action": "regenerate"},
            ],
        }
        problems = report_problems(data)
        assert any("trend_ms_per_step" in p for p in problems)
        data["trend_figures"][0]["status"] = "fresh"
        assert report_problems(data) == []

    def test_metrics_without_data_render_placeholder(self, tmp_path):
        from repro.obs.trend import render_trend_svg

        h = BenchHistory(tmp_path / "empty.json")
        svg = render_trend_svg(h, "energy")
        assert "no committed records" in svg
