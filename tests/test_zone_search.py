"""Zone-classed cluster pair search against a brute-force eighth-shell oracle.

``ClusterKernel.build_split`` clusters home atoms and each halo zone
class (the bit set of dims with a nonzero zone shift) separately and
pairs only classes with disjoint bits, so the eighth-shell rule is
decided per cluster pair.  These tests pin that down on 1-D, 2-D and 3-D
grids and on a DLB-resized slab:

* the local/non-local lists and ``pulse_offsets`` equal an O(N^2)
  reference: every pair within ``r_list`` whose zone shifts have an
  elementwise minimum of zero, split and sorted as the engine expects;
* every halo-halo tile pairs two zone classes with disjoint bits;
* every computed mask slot is a kept pair, i.e. none is discarded;
* halo atoms with an all-zero zone shift (their own class 0) still pair
  with each other.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.dd import DDGrid, DDSimulator
from repro.md import make_grappa_system, make_molecular_grappa_system
from repro.md.inhomogeneous import make_system
from repro.obs.metrics import METRICS

BITS = np.array([1, 2, 4])


def _zone_class(zone_shift: np.ndarray) -> np.ndarray:
    return (zone_shift != 0).astype(np.int64) @ BITS


def _reference_split(ws):
    """Brute-force eighth-shell pair list, split and sorted like the engine."""
    cfg, ns = ws.cfg, ws.ns
    pos = ws.pos.astype(np.float64)
    n, nh = pos.shape[0], ns.n_home
    i, j = np.triu_indices(n, k=1)
    dx = pos[i] - pos[j]
    for d in range(3):
        if cfg.periodic[d]:
            dx[:, d] -= np.rint(dx[:, d] / cfg.box[d]) * cfg.box[d]
    keep = np.einsum("ij,ij->i", dx, dx) <= cfg.r_comm * cfg.r_comm
    zs = ns.zone_shift
    keep &= np.all(np.minimum(zs[i], zs[j]) == 0, axis=1)
    i, j = i[keep], j[keep]
    if ns.bonded is not None:
        excl = ns.bonded["mol"][i] == ns.bonded["mol"][j]
        ei, ej = i[excl], j[excl]
        i, j = i[~excl], j[~excl]
    else:
        ei, ej = i[:0], j[:0]
    local = (i < nh) & (j < nh)
    ni, nj = i[~local], j[~local]
    sp = ns.src_pulse
    req = np.maximum(sp[ni], sp[nj]) if sp is not None else np.zeros_like(ni)
    order = np.lexsort((nj, ni, req))
    pulse_offsets = np.searchsorted(
        req[order], np.arange(max(ns.n_pulses, 1) + 1)
    )
    el = (ei < nh) & (ej < nh)
    return dict(
        local=(i[local], j[local]),
        nonlocal_=(ni[order], nj[order]),
        pulse_offsets=pulse_offsets,
        excl_local=(ei[el], ej[el]),
        excl_nonlocal=(ei[~el], ej[~el]),
    )


def _check_against_reference(ws) -> dict:
    out = ws.cfg.kernel.impl.build_split(ws)
    ref = _reference_split(ws)
    loc, nl = out["local"], out["nonlocal_kernel"]
    np.testing.assert_array_equal(loc.i, ref["local"][0])
    np.testing.assert_array_equal(loc.j, ref["local"][1])
    np.testing.assert_array_equal(nl.i, ref["nonlocal_"][0])
    np.testing.assert_array_equal(nl.j, ref["nonlocal_"][1])
    np.testing.assert_array_equal(out["pulse_offsets"], ref["pulse_offsets"])
    for key in ("excl_local", "excl_nonlocal"):
        np.testing.assert_array_equal(out[key][0], ref[key][0])
        np.testing.assert_array_equal(out[key][1], ref[key][1])
    return out


def _check_tiles(ws, out) -> int:
    """Tiles are single-class, halo-halo tiles disjoint; no slot wasted.

    Returns the number of halo-halo tiles seen.
    """
    n, nh = ws.pos.shape[0], ws.ns.n_home
    # Home atoms are class 0; the padding sentinel gets -1.
    cls = np.append(_zone_class(ws.ns.zone_shift), -1)
    cls[:nh] = 0
    stats = out["stats"]
    loc, nl = out["local"], out["nonlocal_kernel"]
    assert int(loc.tile_masks.sum()) == stats["n_local"]
    assert int(nl.tile_masks.sum()) == stats["n_nonlocal"]
    n_xx = 0
    for ti, tj in ((loc.tile_atoms_i, loc.tile_atoms_j),
                   (nl.tile_atoms_i, nl.tile_atoms_j)):
        for atoms in (ti, tj):
            c = cls[atoms]
            row = np.where(atoms < n, c, c.max(axis=1, keepdims=True))
            assert np.all(row == row[:, :1]), "cluster mixes zone classes"
        ci, cj = cls[ti[:, 0]], cls[tj[:, 0]]
        xx = (ti[:, 0] >= nh) & (tj[:, 0] >= nh)
        n_xx += int(xx.sum())
        assert np.all((ci[xx] & cj[xx]) == 0), "halo tile joins shared bits"
    return n_xx


def _workspaces(system, ff, *, steps=1, **kwargs):
    sim = DDSimulator(
        system, ff, nstlist=5, buffer=0.12, kernel="cluster",
        executor="serial", **kwargs,
    )
    sim.run(steps)
    return sim, sim.executor._ws


GRIDS = {
    "1d": (1400, dict(grid=DDGrid((1, 1, 4)), max_pulses=2)),
    "2d": (3000, dict(grid=DDGrid((1, 4, 4)), max_pulses=2)),
    "3d": (3000, dict(grid=DDGrid((2, 2, 2)))),
}


class TestZoneClassedSearch:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_matches_brute_force(self, ff, name):
        n_atoms, kwargs = GRIDS[name]
        system = make_grappa_system(n_atoms, seed=7, ff=ff, dtype=np.float64)
        sim, wss = _workspaces(system, ff, steps=3, **kwargs)
        with sim:
            n_xx = 0
            for ws in wss:
                out = _check_against_reference(ws)
                n_xx += _check_tiles(ws, out)
            if name != "1d":
                assert n_xx, "grid must produce halo-halo tiles"

    def test_dlb_resized_slab(self, ff):
        system = make_system("slab-1400", seed=3, ff=ff, dtype=np.float64)
        sim = DDSimulator(
            system, ff, grid=DDGrid((1, 1, 4)), nstlist=2, buffer=0.12,
            max_pulses=2, dlb="pairs", kernel="cluster", executor="serial",
        )
        with sim:
            sim.run(12)
            assert sim.dlb_adjustments > 0 and not sim.dd.is_uniform
            for ws in sim.executor._ws:
                _check_tiles(ws, _check_against_reference(ws))

    def test_exclusions_canonical(self, ff):
        """Molecular systems: exclusions match the oracle in (i, j) order."""
        system, top = make_molecular_grappa_system(500, seed=5, ff=ff)
        sim, wss = _workspaces(system, ff, grid=DDGrid((2, 2, 1)), topology=top)
        with sim:
            n_excl = 0
            for ws in wss:
                out = _check_against_reference(ws)
                _check_tiles(ws, out)
                n_excl += out["stats"]["n_excluded"]
            assert n_excl, "system must produce excluded pairs"

    def test_zero_shift_halo_atoms_pair_with_each_other(self, ff):
        """Halo atoms with an all-zero shift form class 0, which pairs with
        itself (and every other class) — no 0-0 pair may be skipped."""
        system = make_grappa_system(3000, seed=7, ff=ff, dtype=np.float64)
        sim, wss = _workspaces(system, ff, grid=DDGrid((1, 2, 2)))
        with sim:
            ws = wss[0]
            nh = ws.ns.n_home
            zs = ws.ns.zone_shift.copy()
            zs[nh: nh + (zs.shape[0] - nh) // 2] = 0
            ws0 = dataclasses.replace(
                ws, ns=dataclasses.replace(ws.ns, zone_shift=zs)
            )
            out = _check_against_reference(ws0)
            _check_tiles(ws0, out)
            nl = out["nonlocal_kernel"]
            zero = np.all(zs == 0, axis=1)
            both = zero[nl.i] & zero[nl.j] & (nl.i >= nh)
            assert both.any(), "no class-0 halo-halo pair was emitted"

    def test_slots_per_pair_gauge(self, ff):
        system = make_grappa_system(3000, seed=7, ff=ff, dtype=np.float64)
        sim, wss = _workspaces(system, ff, grid=DDGrid((2, 2, 2)))
        with sim:
            stats = [ws.pairs.stats for ws in wss]
            slots = sum(s["n_slots_computed"] for s in stats)
            pairs = sum(s["n_local"] + s["n_nonlocal"] for s in stats)
            m2 = stats[0]["cluster_m"] ** 2
            tiles = sum(s["n_tiles_local"] + s["n_tiles_nonlocal"] for s in stats)
            # Candidate tiles include the loose ones trimmed after masking.
            assert slots >= tiles * m2
            assert METRICS.gauge("md.pairsearch.slots_per_pair").value == (
                pytest.approx(slots / pairs)
            )
