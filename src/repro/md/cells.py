"""Cell-list pair search with per-dimension periodicity.

This is the core neighbour-search substrate.  It must cover two geometries:

* the *global* periodic box (serial reference, pair-list builds), and
* a *rank-local extended domain* (home + halo atoms), which is periodic only
  along dimensions the domain decomposition does not split (halo atoms carry
  explicit shifts along decomposed dimensions and may lie outside the box).

Pairs are found by binning atoms into cells at least one cutoff wide and
scanning each unordered cell pair exactly once (13 half-space offsets plus the
cell itself), with minimum-image displacements applied along periodic
dimensions.  Duplicated cell pairs that arise from wrapping on very small
grids (1-2 cells along a periodic dimension) are deduplicated explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

#: The 13 half-space neighbour offsets (lexicographically positive) plus self.
_HALF_OFFSETS = [
    off
    for off in itertools.product((-1, 0, 1), repeat=3)
    if off > (0, 0, 0)
]


@dataclass
class BuildBudget:
    """Working-set cap and memory accounting for pair/tile builds.

    ``max_bytes`` bounds the *transient* working set of one build stage:
    chunked stages (the candidate-search and tile-mask GEMMs) derive
    their chunk size from it, so a rank never materialises a candidate
    matrix larger than the cap.  ``None`` keeps each stage's tuned
    default chunk (sized for cache behaviour, not memory pressure).

    Chunk size never changes results — every chunked loop preserves
    iteration order and the final canonical sort is chunk-oblivious —
    so a capped build is bit-identical to an uncapped one; tests assert
    this across several caps.

    The budget also *measures*: ``peak_bytes`` records the largest
    transient working set any stage actually used and ``cells_bytes``
    the footprint of the search structures (cell grid occupancy or
    cluster layouts), feeding the ``md.cells.bytes`` /
    ``md.build.peak_bytes`` gauges.
    """

    max_bytes: int | None = None
    peak_bytes: int = 0
    cells_bytes: int = 0

    def __post_init__(self) -> None:
        if self.max_bytes is not None:
            self.max_bytes = int(self.max_bytes)
            if self.max_bytes < 4096:
                raise ValueError(
                    f"max_build_bytes must be >= 4096 (got {self.max_bytes}); "
                    f"a smaller cap cannot hold one candidate row"
                )

    def rows(self, bytes_per_row: int, default_rows: int) -> int:
        """Chunk length for a stage whose working set is ``bytes_per_row``.

        Uncapped budgets return the stage's tuned ``default_rows``;
        capped ones fit the chunk under ``max_bytes`` (always at least
        one row — correctness never depends on the cap being achievable).
        """
        if self.max_bytes is None:
            return max(1, int(default_rows))
        return max(1, int(self.max_bytes // max(int(bytes_per_row), 1)))

    def note(self, nbytes: int) -> None:
        """Record one stage's transient working set."""
        if nbytes > self.peak_bytes:
            self.peak_bytes = int(nbytes)

    def note_cells(self, nbytes: int) -> None:
        """Record search-structure footprint (cell grid / cluster layouts)."""
        self.cells_bytes += int(nbytes)


@dataclass
class CellList:
    """A 3D cell grid over ``[lo, hi)`` with per-dimension periodic flags.

    Parameters
    ----------
    lo, hi:
        Grid bounds per dimension.  Along periodic dimensions these must be
        the bounds of the periodic cell itself (minimum-image uses ``hi-lo``).
    cutoff:
        Interaction range; cells are never thinner than this.
    periodic:
        Boolean flags per dimension.
    """

    lo: np.ndarray
    hi: np.ndarray
    cutoff: float
    periodic: np.ndarray

    def __post_init__(self) -> None:
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        self.periodic = np.asarray(self.periodic, dtype=bool)
        if self.lo.shape != (3,) or self.hi.shape != (3,) or self.periodic.shape != (3,):
            raise ValueError("lo, hi, periodic must each have shape (3,)")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        extent = self.hi - self.lo
        if np.any(extent <= 0):
            raise ValueError(f"hi must exceed lo, got extent {extent}")
        # Minimum image is only valid when the periodic extent is at least
        # twice the cutoff; the DD layer guarantees this for real systems.
        bad = self.periodic & (extent < 2.0 * self.cutoff)
        if np.any(bad):
            raise ValueError(
                f"periodic extent {extent} must be >= 2*cutoff={2 * self.cutoff} "
                f"along periodic dimensions"
            )
        self.extent = extent
        self.ncells = np.maximum(1, np.floor(extent / self.cutoff).astype(int))
        self.cell_size = extent / self.ncells

    # -- binning ----------------------------------------------------------

    def cell_coords(self, positions: np.ndarray) -> np.ndarray:
        """Integer cell coordinates, shape (N, 3)."""
        rel = (np.asarray(positions, dtype=np.float64) - self.lo) / self.cell_size
        coords = np.floor(rel).astype(int)
        for d in range(3):
            if self.periodic[d]:
                coords[:, d] %= self.ncells[d]
            else:
                coords[:, d] = np.clip(coords[:, d], 0, self.ncells[d] - 1)
        return coords

    def linear_ids(self, coords: np.ndarray) -> np.ndarray:
        nz, ny, nx = self.ncells
        return (coords[:, 0] * ny + coords[:, 1]) * nx + coords[:, 2]

    # -- pair search -------------------------------------------------------

    def _cell_pairs(self, occupied: np.ndarray) -> list[tuple[int, int]]:
        """All unordered pairs of occupied cells that may contain neighbours."""
        occ = set(int(c) for c in occupied)
        nz, ny, nx = (int(v) for v in self.ncells)
        pairs: set[tuple[int, int]] = set()
        for cid in occ:
            cz, rem = divmod(cid, ny * nx)
            cy, cx = divmod(rem, nx)
            pairs.add((cid, cid))
            for dz, dy, dx in _HALF_OFFSETS:
                zz, yy, xx = cz + dz, cy + dy, cx + dx
                if self.periodic[0]:
                    zz %= nz
                elif not 0 <= zz < nz:
                    continue
                if self.periodic[1]:
                    yy %= ny
                elif not 0 <= yy < ny:
                    continue
                if self.periodic[2]:
                    xx %= nx
                elif not 0 <= xx < nx:
                    continue
                nid = (zz * ny + yy) * nx + xx
                if nid in occ:
                    pairs.add((min(cid, nid), max(cid, nid)))
        return sorted(pairs)

    def min_image(self, dx: np.ndarray) -> np.ndarray:
        """Minimum-image displacement along periodic dimensions only."""
        for d in range(3):
            if self.periodic[d]:
                ext = self.extent[d]
                dx[..., d] -= np.rint(dx[..., d] / ext) * ext
        return dx

    def pairs_within(
        self,
        positions: np.ndarray,
        cutoff: float | None = None,
        budget: "BuildBudget | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All index pairs (i < j) with minimum-image distance <= cutoff.

        Returns two int64 arrays; each unordered pair appears exactly once.
        The optional ``budget`` records the grid-occupancy footprint and
        the largest per-cell-pair dense block; the scan is already one
        cell pair at a time, so its working set is bounded by cell
        occupancy (density × cell volume), not by the atom count.
        """
        rc = self.cutoff if cutoff is None else float(cutoff)
        if rc > self.cutoff + 1e-12:
            raise ValueError(f"search cutoff {rc} exceeds cell size budget {self.cutoff}")
        positions = np.asarray(positions, dtype=np.float64)
        n = positions.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ids = self.linear_ids(self.cell_coords(positions))
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        # Start offset of every occupied cell in the sorted order.
        uniq, starts = np.unique(sorted_ids, return_index=True)
        bounds = np.append(starts, n)
        members = {int(c): order[bounds[k] : bounds[k + 1]] for k, c in enumerate(uniq)}
        if budget is not None:
            budget.note_cells(ids.nbytes + order.nbytes + uniq.nbytes + bounds.nbytes)
            max_occ = int(np.diff(bounds).max())
            # Largest dense block a cell pair can produce: dx (na*nb*3
            # f64) + r2 (na*nb f64) + the boolean keep mask.
            budget.note(max_occ * max_occ * (3 * 8 + 8 + 1))

        rc2 = rc * rc
        out_i: list[np.ndarray] = []
        out_j: list[np.ndarray] = []
        for ca, cb in self._cell_pairs(uniq):
            a = members[ca]
            if ca == cb:
                if a.size < 2:
                    continue
                dx = positions[a][:, None, :] - positions[a][None, :, :]
                dx = self.min_image(dx)
                r2 = np.einsum("ijk,ijk->ij", dx, dx)
                ii, jj = np.nonzero(np.triu(r2 <= rc2, k=1))
                if ii.size:
                    out_i.append(a[ii])
                    out_j.append(a[jj])
            else:
                b = members[cb]
                dx = positions[a][:, None, :] - positions[b][None, :, :]
                dx = self.min_image(dx)
                r2 = np.einsum("ijk,ijk->ij", dx, dx)
                ii, jj = np.nonzero(r2 <= rc2)
                if ii.size:
                    out_i.append(a[ii])
                    out_j.append(b[jj])
        if not out_i:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        i = np.concatenate(out_i)
        j = np.concatenate(out_j)
        # Canonical ordering: i < j, then lexicographic, for deterministic output.
        swap = i > j
        i2 = np.where(swap, j, i)
        j2 = np.where(swap, i, j)
        key = np.lexsort((j2, i2))
        return i2[key].astype(np.int64), j2[key].astype(np.int64)


def periodic_cell_list(box: np.ndarray, cutoff: float) -> CellList:
    """Cell list over the full periodic box (all dimensions periodic)."""
    box = np.asarray(box, dtype=np.float64)
    return CellList(lo=np.zeros(3), hi=box, cutoff=cutoff, periodic=np.ones(3, dtype=bool))


class CellGrid(CellList):
    """A rank-local cell grid covering exactly one rank's home+halo extent.

    The rank-side counterpart of :func:`periodic_cell_list`: along
    dimensions the domain decomposition does not split the grid spans
    the periodic box, along decomposed dimensions it spans only the
    bounding box of the rank's local atoms (home + halo, which carry
    explicit shifts there).  Every structure it allocates is therefore
    sized by the *local* atom count — the rank never touches an
    O(N_global) array on the build path.
    """

    @classmethod
    def for_rank(
        cls,
        positions: np.ndarray,
        box: np.ndarray,
        periodic: np.ndarray,
        r_list: float,
    ) -> "CellGrid":
        """Grid over the home+halo extent of ``positions`` (local rows)."""
        positions = np.asarray(positions, dtype=np.float64)
        box = np.asarray(box, dtype=np.float64)
        periodic = np.asarray(periodic, dtype=bool)
        lo = np.where(periodic, 0.0, positions.min(axis=0) - 1e-9)
        hi = np.where(periodic, box, positions.max(axis=0) + 1e-9)
        hi = np.maximum(hi, lo + r_list)
        return cls(lo=lo, hi=hi, cutoff=r_list, periodic=periodic)


# -- cluster layout (the GROMACS M×N scheme's atom grouping) -------------------


@dataclass
class ClusterLayout:
    """Atoms grouped into fixed-size clusters along the spatial ordering.

    This is the layout under the M×N cluster-pair scheme (Páll et al.
    2020): atoms are binned into x/y columns sized so an ``m``-atom
    cluster is roughly cubic at the local density, sorted by z within
    each column, and chunked into clusters of ``m`` consecutive atoms.
    Clusters never straddle columns — each column pads its last cluster
    instead — which keeps bounding radii tight (a straddling cluster
    would span two distant z-ranges and blow up the candidate search).

    ``atoms`` holds *global* atom indices with the sentinel ``n_total``
    in padding slots, so a position array padded with one extra row can
    be gathered with ``positions_padded[atoms]`` without branching.
    """

    atoms: np.ndarray    # (C, m) int64; padding slots hold ``n_total``
    valid: np.ndarray    # (C, m) bool
    centers: np.ndarray  # (C, 3) float64 bounding-box midpoints
    radii: np.ndarray    # (C,) float64 bounding-sphere radii around centers
    half: np.ndarray     # (C, 3) float64 bounding-box half extents
    m: int
    n_total: int         # sentinel value (rows in the padded position array)

    @property
    def n_clusters(self) -> int:
        return int(self.atoms.shape[0])

    @property
    def nbytes(self) -> int:
        """Layout footprint (feeds the ``md.cells.bytes`` accounting)."""
        return int(
            self.atoms.nbytes + self.valid.nbytes + self.centers.nbytes
            + self.radii.nbytes + self.half.nbytes
        )


def build_clusters(
    positions: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    m: int,
    *,
    index: np.ndarray | None = None,
) -> ClusterLayout:
    """Group ``positions`` rows into :class:`ClusterLayout` clusters of ``m``.

    ``index`` selects the rows to cluster (all rows when ``None``); the
    layout holds those rows' indices into ``positions`` and pads with
    ``positions.shape[0]``.  The DD cluster kernel clusters home atoms
    and each halo zone class separately this way, over one shared
    position array.  Column count is density-matched: the ideal cluster
    cube side is ``(m / rho)^(1/3)``, so columns hold a few clusters'
    worth of atoms each and z-chunking yields compact clusters.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n_total = positions.shape[0]
    if index is None:
        index = np.arange(n_total, dtype=np.int64)
    else:
        index = np.asarray(index, dtype=np.int64)
        positions = positions[index]
    k = positions.shape[0]
    if k == 0:
        return ClusterLayout(
            atoms=np.zeros((0, m), dtype=np.int64),
            valid=np.zeros((0, m), dtype=bool),
            centers=np.zeros((0, 3)),
            radii=np.zeros(0),
            half=np.zeros((0, 3)),
            m=m,
            n_total=int(n_total),
        )
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    ext = np.maximum(hi - lo, 1e-9)
    rho = k / float(np.prod(ext))
    side = (m / max(rho, 1e-12)) ** (1.0 / 3.0)
    nx = max(1, int(round(ext[0] / side)))
    ny = max(1, int(round(ext[1] / side)))
    cx = np.clip(((positions[:, 0] - lo[0]) / ext[0] * nx).astype(np.int64), 0, nx - 1)
    cy = np.clip(((positions[:, 1] - lo[1]) / ext[1] * ny).astype(np.int64), 0, ny - 1)
    col = cx * ny + cy
    order = np.lexsort((positions[:, 2], col))
    col_sorted = col[order]
    counts = np.bincount(col_sorted, minlength=nx * ny)
    # Per-column chunking: column c contributes ceil(counts[c] / m)
    # clusters starting at col_base[c]; the last one is padded.
    ncl_per_col = (counts + m - 1) // m
    col_base = np.concatenate(([0], np.cumsum(ncl_per_col)))
    col_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rank_in_col = np.arange(k) - np.repeat(col_start, counts)
    cid = col_base[col_sorted] + rank_in_col // m
    slot = rank_in_col % m
    n_clusters = int(col_base[-1])
    rows = np.full((n_clusters, m), k, dtype=np.int64)
    rows[cid, slot] = order
    valid = rows < k
    atoms = np.append(index, n_total)[rows]
    xp = np.vstack([positions, np.zeros((1, 3))])[rows]
    big = np.where(valid[:, :, None], xp, -np.inf)
    small = np.where(valid[:, :, None], xp, np.inf)
    bb_hi = big.max(axis=1)
    bb_lo = small.min(axis=1)
    centers = 0.5 * (bb_hi + bb_lo)
    half = 0.5 * (bb_hi - bb_lo)
    d = np.where(valid[:, :, None], xp - centers[:, None, :], 0.0)
    radii = np.sqrt((d * d).sum(axis=-1).max(axis=1))
    return ClusterLayout(
        atoms=atoms, valid=valid, centers=centers, radii=radii, half=half,
        m=m, n_total=int(n_total),
    )


def cluster_pair_candidates(
    a: ClusterLayout,
    b: ClusterLayout,
    r_list: float,
    box: np.ndarray,
    periodic: np.ndarray,
    same: bool,
    budget: BuildBudget | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster pairs whose bounding volumes may hold an ``r_list`` pair.

    Two conservative prefilters run in sequence; neither ever drops a
    real candidate, and the mask stage makes the final exact decision.

    1. Bounding *spheres*, over all center pairs (chunked): pair
       ``(ci, cj)`` survives iff the minimum-image center distance is at
       most ``r_list + radius_a + radius_b`` (a 1.0001 slack absorbs
       rounding).  Sound because for any atom pair within ``r_list`` in
       some periodic image, the center distance *in that image* is
       bounded by ``r_list + ra + rb`` and the minimum image is no
       larger.  The squared distance splits into one GEMM over the
       non-periodic dimensions (the norm expansion ``|a|^2 + |b|^2 -
       2 a.b``) plus explicit per-dimension minimum-image terms along
       periodic ones — taken by comparison against the half box, valid
       because centers lie within one box length of each other.
    2. Bounding *boxes*, over the sphere survivors: clusters are chunks
       of z-sorted columns and hence elongated, so the axis-aligned
       separation ``sum_d max(0, |dc_d| - (half_a + half_b))^2 >
       r_list^2`` prunes a large fraction the sphere bound keeps.  The
       per-dimension minimum-image ``|dc_d|`` never exceeds the distance
       in the interacting image, so the test is conservative too.

    The mask stage re-derives the image per atom pair (centers and
    atoms can prefer different images when the box is small), so no
    shift is returned.  When ``same`` is true only the upper triangle
    ``ci <= cj`` is emitted (self pairs included; the mask stage
    triu-filters those).
    """
    n_a, n_b = a.n_clusters, b.n_clusters
    if n_a == 0 or n_b == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    ca, cb = a.centers, b.centers
    boxd = np.asarray(box, dtype=np.float64)
    per = [d for d in range(3) if periodic[d]]
    free = [d for d in range(3) if not periodic[d]]
    slack = float(r_list) * 1.0001
    caf = ca[:, free]
    cbf = cb[:, free]
    na_free = np.einsum("ij,ij->i", caf, caf)
    nb_free = np.einsum("ij,ij->i", cbf, cbf)
    cbt = np.ascontiguousarray(cbf.T)
    jdx = np.arange(n_b)
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    if budget is None:
        budget = BuildBudget()
    # Sphere-stage working set per chunk row: the d2 GEMM row (n_b f64),
    # one per-dim |dc| scratch row, the limit row, and the keep mask.
    sphere_row_bytes = n_b * (8 + 8 + 8 + 1) + 16
    chunk = min(n_a, budget.rows(sphere_row_bytes, int(6e6 // max(n_b, 1))))
    budget.note(chunk * sphere_row_bytes)
    for s in range(0, n_a, chunk):
        e = min(n_a, s + chunk)
        d2 = caf[s:e] @ cbt
        d2 *= -2.0
        d2 += na_free[s:e, None]
        d2 += nb_free[None, :]
        for d in per:
            dd = np.abs(ca[s:e, None, d] - cb[None, :, d])
            np.minimum(dd, boxd[d] - dd, out=dd)
            d2 += dd * dd
        lim = slack + a.radii[s:e, None] + b.radii[None, :]
        keep = d2 <= lim * lim
        if same:
            keep &= np.arange(s, e)[:, None] <= jdx[None, :]
        ii, jj = np.nonzero(keep)
        out_i.append(ii + s)
        out_j.append(jj)
    ci = np.concatenate(out_i).astype(np.int64)
    cj = np.concatenate(out_j).astype(np.int64)
    if ci.size:
        # AABB refinement, streamed in order over the sphere survivors.
        # Per-candidate math is elementwise, so chunking cannot change
        # the surviving set or its order.
        aabb_row_bytes = 8 + 8 + 1 + 32
        rchunk = min(int(ci.size), budget.rows(aabb_row_bytes, int(ci.size)))
        budget.note(rchunk * aabb_row_bytes)
        keep_i: list[np.ndarray] = []
        keep_j: list[np.ndarray] = []
        lim2 = slack * slack
        for s in range(0, int(ci.size), rchunk):
            e = min(int(ci.size), s + rchunk)
            cis, cjs = ci[s:e], cj[s:e]
            sep2 = np.zeros(cis.size)
            for d in range(3):
                dd = np.abs(ca[cis, d] - cb[cjs, d])
                if periodic[d]:
                    np.minimum(dd, boxd[d] - dd, out=dd)
                dd -= a.half[cis, d] + b.half[cjs, d]
                np.maximum(dd, 0.0, out=dd)
                dd *= dd
                sep2 += dd
            keep = sep2 <= lim2
            keep_i.append(cis[keep])
            keep_j.append(cjs[keep])
        ci = np.concatenate(keep_i)
        cj = np.concatenate(keep_j)
    return ci, cj


def cluster_tile_masks(
    positions: np.ndarray,
    a: ClusterLayout,
    b: ClusterLayout,
    ci: np.ndarray,
    cj: np.ndarray,
    r_list: float,
    box: np.ndarray,
    periodic: np.ndarray,
    same: bool,
    budget: BuildBudget | None = None,
) -> np.ndarray:
    """Exact per-tile interaction masks, shape ``(T, a.m, b.m)`` bool.

    For each candidate cluster pair the full M×N distance tile is
    evaluated in float64 with the minimum image taken *per atom pair*
    along periodic dimensions — the same convention as the flat kernels,
    and necessary in general: the image nearest two cluster centers need
    not be the image nearest every atom pair in the tile.  The squared
    distance accumulates as one batched GEMM over the non-periodic
    dimensions (norm expansion, which avoids materializing the
    ``(T, m, n, 3)`` displacement tensor) plus explicit minimum-image
    terms per periodic dimension.  A pair slot is set iff both slots are
    real atoms and ``r <= r_list``.  For ``same`` layouts the diagonal
    tiles (``ci == cj``) keep only the strict upper triangle so each
    unordered pair appears exactly once.
    """
    m_a, m_b = a.m, b.m
    padded = np.vstack([np.asarray(positions, dtype=np.float64),
                        np.zeros((1, 3))])
    n_tiles = int(ci.size)
    masks = np.empty((n_tiles, m_a, m_b), dtype=bool)
    boxd = np.asarray(box, dtype=np.float64)
    per = [d for d in range(3) if periodic[d]]
    free = [d for d in range(3) if not periodic[d]]
    tri = np.triu(np.ones((m_a, m_b), dtype=bool), k=1) if same else None
    r_list2 = r_list * r_list
    if budget is None:
        budget = BuildBudget()
    # Per-tile working set: the two gathered position tiles, the r2 GEMM
    # tile, one per-dim displacement tile, norm rows, and the mask slab.
    tile_bytes = (
        8 * 3 * (m_a + m_b)        # xi / xj gathers
        + 8 * m_a * m_b * 2        # r2 + per-dim dz
        + 8 * (m_a + m_b)          # norm-expansion rows
        + 2 * m_a * m_b            # boolean mask + msk scratch
    )
    chunk = max(1, min(n_tiles, budget.rows(tile_bytes, int(4e6 // (m_a * m_b)))))
    budget.note(chunk * tile_bytes)
    for s in range(0, n_tiles, chunk):
        e = min(n_tiles, s + chunk)
        xi = padded[a.atoms[ci[s:e]]]
        xj = padded[b.atoms[cj[s:e]]]
        xif = xi[..., free]
        xjf = xj[..., free]
        r2 = np.matmul(xif, np.swapaxes(xjf, 1, 2))
        r2 *= -2.0
        r2 += np.einsum("tmk,tmk->tm", xif, xif)[:, :, None]
        r2 += np.einsum("tnk,tnk->tn", xjf, xjf)[:, None, :]
        for d in per:
            dz = xi[:, :, None, d] - xj[:, None, :, d]
            dz -= np.rint(dz / boxd[d]) * boxd[d]
            dz *= dz
            r2 += dz
        msk = (
            (r2 <= r_list2)
            & a.valid[ci[s:e]][:, :, None]
            & b.valid[cj[s:e]][:, None, :]
        )
        if same:
            msk[ci[s:e] == cj[s:e]] &= tri
        masks[s:e] = msk
    return masks


def open_cell_list(positions: np.ndarray, cutoff: float) -> CellList:
    """Cell list over the bounding box of ``positions``, fully non-periodic."""
    positions = np.asarray(positions, dtype=np.float64)
    lo = positions.min(axis=0) - 1e-9
    hi = positions.max(axis=0) + 1e-9
    hi = np.maximum(hi, lo + cutoff)  # degenerate extents
    return CellList(lo=lo, hi=hi, cutoff=cutoff, periodic=np.zeros(3, dtype=bool))
