"""§4 controlled video experiments: Figures 8-12, 18, 19; Tables 2, 3.

Every function returns plain data structures that the benchmark
harness prints as the paper's rows/series.  Parameters default to the
paper's settings but accept reduced durations/repetitions so the
benches stay laptop-fast.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..video.encoding import paper_catalog
from .runner import CellResult, run_cells

#: The paper's three pressure regimes for §4.3.
PRESSURES = ("normal", "moderate", "critical")
#: Resolutions in Figure 8's sweep (240p-1440p) and Figure 9/11's
#: (240p-1080p).
FIG8_RESOLUTIONS = ("240p", "360p", "480p", "720p", "1080p", "1440p")
DROP_RESOLUTIONS = ("240p", "360p", "480p", "720p", "1080p")


def fig8_pss_by_encoding(
    device: str = "nexus5",
    resolutions: Tuple[str, ...] = FIG8_RESOLUTIONS,
    frame_rates: Tuple[int, ...] = (30, 60),
    duration_s: float = 30.0,
    repetitions: int = 3,
    jobs: Optional[int] = None,
    cache: Any = None,
) -> Dict[Tuple[str, int], Dict[str, Any]]:
    """Figure 8: client PSS vs resolution and frame rate, no pressure."""
    keys = [(res, fps) for res in resolutions for fps in frame_rates]
    cells = run_cells(
        [
            dict(
                device=device,
                resolution=resolution,
                fps=fps,
                pressure="normal",
                duration_s=duration_s,
                repetitions=repetitions,
            )
            for resolution, fps in keys
        ],
        jobs=jobs,
        cache=cache,
    )
    table = {}
    for key, cell in zip(keys, cells):
        mins = [r.pss_min_mb for r in cell.results]
        maxs = [r.pss_max_mb for r in cell.results]
        table[key] = {
            "mean_mb": cell.stats.mean_pss_mb,
            "min_mb": min(mins) if mins else 0.0,
            "max_mb": max(maxs) if maxs else 0.0,
        }
    return table


def drop_grid(
    device: str,
    resolutions: Tuple[str, ...] = DROP_RESOLUTIONS,
    frame_rates: Tuple[int, ...] = (30, 60),
    pressures: Tuple[str, ...] = PRESSURES,
    duration_s: float = 30.0,
    repetitions: int = 3,
    client: Optional[str] = None,
    jobs: Optional[int] = None,
    cache: Any = None,
) -> Dict[Tuple[str, int, str], CellResult]:
    """Frame-drop grid behind Figures 9/11/18/19.

    The whole grid fans out as one (cell × repetition) batch, so
    ``jobs`` workers stay saturated across cell boundaries.
    """
    keys = [
        (resolution, fps, pressure)
        for resolution in resolutions
        for fps in frame_rates
        for pressure in pressures
    ]
    cells = run_cells(
        [
            dict(
                device=device,
                resolution=resolution,
                fps=fps,
                pressure=pressure,
                duration_s=duration_s,
                repetitions=repetitions,
                client=client,
            )
            for resolution, fps, pressure in keys
        ],
        jobs=jobs,
        cache=cache,
    )
    return dict(zip(keys, cells))


def fig9_drops_nokia1(**kwargs: Any) -> Dict[Tuple[str, int, str], CellResult]:
    """Figure 9: average frame drops on the Nokia 1."""
    return drop_grid("nokia1", **kwargs)


def fig11_drops_nexus5(**kwargs: Any) -> Dict[Tuple[str, int, str], CellResult]:
    """Figure 11: average frame drops on the Nexus 5."""
    return drop_grid("nexus5", **kwargs)


def crash_table(
    device: str,
    cells: Tuple[Tuple[int, str], ...],
    pressures: Tuple[str, ...] = PRESSURES,
    duration_s: float = 30.0,
    repetitions: int = 5,
    client: Optional[str] = None,
    jobs: Optional[int] = None,
    cache: Any = None,
) -> Dict[Tuple[int, str, str], float]:
    """Crash-rate table: {(fps, resolution, pressure): crash fraction}."""
    keys = [
        (fps, resolution, pressure)
        for fps, resolution in cells
        for pressure in pressures
    ]
    results = run_cells(
        [
            dict(
                device=device,
                resolution=resolution,
                fps=fps,
                pressure=pressure,
                duration_s=duration_s,
                repetitions=repetitions,
                client=client,
            )
            for fps, resolution, pressure in keys
        ],
        jobs=jobs,
        cache=cache,
    )
    return {
        key: cell.stats.crash_rate for key, cell in zip(keys, results)
    }


#: Table 2's cells on the Nokia 1.
TABLE2_CELLS = ((30, "480p"), (30, "720p"), (60, "480p"), (60, "720p"))
#: Table 3's cells on the Nexus 5.
TABLE3_CELLS = ((30, "720p"), (30, "1080p"), (60, "480p"), (60, "720p"))


def table2_crash_nokia1(**kwargs: Any) -> Dict[Tuple[int, str, str], float]:
    return crash_table("nokia1", TABLE2_CELLS, **kwargs)


def table3_crash_nexus5(**kwargs: Any) -> Dict[Tuple[int, str, str], float]:
    return crash_table("nexus5", TABLE3_CELLS, **kwargs)


def fig12_genres(
    device: str = "nexus5",
    resolutions: Tuple[str, ...] = ("480p", "720p", "1080p"),
    frame_rates: Tuple[int, ...] = (30, 60),
    pressures: Tuple[str, ...] = PRESSURES,
    duration_s: float = 30.0,
    repetitions: int = 2,
    jobs: Optional[int] = None,
    cache: Any = None,
) -> Dict[Tuple[str, str, int, str], CellResult]:
    """Figure 12: drops across the five genre videos on the Nexus 5."""
    catalog = paper_catalog(duration_s=duration_s)
    keys = [
        (genre, resolution, fps, pressure)
        for genre in catalog
        for resolution in resolutions
        for fps in frame_rates
        for pressure in pressures
    ]
    results = run_cells(
        [
            dict(
                device=device,
                resolution=resolution,
                fps=fps,
                pressure=pressure,
                duration_s=duration_s,
                repetitions=repetitions,
                asset=catalog[genre],
            )
            for genre, resolution, fps, pressure in keys
        ],
        jobs=jobs,
        cache=cache,
    )
    return dict(zip(keys, results))


def fig18_exoplayer(**kwargs: Any) -> Dict[Tuple[str, int, str], CellResult]:
    """Figure 18 (Appendix B.1): ExoPlayer on the Nexus 5."""
    kwargs.setdefault("resolutions", ("480p", "720p", "1080p"))
    return drop_grid("nexus5", client="exoplayer", **kwargs)


def fig19_chrome(**kwargs: Any) -> Dict[Tuple[str, int, str], CellResult]:
    """Figure 19 (Appendix B.2): Chrome on the Nexus 5."""
    kwargs.setdefault("resolutions", ("480p", "720p", "1080p"))
    return drop_grid("nexus5", client="chrome", **kwargs)


def organic_spotcheck(
    duration_s: float = 30.0,
    repetitions: int = 3,
    jobs: Optional[int] = None,
    cache: Any = None,
) -> Dict[str, CellResult]:
    """§4.3's organic-pressure comparison: 480p 60 FPS on the Nokia 1,
    Normal (no background apps) versus Moderate (8 background apps)."""
    cells = run_cells(
        [
            dict(
                device="nokia1", resolution="480p", fps=60,
                pressure="normal", duration_s=duration_s,
                repetitions=repetitions,
            ),
            dict(
                device="nokia1", resolution="480p", fps=60,
                pressure="normal", duration_s=duration_s,
                repetitions=repetitions, organic_apps=8,
            ),
        ],
        jobs=jobs,
        cache=cache,
    )
    return {"normal": cells[0], "organic_moderate": cells[1]}


def summarize_drop_grid(
    grid: Dict[Tuple[str, int, str], CellResult]
) -> List[str]:
    """Printable rows for a drop grid (used by the bench harness)."""
    rows = []
    for (resolution, fps, pressure), cell in sorted(grid.items()):
        stats = cell.stats
        rows.append(
            f"{resolution:>6}@{fps:<2} {pressure:<9} "
            f"drop {stats.mean_drop_rate * 100:5.1f}% "
            f"± {stats.drop_rate_ci * 100:4.1f} "
            f"crash {stats.crash_rate * 100:5.1f}%"
        )
    return rows
