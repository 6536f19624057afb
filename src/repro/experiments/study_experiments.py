"""§3 user-study experiments: Figures 1-6 and the Table 1 roll-up.

Wraps the fleet population engine and analysis pipeline into one
function per paper artefact.  ``scale`` shrinks observation lengths (and the
10-hour cleaning threshold proportionally) so benches can trade a few
percent of statistical stability for speed; ``scale=1.0`` reproduces
the full ~9950-hour study.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..study import analysis
from ..study.cohort import FleetConfig
from ..study.signalcapturer import DeviceLog
from ..study.survey import DmosSurvey, UsageSurvey, run_dmos_survey, run_usage_survey


def build_study(
    scale: float = 1.0,
    seed: int = 0,
    n_users: int = 80,
    jobs: Optional[int] = None,
) -> List[DeviceLog]:
    """Generate the population and apply the paper's cleaning step.

    ``jobs`` fans cohorts out over worker processes (see
    :func:`repro.study.fleet.run_fleet`).
    """
    # Imported here: repro.study.fleet imports repro.experiments, whose
    # package __init__ imports this module.
    from ..study.fleet import run_fleet

    population = run_fleet(
        FleetConfig(n_devices=n_users, hours_scale=scale, seed=seed),
        jobs=jobs,
        keep_logs=True,
    ).logs
    assert population is not None  # keep_logs=True always materializes
    return analysis.clean(population, min_interactive_hours=10.0 * scale)


def fig1_usage_heatmap(seed: int = 0) -> UsageSurvey:
    """Figure 1: activity-frequency and multitasking heatmaps."""
    return run_usage_survey(n_respondents=48, seed=seed)


def fig2_utilization_cdf(devices: Sequence[DeviceLog]) -> List[Tuple[float, float]]:
    """Figure 2: CDF of per-device median RAM utilization."""
    return analysis.utilization_cdf(devices)


def fig3_signal_rates(
    devices: Sequence[DeviceLog],
) -> List["analysis.SignalRates"]:
    """Figure 3: per-device signals/hour by level versus RAM size."""
    return analysis.signal_rates(devices)


def fig4_time_in_states(devices: Sequence[DeviceLog]) -> List[Dict[str, Any]]:
    """Figure 4: fraction of time per pressure state versus RAM size."""
    return analysis.high_pressure_time_fractions(devices)


def fig5_available_by_state(
    devices: Sequence[DeviceLog], count: int = 5
) -> Dict[str, Dict[str, Any]]:
    """Figure 5: available-memory distributions per state for the
    devices spending the most time under pressure."""
    return {
        log.info.device_id: analysis.available_memory_by_state(log)
        for log in analysis.top_pressure_devices(devices, count)
    }


def fig6_transitions(devices: Sequence[DeviceLog]) -> Dict[str, Dict[str, Any]]:
    """Figure 6: next-state percentages and dwell quartiles."""
    return analysis.transition_stats(devices)


def table1_summary(devices: Sequence[DeviceLog]) -> Dict[str, float]:
    """Table 1's §3 rows, computed from the logs."""
    return analysis.study_summary(devices)


def fig10_dmos(
    reference_drop_rate: float = 0.03,
    degraded_drop_rate: float = 0.35,
    seed: int = 0,
) -> DmosSurvey:
    """Figure 10: the 99-rater differential MOS histogram.

    Defaults to the paper's measured operating point (3% vs 35% drops);
    the bench version feeds drop rates measured from actual simulated
    sessions instead.
    """
    return run_dmos_survey(
        reference_drop_rate, degraded_drop_rate, n_raters=99, seed=seed
    )
