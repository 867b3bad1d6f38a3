"""Monte-Carlo defect/yield simulation.

The analytic models of :mod:`repro.yieldmodels.models` are limiting
distributions; this module provides the direct experiment they
summarise: throw defects on a wafer, count the dice they kill. It
serves three purposes:

* **validation** — the simulated yield must converge to Poisson for
  uniform defects and to negative-binomial for clustered ones (the
  tests assert both);
* **failure injection** — arbitrary spatial defect distributions
  (edge-weighted, clustered) that no closed form covers;
* **pedagogy** — the paper's yield numbers stop being magic.

Defects are compound-Poisson: cluster centres are uniform on the
wafer, each centre spawns a Poisson-distributed batch scattered with a
Gaussian radius. ``cluster_size → 1`` recovers the pure Poisson field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..obs import metrics as obs_metrics
from ..obs.instrument import traced
from ..validation import check_nonnegative, check_positive, check_positive_int
from ..wafer.specs import WaferSpec

__all__ = ["DefectField", "WaferYieldExperiment", "simulated_yield"]


@dataclass(frozen=True)
class DefectField:
    """A spatial defect process on a wafer.

    Attributes
    ----------
    density_per_cm2:
        Mean kill-defect density over the wafer.
    cluster_size:
        Mean defects per cluster (1.0 = unclustered Poisson field).
    cluster_radius_cm:
        Gaussian scatter radius of a cluster.
    """

    density_per_cm2: float
    cluster_size: float = 1.0
    cluster_radius_cm: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.density_per_cm2, "density_per_cm2")
        check_positive(self.cluster_size, "cluster_size")
        if self.cluster_size < 1.0:
            raise DomainError(f"cluster_size must be >= 1; got {self.cluster_size}")
        check_nonnegative(self.cluster_radius_cm, "cluster_radius_cm")

    def sample(self, wafer: WaferSpec, rng: np.random.Generator) -> np.ndarray:
        """Draw defect coordinates for one wafer; shape (n, 2) in cm."""
        area = wafer.area_cm2
        n_clusters_mean = self.density_per_cm2 * area / self.cluster_size
        n_clusters = rng.poisson(n_clusters_mean)
        if n_clusters == 0:
            return np.empty((0, 2))
        r = wafer.radius_cm
        # Uniform cluster centres on the disc (rejection-free polar draw).
        radii = r * np.sqrt(rng.random(n_clusters))
        angles = 2 * np.pi * rng.random(n_clusters)
        centres = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        # Each cluster spawns >= 1 defect; extra count is Poisson so the
        # mean batch size is cluster_size.
        batch = 1 + rng.poisson(self.cluster_size - 1.0, size=n_clusters)
        points = np.repeat(centres, batch, axis=0)
        if self.cluster_radius_cm > 0:
            points = points + rng.normal(0.0, self.cluster_radius_cm, size=points.shape)
        return points


@dataclass(frozen=True)
class WaferYieldExperiment:
    """Grid-die wafer + defect field → simulated yield.

    Dice are stepped on a square grid (same placement convention as
    :func:`repro.wafer.geometry.gross_die_exact` with zero offset
    sweep); a die is killed when any defect lands on it.
    """

    wafer: WaferSpec
    die_area_cm2: float
    field: DefectField

    def __post_init__(self) -> None:
        check_positive(self.die_area_cm2, "die_area_cm2")

    def _die_sites(self) -> tuple[np.ndarray, float]:
        """Lower-left corners of all full die sites and the die edge."""
        import math
        edge = math.sqrt(self.die_area_cm2)
        pitch = edge + self.wafer.scribe_mm / 10.0
        r = self.wafer.usable_radius_cm
        n = int(math.ceil(2 * r / pitch)) + 1
        idx = np.arange(-n, n + 1)
        gx, gy = np.meshgrid(idx * pitch, idx * pitch, indexing="ij")
        x0 = gx.ravel()
        y0 = gy.ravel()
        far_x = np.maximum(np.abs(x0), np.abs(x0 + pitch))
        far_y = np.maximum(np.abs(y0), np.abs(y0 + pitch))
        keep = far_x**2 + far_y**2 <= r * r
        sites = np.column_stack([x0[keep], y0[keep]])
        if sites.shape[0] == 0:
            raise DomainError(
                f"die of {self.die_area_cm2} cm^2 does not fit on wafer {self.wafer.name}")
        return sites, edge

    def run_wafer(self, rng: np.random.Generator) -> tuple[int, int]:
        """Simulate one wafer; returns (good dice, total dice)."""
        sites, edge = self._die_sites()
        defects = self.field.sample(self.wafer, rng)
        if defects.shape[0] == 0:
            return sites.shape[0], sites.shape[0]
        killed = np.zeros(sites.shape[0], dtype=bool)
        # Vectorised point-in-box test per die (sites x defects).
        dx = defects[:, 0][None, :] - sites[:, 0][:, None]
        dy = defects[:, 1][None, :] - sites[:, 1][:, None]
        hit = (dx >= 0) & (dx < edge) & (dy >= 0) & (dy < edge)
        killed = hit.any(axis=1)
        total = sites.shape[0]
        return total - int(killed.sum()), total

    @traced("yieldmodels.simulation.run", capture=("n_wafers", "seed"),
            equation="sim")
    def run(self, n_wafers: int = 20, seed: int = 0) -> float:
        """Simulated yield over ``n_wafers`` wafers."""
        check_positive_int(n_wafers, "n_wafers")
        rng = np.random.default_rng(seed)
        good = 0
        total = 0
        for _ in range(n_wafers):
            g, t = self.run_wafer(rng)
            good += g
            total += t
        obs_metrics.inc("yieldmodels_simulation_wafers_total", n_wafers)
        obs_metrics.inc("yieldmodels_simulation_dice_total", total)
        obs_metrics.observe("yieldmodels_simulation_yield", good / total)
        return good / total


def simulated_yield(wafer: WaferSpec, area_cm2: float,
                    density_per_cm2: float, cluster_size: float = 1.0,
                    cluster_radius_cm: float = 0.5,
                    n_wafers: int = 20, seed: int = 0) -> float:
    """One-call wrapper around :class:`WaferYieldExperiment`."""
    field = DefectField(density_per_cm2=density_per_cm2,
                        cluster_size=cluster_size,
                        cluster_radius_cm=cluster_radius_cm)
    experiment = WaferYieldExperiment(wafer=wafer, die_area_cm2=area_cm2,
                                      field=field)
    return experiment.run(n_wafers=n_wafers, seed=seed)
