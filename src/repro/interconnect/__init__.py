"""Interconnect substrate: Rent's rule, wirelength, delay prediction.

Grounds the §2.4 design-iteration story: how much wiring a design
style demands, when wires dominate timing, and how badly pre-layout
delay estimates miss — the inputs to :mod:`repro.designflow`.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "rent": (
        "RENT_MEMORY", "RENT_RANDOM_LOGIC", "RENT_REGULAR_FABRIC", "RentModel",
    ),
    "wirelength": (
        "WiringStack", "donath_average_length", "min_sd_for_wireability",
        "wiring_demand_tracks",
    ),
    "delay": (
        "PredictionErrorModel", "WireTechnology", "gate_delay_ps",
        "wire_delay_ps", "wire_dominance_length_um",
    ),
    "repeaters": (
        "RepeaterDesign", "optimal_repeaters", "repeater_count_per_chip",
    ),
})

__all__ = [
    "RentModel",
    "RENT_RANDOM_LOGIC",
    "RENT_REGULAR_FABRIC",
    "RENT_MEMORY",
    "donath_average_length",
    "WiringStack",
    "wiring_demand_tracks",
    "min_sd_for_wireability",
    "WireTechnology",
    "wire_delay_ps",
    "gate_delay_ps",
    "wire_dominance_length_um",
    "PredictionErrorModel",
    "RepeaterDesign",
    "optimal_repeaters",
    "repeater_count_per_chip",
]
