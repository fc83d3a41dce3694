"""Hardware path: netlist lowering, bit-exact simulation, Verilog emission and
physical-LUT area estimation."""

from .area import AreaReport, area_report, pack_estimate, popcount_cost
from .lower import lower
from .netlist import (AddCell, EngineBlock, LutCell, Netlist, ScaleThresholdCell, encode_pm1,
                      simulate)
from .verilog import emit_verilog, parse_tables

__all__ = [
    "AddCell", "AreaReport", "EngineBlock", "LutCell", "Netlist", "ScaleThresholdCell",
    "area_report", "emit_verilog", "encode_pm1", "lower",
    "pack_estimate", "parse_tables", "popcount_cost", "simulate",
]
