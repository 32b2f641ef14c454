"""Two-class erasure codes for distributed storage: fault tolerance from an
MDS-plus-piggyback part, cheap node repair from sum-parity nodes, with
exact read-cost simulation and brute-force verification oracles."""

from .class_a import ClassASpec, FaultToleranceReport, UnrecoverableErasureError, fault_tolerance
from .class_b import ClassBSpec, construct1_parities, construct2_parities
from .gf import FieldSpec
from .layout import CodeArray, DataArray, index_sets
from .repair import CodeSpec, ReadTrace, encode, puncture, repair_data_node, repair_multi, repair_parity_node

__version__ = "0.1.0"

__all__ = [
    "ClassASpec",
    "ClassBSpec",
    "CodeArray",
    "CodeSpec",
    "DataArray",
    "FaultToleranceReport",
    "FieldSpec",
    "ReadTrace",
    "UnrecoverableErasureError",
    "construct1_parities",
    "construct2_parities",
    "encode",
    "fault_tolerance",
    "index_sets",
    "puncture",
    "repair_data_node",
    "repair_multi",
    "repair_parity_node",
]
