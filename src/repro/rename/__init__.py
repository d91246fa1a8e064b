"""Register renaming."""

from .rename_unit import OutOfPhysicalRegisters, RenameUnit

__all__ = ["OutOfPhysicalRegisters", "RenameUnit"]
