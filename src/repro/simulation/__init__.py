"""Event-driven storage simulator (the DiskSim substitute).

The package re-exports nothing: import from the defining submodule
(``repro.simulation.system``, ``repro.simulation.sweep``, ...), so that
importing one of them does not load the whole simulator and every
execution backend.
"""
