#!/usr/bin/env python3
"""Regenerate the shipped rectified surfaces of the three default fear subsystems.

Builds the likelihood, undesirability and global intensity surfaces with the
fuzzy kernel, from fresh systems, and writes them to
``src/fearover/data/default_surfaces.f64``, which ``fear._default_systems``
reads instead of building them.  Run it after changing a default subsystem
or when ``tests/test_fear.py`` reports that the table and the kernel differ
(a numpy upgrade can move a node by one ulp):

    python scripts/build_default_surfaces.py
"""

import sys
from pathlib import Path

from fearover import fear


def main() -> int:
    systems = (fear.likelihood_system(), fear.undesirability_system(),
               fear.global_intensity_system())
    path = Path(fear.__file__).resolve().parent / "data" / fear._SURFACES_FILE
    data = fear._surface_table_bytes(systems)
    path.write_bytes(data)
    print(f"wrote {len(data):,} bytes to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
