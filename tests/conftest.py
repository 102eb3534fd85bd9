"""Let the interpreters that tests start import the package from ``src``.

pytest's ``pythonpath`` setting reaches only its own process; the CLI
tests that run ``python -m phonon_sensor.cli`` read ``PYTHONPATH``.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
