"""Make the ``repro`` sources importable for the benchmark's own tests:
``python3 -m pytest perfbench``."""

import os
import sys

SOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
if SOURCE not in sys.path:
    sys.path.insert(0, SOURCE)
