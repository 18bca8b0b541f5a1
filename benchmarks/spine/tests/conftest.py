"""Self-tests import the benchmark's modules the way its scripts do:
from the benchmark directory itself."""

import os
import sys

SPINE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, SPINE_DIR)
