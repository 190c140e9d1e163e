"""SRV001 bad fixture: wall clock and ambient randomness in the service plane.

Lives under a ``repro/serve/`` directory because the rule is scoped to the
service package; identical code elsewhere is DET001/DET002's business.
(It trips those here too — the SRV001 tests run with ``select=("SRV001",)``.)
"""

import os
import random
import time
from datetime import datetime

import numpy.random.mtrand


def next_fire() -> float:
    return time.time() + random.uniform(0.0, 60.0)


def submitted_stamp() -> str:
    return datetime.now().isoformat()


def lease_token() -> str:
    return os.urandom(8).hex() + os.getrandom(8).hex()
