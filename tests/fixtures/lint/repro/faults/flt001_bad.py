"""FLT001 bad fixture: ambient entropy inside the fault plane.

Lives under a ``repro/faults/`` directory because the rule is scoped to the
fault-plane package; identical code elsewhere is DET001's business at most.
"""

import os
import random
import secrets
import uuid
from random import Random

from numpy import random as np_random


def draw_fault(seed: int) -> float:
    rng = Random(seed)  # seeded, but still a sequential stream
    return rng.random()


def fault_token() -> str:
    return f"{uuid.uuid4()}:{secrets.token_hex(4)}:{os.urandom(8).hex()}"


def fault_salt() -> bytes:
    return os.getrandom(8)


_ = random, np_random
